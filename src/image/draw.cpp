#include "image/draw.h"

#include <algorithm>
#include <cmath>

namespace advp {

namespace {

// Alpha-blends color over pixels [x0, x1] of row y, both in the image, as
// (1 - a) * p + a * c with 1 - a and a * c hoisted. Keep that shape: the
// FMA the Release build forms from it is part of the recorded bits.
void blend_span(Image& img, int y, int x0, int x1, Color color, float alpha) {
  const float keep = 1.f - alpha;
  const float r = alpha * color.r, g = alpha * color.g, b = alpha * color.b;
  float* p = &img.at(x0, y, 0);
  for (int x = x0; x <= x1; ++x, p += 3) {
    p[0] = keep * p[0] + r;
    p[1] = keep * p[1] + g;
    p[2] = keep * p[2] + b;
  }
}

// Sets pixels [x0, x1] of row y, both in the image, to color.
void set_span(Image& img, int y, int x0, int x1, Color color) {
  float* p = &img.at(x0, y, 0);
  for (int x = x0; x <= x1; ++x, p += 3) {
    p[0] = color.r;
    p[1] = color.g;
    p[2] = color.b;
  }
}

}  // namespace

void fill_rect(Image& img, const Box& box, Color color, float alpha) {
  const int x0 = std::max(0, static_cast<int>(std::floor(box.x)));
  const int y0 = std::max(0, static_cast<int>(std::floor(box.y)));
  const int x1 = std::min(img.width(), static_cast<int>(std::ceil(box.right())));
  const int y1 = std::min(img.height(), static_cast<int>(std::ceil(box.bottom())));
  if (x0 >= x1) return;
  for (int y = y0; y < y1; ++y) blend_span(img, y, x0, x1 - 1, color, alpha);
}

void fill_convex_polygon(Image& img,
                         const std::vector<std::array<float, 2>>& pts,
                         Color color, float alpha) {
  if (pts.size() < 3) return;
  float ymin = pts[0][1], ymax = pts[0][1];
  for (const auto& p : pts) {
    ymin = std::min(ymin, p[1]);
    ymax = std::max(ymax, p[1]);
  }
  const int y0 = std::max(0, static_cast<int>(std::floor(ymin)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(ymax)));
  const std::size_t n = pts.size();
  for (int y = y0; y <= y1; ++y) {
    const float fy = static_cast<float>(y) + 0.5f;
    float xmin = 1e9f, xmax = -1e9f;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& a = pts[i];
      const auto& b = pts[(i + 1) % n];
      if ((a[1] <= fy && b[1] > fy) || (b[1] <= fy && a[1] > fy)) {
        const float t = (fy - a[1]) / (b[1] - a[1]);
        const float x = a[0] + t * (b[0] - a[0]);
        xmin = std::min(xmin, x);
        xmax = std::max(xmax, x);
      }
    }
    if (xmin > xmax) continue;
    // Pixel centres x + 0.5 in [xmin, xmax]: the test is monotone in x, so
    // trimming the clipped range from both ends finds exactly the pixels
    // it passes.
    int ix0 = std::max(0, static_cast<int>(std::floor(xmin)));
    int ix1 = std::min(img.width() - 1, static_cast<int>(std::ceil(xmax)));
    while (ix0 <= ix1 && static_cast<float>(ix0) + 0.5f < xmin) ++ix0;
    while (ix1 >= ix0 && static_cast<float>(ix1) + 0.5f > xmax) --ix1;
    if (ix0 <= ix1) blend_span(img, y, ix0, ix1, color, alpha);
  }
}

void fill_disc(Image& img, float cx, float cy, float radius, Color color,
               float alpha) {
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + radius)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + radius)));
  const float r2 = radius * radius;
  for (int y = y0; y <= y1; ++y) {
    const auto inside = [&](int x) {
      const float dx = static_cast<float>(x) + 0.5f - cx;
      const float dy = static_cast<float>(y) + 0.5f - cy;
      return dx * dx + dy * dy <= r2;
    };
    // Within a row the test only falls as |dx| grows, so the pixels that
    // pass it form one run: trim the clipped range from both ends.
    int ix0 = x0, ix1 = x1;
    while (ix0 <= ix1 && !inside(ix0)) ++ix0;
    while (ix1 >= ix0 && !inside(ix1)) --ix1;
    if (ix0 <= ix1) blend_span(img, y, ix0, ix1, color, alpha);
  }
}

void fill_regular_polygon(Image& img, float cx, float cy, float radius, int n,
                          double rotation, Color color, float alpha) {
  std::vector<std::array<float, 2>> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double a = rotation + 2.0 * M_PI * i / n;
    pts.push_back({cx + radius * static_cast<float>(std::cos(a)),
                   cy + radius * static_cast<float>(std::sin(a))});
  }
  fill_convex_polygon(img, pts, color, alpha);
}

void draw_line(Image& img, float x0, float y0, float x1, float y1, Color color,
               float thickness) {
  const float dx = x1 - x0, dy = y1 - y0;
  const float len = std::sqrt(dx * dx + dy * dy);
  const int steps = std::max(1, static_cast<int>(std::ceil(len * 2.f)));
  const float half = thickness / 2.f;
  for (int s = 0; s <= steps; ++s) {
    const float t = static_cast<float>(s) / static_cast<float>(steps);
    const float px = x0 + t * dx, py = y0 + t * dy;
    const int rx0 = std::max(0, static_cast<int>(std::floor(px - half)));
    const int rx1 =
        std::min(img.width() - 1, static_cast<int>(std::ceil(px + half)));
    const int ry0 = std::max(0, static_cast<int>(std::floor(py - half)));
    const int ry1 =
        std::min(img.height() - 1, static_cast<int>(std::ceil(py + half)));
    if (rx0 > rx1) continue;
    for (int y = ry0; y <= ry1; ++y) set_span(img, y, rx0, rx1, color);
  }
}

void draw_sign_legend(Image& img, float cx, float cy, float radius,
                      Color color) {
  // A horizontal bar covering the middle band of the sign face.
  const Box bar{cx - radius * 0.62f, cy - radius * 0.18f, radius * 1.24f,
                radius * 0.36f};
  fill_rect(img, bar, color);
}

void apply_lighting(Image& img, float gain, float bias) {
  float* p = img.data();
  for (std::size_t i = 0; i < img.numel(); ++i)
    p[i] = p[i] * gain + bias;
  img.clamp01();
}

void fill_vertical_gradient(Image& img, Color top, Color bottom) {
  for (int y = 0; y < img.height(); ++y) {
    const float t = img.height() <= 1
                        ? 0.f
                        : static_cast<float>(y) / static_cast<float>(img.height() - 1);
    const Color c{top.r + t * (bottom.r - top.r),
                  top.g + t * (bottom.g - top.g),
                  top.b + t * (bottom.b - top.b)};
    set_span(img, y, 0, img.width() - 1, c);
  }
}

}  // namespace advp

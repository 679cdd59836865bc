#include "image/proc.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/check.h"
#include "image/dct.h"
#include "tensor/vmath.h"

namespace advp {

namespace {

// Channel c interpolated between pixels (x0, y0) and (x1, y1) at weights
// tx, ty. The lerps are spelled as fused multiply-adds, fusing the t
// product in x and the (1 - t) product in y: the recorded hashes
// (TrainGradTest's contrastive epoch) pin those bits, and left to FMA
// contraction the compiler picks which product to fuse by code shape, so
// the choice changes with what it inlines.
float bilerp(const Image& img, int x0, int y0, int x1, int y1, float tx,
             float ty, int c) {
  const float top =
      std::fma(img.at(x1, y0, c), tx, img.at(x0, y0, c) * (1.f - tx));
  const float bot =
      std::fma(img.at(x1, y1, c), tx, img.at(x0, y1, c) * (1.f - tx));
  return std::fma(top, 1.f - ty, bot * ty);
}

}  // namespace

Image median_blur(const Image& img, int kernel) {
  ADVP_CHECK_MSG(kernel == 3 || kernel == 5, "median_blur: kernel must be 3 or 5");
  const int r = kernel / 2;
  Image out(img.width(), img.height());
  std::vector<float> window;
  window.reserve(static_cast<std::size_t>(kernel) * kernel);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < 3; ++c) {
        window.clear();
        for (int dy = -r; dy <= r; ++dy)
          for (int dx = -r; dx <= r; ++dx) {
            const int sx = std::clamp(x + dx, 0, img.width() - 1);
            const int sy = std::clamp(y + dy, 0, img.height() - 1);
            window.push_back(img.at(sx, sy, c));
          }
        auto mid = window.begin() + static_cast<long>(window.size() / 2);
        std::nth_element(window.begin(), mid, window.end());
        out.at(x, y, c) = *mid;
      }
  return out;
}

Image bit_depth_reduce(const Image& img, int bits) {
  ADVP_CHECK_MSG(bits >= 1 && bits <= 8, "bit_depth_reduce: bits in 1..8");
  const float levels = static_cast<float>((1 << bits) - 1);
  Image out = img;
  float* p = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i)
    p[i] = std::round(p[i] * levels) / levels;
  return out;
}

Image add_gaussian_noise(const Image& img, float sigma, Rng& rng) {
  // noise + pixel: the same bits as pixel + noise.
  Image out(img.width(), img.height());
  float* p = out.data();
  gaussian_fill(p, out.numel(), sigma, rng);
  const float* src = img.data();
  for (std::size_t i = 0; i < out.numel(); ++i) p[i] += src[i];
  return out.clamp01();
}

Image resize_bilinear(const Image& img, int new_w, int new_h) {
  ADVP_CHECK(new_w > 0 && new_h > 0 && !img.empty());
  Image out(new_w, new_h);
  const float sx = static_cast<float>(img.width()) / static_cast<float>(new_w);
  const float sy = static_cast<float>(img.height()) / static_cast<float>(new_h);
  for (int y = 0; y < new_h; ++y)
    for (int x = 0; x < new_w; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
      const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, img.width() - 1);
      const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, img.height() - 1);
      const int x1 = std::min(x0 + 1, img.width() - 1);
      const int y1 = std::min(y0 + 1, img.height() - 1);
      const float tx = std::clamp(fx - static_cast<float>(x0), 0.f, 1.f);
      const float ty = std::clamp(fy - static_cast<float>(y0), 0.f, 1.f);
      for (int c = 0; c < 3; ++c)
        out.at(x, y, c) = bilerp(img, x0, y0, x1, y1, tx, ty, c);
    }
  return out;
}

Image randomize_transform(const Image& img, float scale_lo, float scale_hi,
                          float noise_sigma, Rng& rng) {
  ADVP_CHECK(scale_lo > 0.f && scale_hi >= scale_lo);
  const int w = img.width(), h = img.height();
  const float s = static_cast<float>(rng.uniform(scale_lo, scale_hi));
  const int rw = std::max(2, static_cast<int>(std::round(w * s)));
  const int rh = std::max(2, static_cast<int>(std::round(h * s)));
  Image resized = resize_bilinear(img, rw, rh);

  Image out(w, h, 0.5f);  // neutral gray padding
  if (rw <= w && rh <= h) {
    // pad at a random offset
    const int ox = rng.uniform_int(0, w - rw);
    const int oy = rng.uniform_int(0, h - rh);
    paste(out, resized, ox, oy);
  } else {
    // random crop back to original size
    const int ox = rng.uniform_int(0, std::max(0, rw - w));
    const int oy = rng.uniform_int(0, std::max(0, rh - h));
    Image cropped = crop(resized, Box{static_cast<float>(ox),
                                      static_cast<float>(oy),
                                      static_cast<float>(std::min(w, rw)),
                                      static_cast<float>(std::min(h, rh))});
    paste(out, cropped, 0, 0);
  }
  if (noise_sigma > 0.f) out = add_gaussian_noise(out, noise_sigma, rng);
  return out;
}

Image crop(const Image& img, const Box& box) {
  const int x0 = std::clamp(static_cast<int>(std::round(box.x)), 0, img.width() - 1);
  const int y0 = std::clamp(static_cast<int>(std::round(box.y)), 0, img.height() - 1);
  const int x1 = std::clamp(static_cast<int>(std::round(box.right())), x0 + 1, img.width());
  const int y1 = std::clamp(static_cast<int>(std::round(box.bottom())), y0 + 1, img.height());
  Image out(x1 - x0, y1 - y0);
  for (int y = y0; y < y1; ++y)
    for (int x = x0; x < x1; ++x)
      for (int c = 0; c < 3; ++c) out.at(x - x0, y - y0, c) = img.at(x, y, c);
  return out;
}

void paste(Image& dst, const Image& patch, int x, int y) {
  for (int py = 0; py < patch.height(); ++py)
    for (int px = 0; px < patch.width(); ++px)
      dst.set_pixel(x + px, y + py, patch.at(px, py, 0), patch.at(px, py, 1),
                    patch.at(px, py, 2));
}

Image rotate(const Image& img, float radians) {
  const float cx = static_cast<float>(img.width()) / 2.f;
  const float cy = static_cast<float>(img.height()) / 2.f;
  const float ca = std::cos(-radians), sa = std::sin(-radians);
  Image out(img.width(), img.height());
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      const float dx = static_cast<float>(x) + 0.5f - cx;
      const float dy = static_cast<float>(y) + 0.5f - cy;
      const float sxf = std::clamp(cx + ca * dx - sa * dy - 0.5f, 0.f,
                                   static_cast<float>(img.width() - 1));
      const float syf = std::clamp(cy + sa * dx + ca * dy - 0.5f, 0.f,
                                   static_cast<float>(img.height() - 1));
      const int x0 = static_cast<int>(sxf);
      const int y0 = static_cast<int>(syf);
      const int x1 = std::min(x0 + 1, img.width() - 1);
      const int y1 = std::min(y0 + 1, img.height() - 1);
      const float tx = sxf - static_cast<float>(x0);
      const float ty = syf - static_cast<float>(y0);
      for (int c = 0; c < 3; ++c)
        out.at(x, y, c) = bilerp(img, x0, y0, x1, y1, tx, ty, c);
    }
  return out;
}

Image jpeg_like_compress(const Image& img, int quality) {
  ADVP_CHECK_MSG(quality >= 1 && quality <= 100, "jpeg: quality in [1,100]");
  // Luminance quantization table (ITU-T T.81 Annex K), scaled the way
  // libjpeg scales it from the quality factor.
  static constexpr std::array<int, 64> kBaseTable = {
      16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
      14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
      18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
      49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
  const int scale =
      quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<float, 64> q{};
  for (int i = 0; i < 64; ++i) {
    int v = (kBaseTable[static_cast<std::size_t>(i)] * scale + 50) / 100;
    q[static_cast<std::size_t>(i)] = static_cast<float>(std::clamp(v, 1, 255));
  }

  static const Dct dct8(8);
  Image out(img.width(), img.height());
  std::array<float, 64> block{}, coefs{};
  for (int c = 0; c < 3; ++c)
    for (int by = 0; by < img.height(); by += 8)
      for (int bx = 0; bx < img.width(); bx += 8) {
        // Load (edge-clamped) block in 0..255 units, centered at 0.
        for (int y = 0; y < 8; ++y)
          for (int x = 0; x < 8; ++x) {
            const int sx = std::min(bx + x, img.width() - 1);
            const int sy = std::min(by + y, img.height() - 1);
            block[static_cast<std::size_t>(y * 8 + x)] =
                img.at(sx, sy, c) * 255.f - 128.f;
          }
        // 2-D DCT: rows then columns using the shared 8-point transform.
        std::vector<float> rowbuf(8), colbuf(8);
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) rowbuf[static_cast<std::size_t>(x)] = block[static_cast<std::size_t>(y * 8 + x)];
          auto r = dct8.forward(rowbuf);
          for (int x = 0; x < 8; ++x) coefs[static_cast<std::size_t>(y * 8 + x)] = r[static_cast<std::size_t>(x)];
        }
        for (int x = 0; x < 8; ++x) {
          for (int y = 0; y < 8; ++y) colbuf[static_cast<std::size_t>(y)] = coefs[static_cast<std::size_t>(y * 8 + x)];
          auto r = dct8.forward(colbuf);
          for (int y = 0; y < 8; ++y) coefs[static_cast<std::size_t>(y * 8 + x)] = r[static_cast<std::size_t>(y)];
        }
        // Quantize / dequantize.
        for (int i = 0; i < 64; ++i)
          coefs[static_cast<std::size_t>(i)] =
              std::round(coefs[static_cast<std::size_t>(i)] / q[static_cast<std::size_t>(i)]) *
              q[static_cast<std::size_t>(i)];
        // Inverse 2-D DCT.
        for (int x = 0; x < 8; ++x) {
          for (int y = 0; y < 8; ++y) colbuf[static_cast<std::size_t>(y)] = coefs[static_cast<std::size_t>(y * 8 + x)];
          auto r = dct8.inverse(colbuf);
          for (int y = 0; y < 8; ++y) coefs[static_cast<std::size_t>(y * 8 + x)] = r[static_cast<std::size_t>(y)];
        }
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) rowbuf[static_cast<std::size_t>(x)] = coefs[static_cast<std::size_t>(y * 8 + x)];
          auto r = dct8.inverse(rowbuf);
          for (int x = 0; x < 8; ++x) block[static_cast<std::size_t>(y * 8 + x)] = r[static_cast<std::size_t>(x)];
        }
        // Store.
        for (int y = 0; y < 8 && by + y < img.height(); ++y)
          for (int x = 0; x < 8 && bx + x < img.width(); ++x)
            out.at(bx + x, by + y, c) = std::clamp(
                (block[static_cast<std::size_t>(y * 8 + x)] + 128.f) / 255.f,
                0.f, 1.f);
      }
  return out;
}

std::vector<float> abs_diff_map(const Image& a, const Image& b) {
  ADVP_CHECK(a.width() == b.width() && a.height() == b.height());
  std::vector<float> map(static_cast<std::size_t>(a.width()) * a.height());
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x) {
      float d = 0.f;
      for (int c = 0; c < 3; ++c) d += std::fabs(a.at(x, y, c) - b.at(x, y, c));
      map[static_cast<std::size_t>(y) * a.width() + x] = d / 3.f;
    }
  return map;
}

}  // namespace advp

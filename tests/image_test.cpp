// Tests for the image substrate: type conversions, rasterizer, processing
// (defense primitives) and the DCT basis.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "image/dct.h"
#include "image/draw.h"
#include "image/image.h"
#include "image/proc.h"

namespace advp {
namespace {

TEST(BoxTest, IouIdenticalIsOne) {
  Box a{0, 0, 10, 10};
  EXPECT_FLOAT_EQ(iou(a, a), 1.f);
}

TEST(BoxTest, IouDisjointIsZero) {
  EXPECT_FLOAT_EQ(iou(Box{0, 0, 5, 5}, Box{10, 10, 5, 5}), 0.f);
}

TEST(BoxTest, IouHalfOverlap) {
  // Two 10x10 boxes overlapping in a 5x10 strip: IoU = 50/150.
  EXPECT_NEAR(iou(Box{0, 0, 10, 10}, Box{5, 0, 10, 10}), 1.f / 3.f, 1e-5f);
}

TEST(ImageTest, TensorRoundTrip) {
  Rng rng(1);
  Image img(7, 5);
  for (int y = 0; y < 5; ++y)
    for (int x = 0; x < 7; ++x)
      for (int c = 0; c < 3; ++c)
        img.at(x, y, c) = static_cast<float>(rng.uniform());
  Image back = Image::from_tensor(img.to_tensor());
  EXPECT_FLOAT_EQ(img.mean_abs_diff(back), 0.f);
}

TEST(ImageTest, BatchRoundTrip) {
  Rng rng(2);
  std::vector<Image> imgs;
  for (int i = 0; i < 3; ++i) {
    Image im(4, 4);
    for (std::size_t k = 0; k < im.numel(); ++k)
      im.data()[k] = static_cast<float>(rng.uniform());
    imgs.push_back(im);
  }
  Tensor batch = images_to_batch(imgs);
  EXPECT_EQ(batch.dim(0), 3);
  for (int i = 0; i < 3; ++i) {
    Image back = Image::from_batch(batch, i);
    EXPECT_FLOAT_EQ(imgs[static_cast<std::size_t>(i)].mean_abs_diff(back), 0.f);
  }
}

// The conversions as per-element loops through at(): to_tensor, to_batch
// and each item of images_to_batch must copy like the first, from_batch
// and from_tensor like the second, bit for bit.
Tensor reference_to_tensor(const Image& img) {
  Tensor t({3, img.height(), img.width()});
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < img.height(); ++y)
      for (int x = 0; x < img.width(); ++x) t.at(c, y, x) = img.at(x, y, c);
  return t;
}

Image reference_from_batch(const Tensor& nchw, int index) {
  const int h = nchw.dim(2), w = nchw.dim(3);
  Image img(w, h);
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) img.at(x, y, c) = nchw.at(index, c, y, x);
  return img;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// Random values with -0, NaN and infinities mixed in: a conversion that
// did arithmetic instead of copying would change their bits.
Image random_image(int w, int h, Rng& rng) {
  Image img(w, h);
  const float special[] = {-0.f, std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(), 1e-40f};
  for (std::size_t k = 0; k < img.numel(); ++k)
    img.data()[k] = rng.coin(0.1) ? special[rng.index(4)]
                                  : static_cast<float>(rng.uniform(-2, 2));
  return img;
}

TEST(ImageTest, ConversionsMatchReferenceLoops) {
  Rng rng(17);
  for (const auto& [w, h] :
       std::vector<std::array<int, 2>>{{1, 1}, {1, 7}, {7, 1}, {96, 48}}) {
    SCOPED_TRACE(::testing::Message() << w << "x" << h);
    std::vector<Image> images;
    for (int i = 0; i < 3; ++i) images.push_back(random_image(w, h, rng));
    const Image& img = images[1];
    const Tensor ref = reference_to_tensor(img);

    const Tensor chw = img.to_tensor();
    EXPECT_EQ(chw.shape(), ref.shape());
    EXPECT_TRUE(same_bits(chw.data(), ref.data(), ref.numel()));
    const Tensor nchw = img.to_batch();
    EXPECT_EQ(nchw.shape(), (std::vector<int>{1, 3, h, w}));
    EXPECT_TRUE(same_bits(nchw.data(), ref.data(), ref.numel()));

    const Tensor batch = images_to_batch(images);
    EXPECT_EQ(batch.shape(), (std::vector<int>{3, 3, h, w}));
    for (int i = 0; i < 3; ++i) {
      const Image& item = images[static_cast<std::size_t>(i)];
      const Tensor item_ref = reference_to_tensor(item);
      EXPECT_TRUE(same_bits(batch.data() + i * item_ref.numel(),
                            item_ref.data(), item_ref.numel()));
      const Image back = Image::from_batch(batch, i);
      const Image back_ref = reference_from_batch(batch, i);
      EXPECT_EQ(back.width(), w);
      EXPECT_EQ(back.height(), h);
      EXPECT_TRUE(same_bits(back.data(), back_ref.data(), back_ref.numel()));
      EXPECT_TRUE(same_bits(back.data(), item.data(), item.numel()));
    }
    const Image from_chw = Image::from_tensor(ref);
    const Image from_chw_ref = reference_from_batch(ref.reshape({1, 3, h, w}), 0);
    EXPECT_TRUE(same_bits(from_chw.data(), from_chw_ref.data(), img.numel()));
  }
}

TEST(ImageTest, RejectsBadSizesBeforeAllocating) {
  // The cheap cases come first and stop the test if they fail, so a build
  // that sizes storage before checking never reaches the lying header
  // below, which would ask it for 19.2 GB.
  ASSERT_THROW((void)Image(-1, 5), CheckError);
  ASSERT_THROW((void)Image(5, -1), CheckError);
  ASSERT_THROW((void)Image(0, 5), CheckError);
  const std::string path = ::testing::TempDir() + "/advp_bad_size_test.ppm";
  const auto read_header = [&](const std::string& header) {
    {
      std::ofstream os(path, std::ios::binary);
      os << "P6\n" << header << "\n255\n" << std::string(3, '\x7f');
    }
    read_ppm(path);
  };
  ASSERT_THROW(read_header("-1 7"), CheckError);
  EXPECT_THROW(read_header("40000 40000"), CheckError);
  EXPECT_THROW(read_header("2 1"), CheckError);  // 6 bytes declared, 3 there
  read_header("1 1");                            // exactly the payload
  std::remove(path.c_str());
}

TEST(ImageTest, SetPixelIgnoresOutOfBounds) {
  Image img(4, 4);
  img.set_pixel(-1, 0, 1, 1, 1);
  img.set_pixel(0, 7, 1, 1, 1);  // no crash, no effect
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.f);
}

TEST(ImageTest, PpmRoundTrip) {
  Rng rng(3);
  Image img(6, 4);
  for (std::size_t k = 0; k < img.numel(); ++k)
    img.data()[k] = static_cast<float>(rng.uniform());
  const std::string path = ::testing::TempDir() + "/advp_test.ppm";
  write_ppm(img, path);
  Image back = read_ppm(path);
  EXPECT_EQ(back.width(), 6);
  EXPECT_EQ(back.height(), 4);
  EXPECT_LT(img.mean_abs_diff(back), 1.f / 255.f);
  std::remove(path.c_str());
}

TEST(DrawTest, FillRectCoversExactArea) {
  Image img(10, 10);
  fill_rect(img, Box{2, 3, 4, 2}, Color{1, 0, 0});
  EXPECT_FLOAT_EQ(img.at(2, 3, 0), 1.f);
  EXPECT_FLOAT_EQ(img.at(5, 4, 0), 1.f);
  EXPECT_FLOAT_EQ(img.at(1, 3, 0), 0.f);
  EXPECT_FLOAT_EQ(img.at(2, 5, 0), 0.f);
}

TEST(DrawTest, OctagonIsInsideCircumcircleAndNonTrivial) {
  Image img(32, 32);
  fill_regular_polygon(img, 16, 16, 10, 8, M_PI / 8.0, Color{1, 1, 1});
  int lit = 0;
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x)
      if (img.at(x, y, 0) > 0.5f) {
        ++lit;
        const float dx = x + 0.5f - 16.f, dy = y + 0.5f - 16.f;
        EXPECT_LE(std::sqrt(dx * dx + dy * dy), 10.6f);
      }
  // Area of a regular octagon with circumradius 10 is ~283.
  EXPECT_GT(lit, 200);
  EXPECT_LT(lit, 330);
}

TEST(DrawTest, GradientMonotone) {
  Image img(4, 16);
  fill_vertical_gradient(img, Color{0, 0, 0}, Color{1, 1, 1});
  for (int y = 1; y < 16; ++y)
    EXPECT_GE(img.at(0, y, 0), img.at(0, y - 1, 0));
}

// The renderer as per-pixel loops with bounds-checked writes: the row-span
// primitives must touch exactly these pixels with exactly these values.
namespace per_pixel {

void blend(Image& img, int x, int y, Color c, float a) {
  if (x < 0 || x >= img.width() || y < 0 || y >= img.height()) return;
  img.at(x, y, 0) = (1.f - a) * img.at(x, y, 0) + a * c.r;
  img.at(x, y, 1) = (1.f - a) * img.at(x, y, 1) + a * c.g;
  img.at(x, y, 2) = (1.f - a) * img.at(x, y, 2) + a * c.b;
}

void fill_rect(Image& img, const Box& box, Color color, float alpha) {
  const int x0 = std::max(0, static_cast<int>(std::floor(box.x)));
  const int y0 = std::max(0, static_cast<int>(std::floor(box.y)));
  const int x1 = std::min(img.width(), static_cast<int>(std::ceil(box.right())));
  const int y1 = std::min(img.height(), static_cast<int>(std::ceil(box.bottom())));
  for (int y = y0; y < y1; ++y)
    for (int x = x0; x < x1; ++x) blend(img, x, y, color, alpha);
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
    const int ix0 = std::max(0, static_cast<int>(std::floor(xmin)));
    const int ix1 = std::min(img.width() - 1, static_cast<int>(std::ceil(xmax)));
    for (int x = ix0; x <= ix1; ++x) {
      const float fx = static_cast<float>(x) + 0.5f;
      if (fx >= xmin && fx <= xmax) blend(img, x, y, color, alpha);
    }
  }
}

void fill_disc(Image& img, float cx, float cy, float radius, Color color,
               float alpha) {
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + radius)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + radius)));
  const float r2 = radius * radius;
  for (int y = y0; y <= y1; ++y)
    for (int x = x0; x <= x1; ++x) {
      const float dx = static_cast<float>(x) + 0.5f - cx;
      const float dy = static_cast<float>(y) + 0.5f - cy;
      if (dx * dx + dy * dy <= r2) blend(img, x, y, color, alpha);
    }
}

void fill_regular_polygon(Image& img, float cx, float cy, float radius, int n,
                          double rotation, Color color, float alpha) {
  std::vector<std::array<float, 2>> pts;
  for (int i = 0; i < n; ++i) {
    const double a = rotation + 2.0 * M_PI * i / n;
    pts.push_back({cx + radius * static_cast<float>(std::cos(a)),
                   cy + radius * static_cast<float>(std::sin(a))});
  }
  per_pixel::fill_convex_polygon(img, pts, color, alpha);
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
    const int rx0 = static_cast<int>(std::floor(px - half));
    const int rx1 = static_cast<int>(std::ceil(px + half));
    const int ry0 = static_cast<int>(std::floor(py - half));
    const int ry1 = static_cast<int>(std::ceil(py + half));
    for (int y = ry0; y <= ry1; ++y)
      for (int x = rx0; x <= rx1; ++x)
        img.set_pixel(x, y, color.r, color.g, color.b);
  }
}

void fill_vertical_gradient(Image& img, Color top, Color bottom) {
  for (int y = 0; y < img.height(); ++y) {
    const float t = img.height() <= 1
                        ? 0.f
                        : static_cast<float>(y) / static_cast<float>(img.height() - 1);
    const float r = top.r + t * (bottom.r - top.r);
    const float g = top.g + t * (bottom.g - top.g);
    const float b = top.b + t * (bottom.b - top.b);
    for (int x = 0; x < img.width(); ++x) img.set_pixel(x, y, r, g, b);
  }
}

}  // namespace per_pixel

TEST(DrawTest, PrimitivesMatchPerPixelReference) {
  Rng rng(23);
  for (const auto& [w, h] :
       std::vector<std::array<int, 2>>{{1, 1}, {1, 7}, {7, 1}, {96, 48}}) {
    // Coordinates from a margin of one image size around it, so shapes
    // cross every edge, cover the image or miss it entirely.
    const auto coord = [&](int size) {
      return static_cast<float>(rng.uniform(-size - 2.0, 2.0 * size + 2.0));
    };
    const auto color = [&] {
      return Color{static_cast<float>(rng.uniform()),
                   static_cast<float>(rng.uniform()),
                   static_cast<float>(rng.uniform())};
    };
    for (const float alpha : {1.f, 0.8f, 0.35f}) {
      Image img(w, h);
      for (std::size_t k = 0; k < img.numel(); ++k)
        img.data()[k] = static_cast<float>(rng.uniform());
      Image ref = img;
      const auto expect_same = [&](const char* what, int shape) {
        ASSERT_TRUE(same_bits(img.data(), ref.data(), img.numel()))
            << what << " #" << shape << " on " << w << "x" << h
            << " at alpha " << alpha;
      };
      // Degenerate shapes: zero-area boxes (one at a fractional x still
      // covers a column) and a two-point "polygon".
      const Color c0 = color();
      for (const Box& flat : {Box{coord(w), coord(h), 0.f, 3.f},
                              Box{std::floor(coord(w)), coord(h), 0.f, 0.f}}) {
        fill_rect(img, flat, c0, alpha);
        per_pixel::fill_rect(ref, flat, c0, alpha);
      }
      const std::vector<std::array<float, 2>> two{
          {0.f, 0.f}, {static_cast<float>(w), static_cast<float>(h)}};
      fill_convex_polygon(img, two, c0, alpha);
      per_pixel::fill_convex_polygon(ref, two, c0, alpha);
      expect_same("degenerate", 0);
      for (int shape = 0; shape < 40; ++shape) {
        const Color c = color();
        const Box box{coord(w), coord(h),
                      static_cast<float>(rng.uniform(0, 2.0 * w)),
                      static_cast<float>(rng.uniform(0, 2.0 * h))};
        fill_rect(img, box, c, alpha);
        per_pixel::fill_rect(ref, box, c, alpha);
        expect_same("fill_rect", shape);

        std::vector<std::array<float, 2>> tri;
        for (int v = 0; v < 3; ++v) tri.push_back({coord(w), coord(h)});
        fill_convex_polygon(img, tri, c, alpha);
        per_pixel::fill_convex_polygon(ref, tri, c, alpha);
        expect_same("fill_convex_polygon", shape);

        const float cx = coord(w), cy = coord(h);
        const float radius = static_cast<float>(rng.uniform(0, std::max(w, h)));
        const int sides = rng.uniform_int(3, 9);
        const double rotation = rng.uniform(0, M_PI);
        fill_regular_polygon(img, cx, cy, radius, sides, rotation, c, alpha);
        per_pixel::fill_regular_polygon(ref, cx, cy, radius, sides, rotation,
                                        c, alpha);
        expect_same("fill_regular_polygon", shape);

        fill_disc(img, cx, cy, radius, c, alpha);
        per_pixel::fill_disc(ref, cx, cy, radius, c, alpha);
        expect_same("fill_disc", shape);

        const float x0 = coord(w), y0 = coord(h), x1 = coord(w), y1 = coord(h);
        const float thickness = static_cast<float>(rng.uniform(0, 4));
        draw_line(img, x0, y0, x1, y1, c, thickness);
        per_pixel::draw_line(ref, x0, y0, x1, y1, c, thickness);
        expect_same("draw_line", shape);
      }
      const Color top = color(), bottom = color();
      fill_vertical_gradient(img, top, bottom);
      per_pixel::fill_vertical_gradient(ref, top, bottom);
      expect_same("fill_vertical_gradient", 0);
    }
  }
}

// ---- processing (defense primitives) -----------------------------------

TEST(ProcTest, MedianBlurRemovesSaltPepper) {
  Image img(9, 9, 0.5f);
  img.set_pixel(4, 4, 1.f, 1.f, 1.f);  // single outlier
  Image out = median_blur(img, 3);
  EXPECT_FLOAT_EQ(out.at(4, 4, 0), 0.5f);
}

TEST(ProcTest, MedianBlurPreservesConstantRegions) {
  Image img(8, 8, 0.3f);
  Image out = median_blur(img, 5);
  EXPECT_FLOAT_EQ(img.mean_abs_diff(out), 0.f);
}

TEST(ProcTest, BitDepthQuantizes) {
  Image img(2, 2, 0.37f);
  Image out = bit_depth_reduce(img, 1);  // levels {0, 1}
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 0.f);
  img = Image(2, 2, 0.63f);
  out = bit_depth_reduce(img, 1);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), 1.f);
}

TEST(ProcTest, BitDepthIdempotent) {
  Rng rng(4);
  Image img(6, 6);
  for (std::size_t k = 0; k < img.numel(); ++k)
    img.data()[k] = static_cast<float>(rng.uniform());
  Image once = bit_depth_reduce(img, 3);
  Image twice = bit_depth_reduce(once, 3);
  EXPECT_FLOAT_EQ(once.mean_abs_diff(twice), 0.f);
}

TEST(ProcTest, GaussianNoiseStaysInRangeAndMatchesSigma) {
  Rng rng(5);
  Image img(32, 32, 0.5f);
  Image noisy = add_gaussian_noise(img, 0.1f, rng);
  float lo = 1e9f, hi = -1e9f;
  double var = 0.0;
  for (std::size_t k = 0; k < noisy.numel(); ++k) {
    lo = std::min(lo, noisy.data()[k]);
    hi = std::max(hi, noisy.data()[k]);
    const double d = noisy.data()[k] - 0.5;
    var += d * d;
  }
  EXPECT_GE(lo, 0.f);
  EXPECT_LE(hi, 1.f);
  EXPECT_NEAR(std::sqrt(var / static_cast<double>(noisy.numel())), 0.1, 0.02);
}

TEST(ProcTest, ResizePreservesConstant) {
  Image img(8, 6, 0.42f);
  Image out = resize_bilinear(img, 15, 11);
  EXPECT_EQ(out.width(), 15);
  EXPECT_EQ(out.height(), 11);
  for (std::size_t k = 0; k < out.numel(); ++k)
    EXPECT_NEAR(out.data()[k], 0.42f, 1e-5f);
}

TEST(ProcTest, ResizeDownUpIsCloseForSmooth) {
  Image img(16, 16);
  fill_vertical_gradient(img, Color{0, 0, 0}, Color{1, 1, 1});
  Image down = resize_bilinear(img, 8, 8);
  Image up = resize_bilinear(down, 16, 16);
  EXPECT_LT(img.mean_abs_diff(up), 0.05f);
}

TEST(ProcTest, RandomizeKeepsSize) {
  Rng rng(6);
  Image img(20, 20, 0.5f);
  for (int i = 0; i < 10; ++i) {
    Image out = randomize_transform(img, 0.8f, 1.2f, 0.01f, rng);
    EXPECT_EQ(out.width(), 20);
    EXPECT_EQ(out.height(), 20);
  }
}

TEST(ProcTest, CropExtractsRegion) {
  Image img(10, 10);
  img.set_pixel(3, 4, 1.f, 0.f, 0.f);
  Image out = crop(img, Box{2, 3, 4, 4});
  EXPECT_EQ(out.width(), 4);
  EXPECT_EQ(out.height(), 4);
  EXPECT_FLOAT_EQ(out.at(1, 1, 0), 1.f);
}

TEST(ProcTest, PasteWritesClipped) {
  Image dst(6, 6);
  Image patch(3, 3, 1.f);
  paste(dst, patch, 4, 4);  // partially off-canvas
  EXPECT_FLOAT_EQ(dst.at(5, 5, 0), 1.f);
  EXPECT_FLOAT_EQ(dst.at(3, 3, 0), 0.f);
}

TEST(ProcTest, RotateZeroIsNearIdentity) {
  Rng rng(7);
  Image img(12, 12);
  for (std::size_t k = 0; k < img.numel(); ++k)
    img.data()[k] = static_cast<float>(rng.uniform());
  Image out = rotate(img, 0.f);
  EXPECT_LT(img.mean_abs_diff(out), 1e-5f);
}

TEST(ProcTest, AbsDiffMapLocalizesChange) {
  Image a(8, 8, 0.2f), b(8, 8, 0.2f);
  b.set_pixel(5, 2, 0.8f, 0.8f, 0.8f);
  auto map = abs_diff_map(a, b);
  EXPECT_NEAR(map[2 * 8 + 5], 0.6f, 1e-5f);
  EXPECT_FLOAT_EQ(map[0], 0.f);
}

// ---- DCT properties -------------------------------------------------------

TEST(DctTest, ForwardInverseIdentity) {
  Rng rng(8);
  Dct dct(16);
  std::vector<float> x(16);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  auto c = dct.forward(x);
  auto back = dct.inverse(c);
  for (int i = 0; i < 16; ++i) EXPECT_NEAR(back[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-4f);
}

TEST(DctTest, BasisOrthonormal) {
  Dct dct(8);
  for (int k1 = 0; k1 < 8; ++k1)
    for (int k2 = 0; k2 < 8; ++k2) {
      double dot = 0.0;
      for (int i = 0; i < 8; ++i)
        dot += static_cast<double>(dct.basis(k1, i)) * dct.basis(k2, i);
      EXPECT_NEAR(dot, k1 == k2 ? 1.0 : 0.0, 1e-5);
    }
}

TEST(DctTest, Basis2dImagesUnitNormAndOrthogonal) {
  Tensor b00 = dct2_basis_image(8, 8, 0, 0, 0);
  Tensor b12 = dct2_basis_image(8, 8, 1, 2, 0);
  Tensor b12c1 = dct2_basis_image(8, 8, 1, 2, 1);
  EXPECT_NEAR(b00.norm(), 1.f, 1e-4f);
  EXPECT_NEAR(b12.norm(), 1.f, 1e-4f);
  EXPECT_NEAR(b00.dot(b12), 0.f, 1e-5f);
  EXPECT_NEAR(b12.dot(b12c1), 0.f, 1e-5f);  // different channels
}

// dct2_basis_image computes only the two table rows it reads; every float
// must keep the bits of the product of the full Dct tables' entries, and
// every other channel must stay zero.
TEST(DctTest, Basis2dImageMatchesDctTableProductBitwise) {
  struct Size {
    int h, w, stride;  // stride: visit every stride-th (u, v)
  };
  for (const Size sz : {Size{8, 8, 1}, Size{6, 10, 1}, Size{48, 48, 7},
                        Size{48, 96, 11}}) {
    const Dct row(sz.h), col(sz.w);
    for (int u = 0; u < sz.h; u += sz.stride)
      for (int v = 0; v < sz.w; v += sz.stride)
        for (int c = 0; c < 3; ++c) {
          const Tensor img = dct2_basis_image(sz.h, sz.w, u, v, c);
          Tensor want({3, sz.h, sz.w});
          for (int y = 0; y < sz.h; ++y)
            for (int x = 0; x < sz.w; ++x)
              want.at(c, y, x) = row.basis(u, y) * col.basis(v, x);
          ASSERT_EQ(std::memcmp(img.data(), want.data(),
                                want.numel() * sizeof(float)),
                    0)
              << sz.h << "x" << sz.w << " u=" << u << " v=" << v
              << " channel " << c;
        }
  }
}

TEST(DctTest, Dct2RoundTrip) {
  Rng rng(9);
  const int h = 6, w = 10;
  std::vector<float> plane(static_cast<std::size_t>(h) * w);
  for (auto& v : plane) v = static_cast<float>(rng.uniform(-1, 1));
  auto coeffs = dct2_forward(plane, h, w);
  auto back = dct2_inverse(coeffs, h, w);
  for (std::size_t i = 0; i < plane.size(); ++i)
    EXPECT_NEAR(back[i], plane[i], 1e-4f);
}

// Parameterized: Parseval's theorem holds for every size (energy
// preservation — what makes SimBA-DCT's perturbation bound carry over).
class DctParsevalTest : public ::testing::TestWithParam<int> {};

TEST_P(DctParsevalTest, EnergyPreserved) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  Dct dct(n);
  std::vector<float> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  auto c = dct.forward(x);
  double ex = 0, ec = 0;
  for (int i = 0; i < n; ++i) {
    ex += static_cast<double>(x[static_cast<std::size_t>(i)]) * x[static_cast<std::size_t>(i)];
    ec += static_cast<double>(c[static_cast<std::size_t>(i)]) * c[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(ex, ec, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctParsevalTest,
                         ::testing::Values(2, 3, 7, 8, 16, 32, 48));

}  // namespace
}  // namespace advp

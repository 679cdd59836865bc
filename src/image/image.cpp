#include "image/image.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>

#include "core/check.h"

namespace advp {

float iou(const Box& a, const Box& b) {
  const float ix = std::max(0.f, std::min(a.right(), b.right()) -
                                     std::max(a.x, b.x));
  const float iy = std::max(0.f, std::min(a.bottom(), b.bottom()) -
                                     std::max(a.y, b.y));
  const float inter = ix * iy;
  const float uni = a.area() + b.area() - inter;
  return uni <= 0.f ? 0.f : inter / uni;
}

namespace {

// Checked before the storage is sized: a negative side would otherwise
// reach std::vector as a huge count.
std::size_t checked_numel(int width, int height) {
  ADVP_CHECK_MSG(width > 0 && height > 0,
                 "Image: bad size " << width << "x" << height);
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
         3;
}

// The one HWC <-> CHW pass behind every image/tensor conversion.
void hwc_to_chw(const float* hwc, std::size_t plane, float* chw) {
  for (std::size_t p = 0; p < plane; ++p)
    for (std::size_t c = 0; c < 3; ++c) chw[c * plane + p] = hwc[p * 3 + c];
}

void chw_to_hwc(const float* chw, std::size_t plane, float* hwc) {
  for (std::size_t p = 0; p < plane; ++p)
    for (std::size_t c = 0; c < 3; ++c) hwc[p * 3 + c] = chw[c * plane + p];
}

}  // namespace

Image::Image(int width, int height, float fill)
    : width_(width),
      height_(height),
      data_(checked_numel(width, height), fill) {}

Tensor Image::to_tensor() const {
  ADVP_CHECK(!empty());
  Tensor t = Tensor::uninitialized({3, height_, width_});
  hwc_to_chw(data(), numel() / 3, t.data());
  return t;
}

Tensor Image::to_batch() const {
  ADVP_CHECK(!empty());
  Tensor t = Tensor::uninitialized({1, 3, height_, width_});
  hwc_to_chw(data(), numel() / 3, t.data());
  return t;
}

Image Image::from_tensor(const Tensor& chw) {
  ADVP_CHECK(chw.rank() == 3 && chw.dim(0) == 3);
  Image img(chw.dim(2), chw.dim(1));
  chw_to_hwc(chw.data(), img.numel() / 3, img.data());
  return img;
}

Image Image::from_batch(const Tensor& nchw, int index) {
  ADVP_CHECK(nchw.rank() == 4 && nchw.dim(1) == 3);
  ADVP_CHECK(index >= 0 && index < nchw.dim(0));
  Image img(nchw.dim(3), nchw.dim(2));
  chw_to_hwc(nchw.data() + static_cast<std::size_t>(index) * img.numel(),
             img.numel() / 3, img.data());
  return img;
}

Image& Image::clamp01() {
  for (auto& v : data_) v = std::min(1.f, std::max(0.f, v));
  return *this;
}

float Image::mean_abs_diff(const Image& other) const {
  ADVP_CHECK(width_ == other.width_ && height_ == other.height_);
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    acc += std::fabs(data_[i] - other.data_[i]);
  return static_cast<float>(acc / static_cast<double>(data_.size()));
}

Tensor images_to_batch(const std::vector<Image>& images) {
  ADVP_CHECK(!images.empty());
  const int h = images[0].height(), w = images[0].width();
  Tensor batch =
      Tensor::uninitialized({static_cast<int>(images.size()), 3, h, w});
  const std::size_t per_image = images[0].numel();
  for (std::size_t i = 0; i < images.size(); ++i) {
    ADVP_CHECK(images[i].width() == w && images[i].height() == h);
    hwc_to_chw(images[i].data(), per_image / 3,
               batch.data() + i * per_image);
  }
  return batch;
}

void write_ppm(const Image& img, const std::string& path) {
  ADVP_CHECK(!img.empty());
  std::ofstream os(path, std::ios::binary);
  ADVP_CHECK_MSG(os.good(), "write_ppm: cannot open " << path);
  os << "P6\n" << img.width() << " " << img.height() << "\n255\n";
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      for (int c = 0; c < 3; ++c) {
        const float v = std::min(1.f, std::max(0.f, img.at(x, y, c)));
        os.put(static_cast<char>(std::lround(v * 255.f)));
      }
}

Image read_ppm(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ADVP_CHECK_MSG(is.good(), "read_ppm: cannot open " << path);
  std::string magic;
  int w = 0, h = 0, maxval = 0;
  is >> magic >> w >> h >> maxval;
  ADVP_CHECK_MSG(magic == "P6" && maxval == 255, "read_ppm: unsupported format");
  ADVP_CHECK_MSG(w > 0 && h > 0, "read_ppm: bad size " << w << "x" << h);
  is.get();  // single whitespace after header
  // The header is outside input: size the image only once the payload it
  // declares is known to be there.
  const std::streampos payload = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff available = is.tellg() - payload;
  is.seekg(payload);
  const std::uint64_t bytes = std::uint64_t{3} * static_cast<std::uint64_t>(w) *
                              static_cast<std::uint64_t>(h);
  ADVP_CHECK_MSG(is.good() && available >= 0 &&
                     static_cast<std::uint64_t>(available) >= bytes,
                 "read_ppm: truncated file");
  Image img(w, h);
  float* p = img.data();
  for (std::size_t i = 0; i < img.numel(); ++i) {
    const int byte = is.get();
    ADVP_CHECK_MSG(byte >= 0, "read_ppm: truncated file");
    p[i] = static_cast<float>(byte) / 255.f;
  }
  return img;
}

}  // namespace advp

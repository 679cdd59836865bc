// Image type used throughout the pipeline.
//
// Pixels are float RGB in [0,1], stored HWC (interleaved). Networks consume
// CHW tensors; to_tensor/from_tensor convert. Keeping a distinct Image type
// (instead of raw tensors everywhere) makes the attack/defense interfaces
// self-describing: attacks perturb Images, models eat Tensors.
#pragma once

#include <string>
#include <vector>

#include "core/check.h"
#include "tensor/tensor.h"

namespace advp {

/// Axis-aligned box in pixel coordinates (x toward the right, y down).
struct Box {
  float x = 0.f;  ///< left
  float y = 0.f;  ///< top
  float w = 0.f;
  float h = 0.f;

  float cx() const { return x + w / 2.f; }
  float cy() const { return y + h / 2.f; }
  float area() const { return w * h; }
  float right() const { return x + w; }
  float bottom() const { return y + h; }
};

/// Intersection-over-union of two boxes.
float iou(const Box& a, const Box& b);

/// RGB float image, values in [0,1], HWC layout.
class Image {
 public:
  Image() = default;
  /// Throws CheckError unless width and height are positive.
  Image(int width, int height, float fill = 0.f);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }
  std::size_t numel() const { return data_.size(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Channel c in {0,1,2} at pixel (x, y). No bounds checks in release.
  float& at(int x, int y, int c) {
    ADVP_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 &&
                c < 3);
    return data_[(static_cast<std::size_t>(y) * width_ + x) * 3 +
                 static_cast<std::size_t>(c)];
  }
  float at(int x, int y, int c) const {
    ADVP_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 &&
                c < 3);
    return data_[(static_cast<std::size_t>(y) * width_ + x) * 3 +
                 static_cast<std::size_t>(c)];
  }

  /// Sets pixel (x,y) to (r,g,b), ignoring out-of-bounds coordinates.
  void set_pixel(int x, int y, float r, float g, float b) {
    if (x < 0 || x >= width_ || y < 0 || y >= height_) return;
    float* p = &at(x, y, 0);
    p[0] = r;
    p[1] = g;
    p[2] = b;
  }

  /// CHW tensor [3,H,W].
  Tensor to_tensor() const;
  /// NCHW batch of one: [1,3,H,W].
  Tensor to_batch() const;
  static Image from_tensor(const Tensor& chw);
  /// Extracts image i of an NCHW batch.
  static Image from_batch(const Tensor& nchw, int index);

  Image& clamp01();
  /// Mean absolute per-pixel difference against an equally-sized image.
  float mean_abs_diff(const Image& other) const;

 private:
  int width_ = 0, height_ = 0;
  std::vector<float> data_;
};

/// Converts a batch of images to an NCHW tensor.
Tensor images_to_batch(const std::vector<Image>& images);

/// Writes a binary PPM (P6) for eyeballing generated scenes.
void write_ppm(const Image& img, const std::string& path);
/// Reads a binary PPM back (used by tests for round-tripping). Throws
/// CheckError on a bad header or a payload shorter than the header declares,
/// before allocating the image.
Image read_ppm(const std::string& path);

}  // namespace advp

// A small dense float32 tensor with value semantics.
//
// Shapes are up to 4-D (the library uses the NCHW convention for images).
// This is deliberately simple: contiguous row-major storage, no views, no
// broadcasting beyond scalar ops. Network layers and attacks build on top
// of it with explicit loops, which at the problem sizes used here (tens of
// pixels per side, a few channels) is fast enough on one core.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <new>
#include <vector>

#include "core/check.h"
#include "core/rng.h"

namespace advp {

namespace detail {
/// std::allocator whose value-less construct leaves the element
/// default-initialized (for float: unwritten). Lets Tensor::uninitialized
/// size its storage without a zero-fill; every construction from a value
/// (the zero-filling constructor, copies) still writes each element.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};
}  // namespace detail

/// Dense row-major float tensor, rank 1..4.
class Tensor {
 public:
  Tensor() = default;
  /// Allocates a zero-filled tensor with the given shape.
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape)
      : Tensor(std::vector<int>(shape)) {}

  // ---- factories -------------------------------------------------------
  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  /// A tensor whose elements are left unwritten. Only for outputs the
  /// caller overwrites in full before any element is read.
  static Tensor uninitialized(std::vector<int> shape);
  static Tensor full(std::vector<int> shape, float value);
  static Tensor ones(std::vector<int> shape) { return full(std::move(shape), 1.f); }
  /// I.i.d. N(0, sigma^2) entries: rng.gaussian(sigma) per element, in
  /// order (through gaussian_fill, tensor/vmath.h).
  static Tensor randn(std::vector<int> shape, Rng& rng, float sigma = 1.f);
  /// I.i.d. U[lo, hi) entries.
  static Tensor rand(std::vector<int> shape, Rng& rng, float lo = 0.f,
                     float hi = 1.f);
  static Tensor from_vector(std::vector<int> shape, std::vector<float> data);

  // ---- shape -----------------------------------------------------------
  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const;
  int rank() const { return static_cast<int>(shape_.size()); }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  /// Returns a copy with a new shape of equal element count. A dim of -1 is
  /// inferred.
  Tensor reshape(std::vector<int> shape) const;

  // ---- element access --------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }
  /// Element at a full index of the tensor's rank (rank and bounds are
  /// ADVP_DCHECKed).
  float& at(int i0) { return data_[offset(i0)]; }
  float& at(int i0, int i1) { return data_[offset(i0, i1)]; }
  float& at(int i0, int i1, int i2) { return data_[offset(i0, i1, i2)]; }
  float& at(int i0, int i1, int i2, int i3) {
    return data_[offset(i0, i1, i2, i3)];
  }
  float at(int i0) const { return data_[offset(i0)]; }
  float at(int i0, int i1) const { return data_[offset(i0, i1)]; }
  float at(int i0, int i1, int i2) const { return data_[offset(i0, i1, i2)]; }
  float at(int i0, int i1, int i2, int i3) const {
    return data_[offset(i0, i1, i2, i3)];
  }

  // ---- elementwise arithmetic (shape-checked) ---------------------------
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(const Tensor& rhs);
  Tensor& operator+=(float s);
  Tensor& operator-=(float s);
  Tensor& operator*=(float s);
  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, const Tensor& rhs) { return lhs *= rhs; }
  friend Tensor operator+(Tensor lhs, float s) { return lhs += s; }
  friend Tensor operator-(Tensor lhs, float s) { return lhs -= s; }
  friend Tensor operator*(Tensor lhs, float s) { return lhs *= s; }

  /// Applies f to every element in place; returns *this.
  Tensor& apply(const std::function<float(float)>& f);
  /// Returns a transformed copy.
  Tensor map(const std::function<float(float)>& f) const;
  /// Clamps every element into [lo, hi] in place.
  Tensor& clamp(float lo, float hi);

  // ---- reductions ------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Index of the maximum element.
  std::size_t argmax() const;
  /// Sum of squares.
  float sq_norm() const;
  /// L2 norm.
  float norm() const;
  /// Max absolute value (L-inf norm).
  float abs_max() const;
  /// Inner product with an equally-shaped tensor.
  float dot(const Tensor& other) const;

  void fill(float value);

 private:
  // Row-major offset of a full index; each dim is bounds-checked.
  template <typename... I>
  std::size_t offset(I... idx) const {
    const int ix[] = {idx...};
    ADVP_DCHECK(sizeof...(I) == shape_.size());
    std::size_t off = 0;
    for (std::size_t d = 0; d < sizeof...(I); ++d) {
      ADVP_DCHECK(ix[d] >= 0 && ix[d] < shape_[d]);
      off = off * static_cast<std::size_t>(shape_[d]) +
            static_cast<std::size_t>(ix[d]);
    }
    return off;
  }

  std::vector<int> shape_;
  std::vector<float, detail::DefaultInitAllocator<float>> data_;
};

/// a + s*b (shape-checked), used by optimizers and attacks.
Tensor axpy(const Tensor& a, float s, const Tensor& b);

std::ostream& operator<<(std::ostream& os, const Tensor& t);

}  // namespace advp

#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

#include "core/check.h"
#include "tensor/vmath.h"

namespace advp {

namespace {
std::size_t shape_numel(const std::vector<int>& shape) {
  ADVP_CHECK_MSG(!shape.empty() && shape.size() <= 4,
                 "tensor rank must be 1..4, got " << shape.size());
  std::size_t n = 1;
  for (int d : shape) {
    ADVP_CHECK_MSG(d > 0, "tensor dims must be positive, got " << d);
    n *= static_cast<std::size_t>(d);
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.f) {}

Tensor Tensor::uninitialized(std::vector<int> shape) {
  Tensor t;
  t.data_.resize(shape_numel(shape));
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, Rng& rng, float sigma) {
  Tensor t(std::move(shape));
  gaussian_fill(t.data_.data(), t.data_.size(), sigma, rng);
  return t;
}

Tensor Tensor::rand(std::vector<int> shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::from_vector(std::vector<int> shape, std::vector<float> data) {
  ADVP_CHECK_MSG(shape_numel(shape) == data.size(),
                 "from_vector: shape/data size mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(data.begin(), data.end());
  return t;
}

int Tensor::dim(int i) const {
  ADVP_CHECK(i >= 0 && i < rank());
  return shape_[static_cast<std::size_t>(i)];
}

Tensor Tensor::reshape(std::vector<int> shape) const {
  // One -1 dim may be inferred from the element count.
  long long known = 1;
  int infer = -1;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      ADVP_CHECK_MSG(infer == -1, "reshape: at most one -1 dim");
      infer = static_cast<int>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    ADVP_CHECK_MSG(known > 0 && numel() % static_cast<std::size_t>(known) == 0,
                   "reshape: cannot infer dim");
    shape[static_cast<std::size_t>(infer)] =
        static_cast<int>(numel() / static_cast<std::size_t>(known));
  }
  ADVP_CHECK_MSG(shape_numel(shape) == numel(), "reshape: element count change");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = data_;
  return t;
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  ADVP_CHECK_MSG(same_shape(rhs), "operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  ADVP_CHECK_MSG(same_shape(rhs), "operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& rhs) {
  ADVP_CHECK_MSG(same_shape(rhs), "operator*=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float s) {
  for (auto& v : data_) v += s;
  return *this;
}
Tensor& Tensor::operator-=(float s) { return *this += -s; }
Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::apply(const std::function<float(float)>& f) {
  for (auto& v : data_) v = f(v);
  return *this;
}

Tensor Tensor::map(const std::function<float(float)>& f) const {
  Tensor t = *this;
  t.apply(f);
  return t;
}

Tensor& Tensor::clamp(float lo, float hi) {
  for (auto& v : data_) v = std::min(hi, std::max(lo, v));
  return *this;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::mean() const {
  ADVP_CHECK(!empty());
  return sum() / static_cast<float>(numel());
}

float Tensor::min() const {
  ADVP_CHECK(!empty());
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  ADVP_CHECK(!empty());
  return *std::max_element(data_.begin(), data_.end());
}

std::size_t Tensor::argmax() const {
  ADVP_CHECK(!empty());
  return static_cast<std::size_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

float Tensor::sq_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(s);
}

float Tensor::norm() const { return std::sqrt(sq_norm()); }

float Tensor::abs_max() const {
  float m = 0.f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

float Tensor::dot(const Tensor& other) const {
  ADVP_CHECK_MSG(same_shape(other), "dot: shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    s += static_cast<double>(data_[i]) * other.data_[i];
  return static_cast<float>(s);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor axpy(const Tensor& a, float s, const Tensor& b) {
  ADVP_CHECK_MSG(a.same_shape(b), "axpy: shape mismatch");
  Tensor out = a;
  const float* bp = b.data();
  float* op = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) op[i] += s * bp[i];
  return out;
}

std::ostream& operator<<(std::ostream& os, const Tensor& t) {
  os << "Tensor[";
  for (int i = 0; i < t.rank(); ++i) os << (i ? "x" : "") << t.shape()[static_cast<std::size_t>(i)];
  os << "]";
  if (!t.empty()) os << " mean=" << t.mean() << " min=" << t.min() << " max=" << t.max();
  return os;
}

}  // namespace advp

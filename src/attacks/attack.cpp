#include "attacks/attack.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace advp::attacks {

Tensor make_box_mask(int h, int w, const Box& roi) {
  Tensor mask({1, 3, h, w});
  const int x0 = std::clamp(static_cast<int>(std::floor(roi.x)), 0, w);
  const int y0 = std::clamp(static_cast<int>(std::floor(roi.y)), 0, h);
  const int x1 = std::clamp(static_cast<int>(std::ceil(roi.right())), 0, w);
  const int y1 = std::clamp(static_cast<int>(std::ceil(roi.bottom())), 0, h);
  for (int c = 0; c < 3; ++c)
    for (int y = y0; y < y1; ++y)
      for (int x = x0; x < x1; ++x) mask.at(0, c, y, x) = 1.f;
  return mask;
}

Tensor stack_batch(const std::vector<Tensor>& items) {
  ADVP_CHECK_MSG(!items.empty(), "stack_batch: no candidates");
  const Tensor& first = items.front();
  ADVP_CHECK_MSG(first.rank() >= 1 && first.dim(0) == 1,
                 "stack_batch: candidates must be [1,...] tensors");
  std::vector<int> shape;
  for (int d = 0; d < first.rank(); ++d) shape.push_back(first.dim(d));
  shape[0] = static_cast<int>(items.size());
  Tensor out(shape);
  const std::size_t stride = first.numel();
  for (std::size_t i = 0; i < items.size(); ++i) {
    ADVP_CHECK_MSG(items[i].same_shape(first), "stack_batch: shape mismatch");
    std::copy(items[i].data(), items[i].data() + stride,
              out.data() + i * stride);
  }
  return out;
}

void apply_mask(Tensor& t, const Tensor& mask) {
  if (mask.empty()) return;
  ADVP_CHECK_MSG(t.same_shape(mask), "apply_mask: shape mismatch");
  t *= mask;
}

void project_l2(Tensor& x, const Tensor& x0, float eps, const Tensor& mask) {
  ADVP_CHECK(x.same_shape(x0));
  const bool masked = !mask.empty();
  if (masked) ADVP_CHECK(mask.same_shape(x));
  if (masked)
    for (std::size_t i = 0; i < x.numel(); ++i)
      if (mask[i] == 0.f) x[i] = x0[i];
  Tensor delta = x;
  delta -= x0;
  const float norm = delta.norm();
  if (norm > eps && norm > 0.f) {
    delta *= eps / norm;
    x = x0;
    x += delta;
  }
  x.clamp(0.f, 1.f);
}

void project_linf(Tensor& x, const Tensor& x0, float eps, const Tensor& mask) {
  ADVP_CHECK(x.same_shape(x0));
  const bool masked = !mask.empty();
  if (masked) ADVP_CHECK(mask.same_shape(x));
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (masked && mask[i] == 0.f) {
      x[i] = x0[i];
      continue;
    }
    const float lo = std::max(0.f, x0[i] - eps);
    const float hi = std::min(1.f, x0[i] + eps);
    x[i] = std::min(hi, std::max(lo, x[i]));
  }
}

}  // namespace advp::attacks

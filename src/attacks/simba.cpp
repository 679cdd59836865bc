#include "attacks/simba.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "image/dct.h"

namespace advp::attacks {

namespace {

/// Candidate basis direction generator with random order, no repeats.
class BasisSampler {
 public:
  BasisSampler(const Tensor& x, const SimbaParams& params, Rng& rng)
      : params_(params), h_(x.dim(2)), w_(x.dim(3)) {
    std::size_t count;
    if (params.basis == SimbaBasis::kPixel) {
      count = static_cast<std::size_t>(3) * h_ * w_;
    } else {
      max_u_ = std::max(1, static_cast<int>(h_ * params.freq_fraction));
      max_v_ = std::max(1, static_cast<int>(w_ * params.freq_fraction));
      count = static_cast<std::size_t>(3) * max_u_ * max_v_;
    }
    order_ = rng.permutation(count);
  }

  bool exhausted() const { return next_ >= order_.size(); }

  /// Returns the next basis direction as a [1,3,h,w] tensor of unit norm.
  Tensor next() {
    ADVP_CHECK(!exhausted());
    const std::size_t id = order_[next_++];
    Tensor q({1, 3, h_, w_});
    if (params_.basis == SimbaBasis::kPixel) {
      q[id] = 1.f;
    } else {
      const int per_ch = max_u_ * max_v_;
      const int c = static_cast<int>(id) / per_ch;
      const int rem = static_cast<int>(id) % per_ch;
      const int u = rem / max_v_;
      const int v = rem % max_v_;
      Tensor basis = dct2_basis_image(h_, w_, u, v, c);  // [3,h,w]
      q = basis.reshape({1, 3, h_, w_});
    }
    return q;
  }

 private:
  SimbaParams params_;
  int h_, w_;
  int max_u_ = 0, max_v_ = 0;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

}  // namespace

SimbaResult simba(const Tensor& x, const SimbaParams& params,
                  const ScoreOracle& oracle, Rng& rng, const Tensor& mask) {
  ADVP_CHECK(x.rank() == 4 && x.dim(0) == 1 && x.dim(1) == 3);
  SimbaResult res;
  res.x_adv = x;
  res.score_before = oracle(x);
  ++res.queries;
  float best = res.score_before;

  BasisSampler sampler(x, params, rng);
  while (res.queries < params.max_queries && !sampler.exhausted()) {
    Tensor q = sampler.next();
    apply_mask(q, mask);
    if (q.sq_norm() == 0.f) continue;  // direction fully outside the mask
    for (const float sign : {+1.f, -1.f}) {
      Tensor cand = axpy(res.x_adv, sign * params.eps, q);
      cand.clamp(0.f, 1.f);
      const float s = oracle(cand);
      ++res.queries;
      if (s < best) {
        best = s;
        res.x_adv = std::move(cand);
        ++res.accepted_directions;
        break;  // SimBA moves on after a success
      }
      if (res.queries >= params.max_queries) break;
    }
  }

  res.score_after = best;
  Tensor delta = res.x_adv;
  delta -= x;
  res.delta_sq_norm = delta.sq_norm();
  return res;
}

}  // namespace advp::attacks

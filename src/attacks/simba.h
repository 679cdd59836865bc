// Simple Black-box Attack (paper §III-D; Guo et al., ICML 2019).
//
// Greedy coordinate descent over an orthonormal basis: at each step pick an
// unused basis direction q, try x + eps*q then x - eps*q, keep whichever
// lowers the black-box score. The cumulative perturbation obeys
// ||delta_T||_2^2 <= T * eps^2 (paper eq. (4)) because accepted directions
// are orthonormal — a property the test suite asserts.
#pragma once

#include "attacks/attack.h"
#include "core/rng.h"

namespace advp::attacks {

enum class SimbaBasis {
  kPixel,  ///< standard basis: single (channel,y,x) coordinates
  kDct,    ///< low-frequency 2-D DCT basis functions per channel
};

struct SimbaParams {
  float eps = 0.1f;       ///< step along each basis vector
  int max_queries = 800;  ///< oracle-call budget
  SimbaBasis basis = SimbaBasis::kDct;
  float freq_fraction = 0.35f;  ///< DCT: use the lowest this fraction of
                                ///< frequencies in each axis
};

struct SimbaResult {
  Tensor x_adv;
  int queries = 0;
  int accepted_directions = 0;
  float score_before = 0.f;
  float score_after = 0.f;
  float delta_sq_norm = 0.f;  ///< ||x_adv - x||_2^2 (bound: T*eps^2)
};

SimbaResult simba(const Tensor& x, const SimbaParams& params,
                  const ScoreOracle& oracle, Rng& rng,
                  const Tensor& mask = Tensor());

}  // namespace advp::attacks

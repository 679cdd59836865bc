// Fast Gradient Sign Method (paper eq. (2), Goodfellow et al.):
//   x_adv = x + eps * sign(dJ/dx).
#pragma once

#include "attacks/attack.h"

namespace advp::attacks {

struct FgsmParams {
  float eps = 0.05f;
};

Tensor fgsm(const Tensor& x, const FgsmParams& params,
            const GradOracle& oracle, const Tensor& mask = Tensor());

}  // namespace advp::attacks

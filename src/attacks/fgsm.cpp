#include "attacks/fgsm.h"

namespace advp::attacks {

Tensor fgsm(const Tensor& x, const FgsmParams& params,
            const GradOracle& oracle, const Tensor& mask) {
  LossGrad lg = oracle(x);
  Tensor step = lg.grad.map(
      [](float g) { return g > 0.f ? 1.f : (g < 0.f ? -1.f : 0.f); });
  step *= params.eps;
  apply_mask(step, mask);
  Tensor adv = x;
  adv += step;
  adv.clamp(0.f, 1.f);
  return adv;
}

}  // namespace advp::attacks

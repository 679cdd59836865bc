// Auto-PGD (paper eq. (3); Croce & Hein, ICML 2020).
//
// Iterative projected gradient ascent with momentum and a parameter-free
// adaptive step size: the run is divided into checkpoints; at each
// checkpoint the step is halved (and the iterate reset to the best point
// so far) when progress stalls. This reproduces the two conditions of the
// original paper — too few successful ascent steps since the last
// checkpoint, or no improvement of the best loss with an unchanged step.
#pragma once

#include "attacks/attack.h"

namespace advp::attacks {

struct AutoPgdParams {
  float eps = 0.05f;   ///< L-inf radius
  int steps = 20;      ///< total iterations
  float alpha = 0.75f; ///< momentum mixing factor
  float rho = 0.75f;   ///< checkpoint success-rate threshold
};

struct AutoPgdResult {
  Tensor x_adv;      ///< best iterate found
  float best_loss = 0.f;
  int step_halvings = 0;
  int oracle_calls = 0;  ///< white-box evaluations consumed
};

/// @brief Runs Auto-PGD, ascending the oracle's loss inside the L-inf
/// ball of radius params.eps around x.
AutoPgdResult auto_pgd(const Tensor& x, const AutoPgdParams& params,
                       const GradOracle& oracle, const Tensor& mask = Tensor());

/// Plain PGD baseline (fixed step, no momentum) — the ablation partner in
/// bench/micro_overhead (DESIGN.md §6.2).
Tensor plain_pgd(const Tensor& x, float eps, float step, int steps,
                 const GradOracle& oracle, const Tensor& mask = Tensor());

/// L2-norm PGD: steps along the normalized gradient, projected onto the
/// L2 ball of radius eps. The norm-geometry counterpart of plain_pgd
/// (perturbation energy spread over the mask instead of per-pixel caps).
Tensor l2_pgd(const Tensor& x, float eps, float step, int steps,
              const GradOracle& oracle, const Tensor& mask = Tensor());

}  // namespace advp::attacks

#include "attacks/autopgd.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace advp::attacks {

namespace {
Tensor sign_of(const Tensor& g) {
  return g.map([](float v) { return v > 0.f ? 1.f : (v < 0.f ? -1.f : 0.f); });
}

// Croce & Hein's checkpoint schedule: p_0=0, p_1=0.22,
// p_{j+1} = p_j + max(p_j - p_{j-1} - 0.03, 0.06).
std::vector<int> checkpoints(int steps) {
  std::vector<double> p = {0.0, 0.22};
  while (p.back() < 1.0)
    p.push_back(p[p.size() - 1] +
                std::max(p[p.size() - 1] - p[p.size() - 2] - 0.03, 0.06));
  std::vector<int> w;
  for (double v : p) w.push_back(static_cast<int>(std::ceil(v * steps)));
  w.erase(std::unique(w.begin(), w.end()), w.end());
  return w;
}
}  // namespace

AutoPgdResult auto_pgd(const Tensor& x, const AutoPgdParams& params,
                       const GradOracle& oracle, const Tensor& mask) {
  ADVP_CHECK(params.steps >= 2);
  const auto ckpts = checkpoints(params.steps);

  float eta = 2.f * params.eps;
  Tensor x_prev = x;
  Tensor x_cur = x;

  AutoPgdResult res;
  LossGrad lg = oracle(x_cur);
  ++res.oracle_calls;
  res.x_adv = x_cur;
  res.best_loss = lg.loss;
  float f_cur = lg.loss;

  // First step: plain sign ascent.
  {
    Tensor step = sign_of(lg.grad);
    step *= eta;
    apply_mask(step, mask);
    Tensor x1 = x_cur;
    x1 += step;
    project_linf(x1, x, params.eps, mask);
    x_prev = x_cur;
    x_cur = std::move(x1);
    lg = oracle(x_cur);
    ++res.oracle_calls;
    f_cur = lg.loss;
    if (f_cur > res.best_loss) {
      res.best_loss = f_cur;
      res.x_adv = x_cur;
    }
  }

  std::size_t ckpt_idx = 1;
  int successes = 0;
  float best_at_last_ckpt = res.best_loss;
  float eta_at_last_ckpt = eta;
  int last_ckpt = 1;

  for (int k = 1; k < params.steps; ++k) {
    // z = P(x_k + eta * sign(grad))
    Tensor step = sign_of(lg.grad);
    step *= eta;
    apply_mask(step, mask);
    Tensor z = x_cur;
    z += step;
    project_linf(z, x, params.eps, mask);

    // x_{k+1} = P(x_k + alpha (z - x_k) + (1-alpha)(x_k - x_{k-1}))
    Tensor x_next = x_cur;
    Tensor dz = z;
    dz -= x_cur;
    dz *= params.alpha;
    Tensor dm = x_cur;
    dm -= x_prev;
    dm *= (1.f - params.alpha);
    x_next += dz;
    x_next += dm;
    project_linf(x_next, x, params.eps, mask);

    x_prev = x_cur;
    x_cur = std::move(x_next);
    lg = oracle(x_cur);
    ++res.oracle_calls;
    const float f_next = lg.loss;
    if (f_next > f_cur) ++successes;
    f_cur = f_next;
    if (f_cur > res.best_loss) {
      res.best_loss = f_cur;
      res.x_adv = x_cur;
    }

    // Checkpoint logic.
    if (ckpt_idx < ckpts.size() && k + 1 == ckpts[ckpt_idx]) {
      const int window = (k + 1) - last_ckpt;
      const bool cond1 =
          successes < static_cast<int>(params.rho * static_cast<float>(window));
      const bool cond2 = (eta == eta_at_last_ckpt) &&
                         (res.best_loss <= best_at_last_ckpt);
      if (cond1 || cond2) {
        eta *= 0.5f;
        ++res.step_halvings;
        x_cur = res.x_adv;  // restart from the best point
        x_prev = res.x_adv;
        lg = oracle(x_cur);
        ++res.oracle_calls;
        f_cur = lg.loss;
      }
      successes = 0;
      best_at_last_ckpt = res.best_loss;
      eta_at_last_ckpt = eta;
      last_ckpt = k + 1;
      ++ckpt_idx;
    }
  }
  return res;
}

Tensor l2_pgd(const Tensor& x, float eps, float step, int steps,
              const GradOracle& oracle, const Tensor& mask) {
  ADVP_CHECK(eps > 0.f && step > 0.f && steps >= 1);
  Tensor x_cur = x;
  for (int k = 0; k < steps; ++k) {
    LossGrad lg = oracle(x_cur);
    Tensor g = std::move(lg.grad);
    apply_mask(g, mask);
    const float norm = g.norm();
    if (norm <= 1e-12f) break;
    g *= step / norm;
    x_cur += g;
    project_l2(x_cur, x, eps, mask);
  }
  return x_cur;
}

Tensor plain_pgd(const Tensor& x, float eps, float step, int steps,
                 const GradOracle& oracle, const Tensor& mask) {
  Tensor x_cur = x;
  for (int k = 0; k < steps; ++k) {
    LossGrad lg = oracle(x_cur);
    Tensor delta = sign_of(lg.grad);
    delta *= step;
    apply_mask(delta, mask);
    x_cur += delta;
    project_linf(x_cur, x, eps, mask);
  }
  return x_cur;
}

}  // namespace advp::attacks

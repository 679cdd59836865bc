#include "attacks/rp2.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "tensor/vmath.h"

namespace advp::attacks {

namespace {

/// Pixel-aligned environment transform with an exact gradient mapping.
struct EnvTransform {
  int dx = 0, dy = 0;
  float gain = 1.f, bias = 0.f;
};

Tensor apply_transform(const Tensor& x, const EnvTransform& t, float noise,
                       Rng& rng) {
  const int h = x.dim(2), w = x.dim(3);
  // The sensor noise is drawn up front into `out`, in output order.
  Tensor out({1, 3, h, w});
  if (noise > 0.f) gaussian_fill(out.data(), out.numel(), noise, rng);
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < h; ++y)
      for (int xx = 0; xx < w; ++xx) {
        const int sy = std::clamp(y - t.dy, 0, h - 1);
        const int sx = std::clamp(xx - t.dx, 0, w - 1);
        float v = x.at(0, c, sy, sx) * t.gain + t.bias;
        float& o = out.at(0, c, y, xx);
        if (noise > 0.f) v += o;
        o = std::clamp(v, 0.f, 1.f);
      }
  return out;
}

/// Maps d(loss)/d(transformed image) back to d(loss)/d(original image):
/// inverse-translate and scale by the lighting gain.
Tensor pullback_gradient(const Tensor& g, const EnvTransform& t) {
  const int h = g.dim(2), w = g.dim(3);
  Tensor out({1, 3, h, w});
  for (int c = 0; c < 3; ++c)
    for (int y = 0; y < h; ++y)
      for (int xx = 0; xx < w; ++xx) {
        const int ty = y + t.dy, tx = xx + t.dx;
        if (ty < 0 || ty >= h || tx < 0 || tx >= w) continue;
        out.at(0, c, y, xx) = g.at(0, c, ty, tx) * t.gain;
      }
  return out;
}

}  // namespace

std::vector<Color> printable_palette() {
  return {
      {0.05f, 0.05f, 0.05f},  // black
      {0.95f, 0.95f, 0.95f},  // white
      {0.5f, 0.5f, 0.5f},     // gray
      {0.8f, 0.1f, 0.1f},     // red
      {0.1f, 0.6f, 0.2f},     // green
      {0.15f, 0.25f, 0.8f},   // blue
      {0.9f, 0.8f, 0.1f},     // yellow
      {0.85f, 0.45f, 0.1f},   // orange
  };
}

float nps_score(const Tensor& x_adv, const Tensor& mask,
                const std::vector<Color>& palette) {
  ADVP_CHECK(x_adv.rank() == 4 && x_adv.dim(0) == 1 && x_adv.dim(1) == 3);
  const int h = x_adv.dim(2), w = x_adv.dim(3);
  double acc = 0.0;
  int count = 0;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (!mask.empty() && mask.at(0, 0, y, x) == 0.f) continue;
      float best = 1e9f;
      for (const Color& c : palette) {
        const float dr = x_adv.at(0, 0, y, x) - c.r;
        const float dg = x_adv.at(0, 1, y, x) - c.g;
        const float db = x_adv.at(0, 2, y, x) - c.b;
        best = std::min(best, dr * dr + dg * dg + db * db);
      }
      acc += best;
      ++count;
    }
  return count == 0 ? 0.f : static_cast<float>(acc / count);
}

Rp2Result rp2(const Tensor& x, const Tensor& mask, const Rp2Params& params,
              const GradOracle& oracle, Rng& rng) {
  ADVP_CHECK_MSG(!mask.empty(), "rp2: a surface mask is required (eq. 6)");
  ADVP_CHECK(mask.same_shape(x));
  const auto palette = printable_palette();
  const int h = x.dim(2), w = x.dim(3);

  Tensor delta(x.shape());
  // Adam state for delta.
  Tensor m(x.shape()), v(x.shape());
  const float b1 = 0.9f, b2 = 0.999f, adam_eps = 1e-8f;

  int mask_pixels = 0;
  for (int y = 0; y < h; ++y)
    for (int xx = 0; xx < w; ++xx)
      if (mask.at(0, 0, y, xx) > 0.f) ++mask_pixels;
  const float inv_mask = mask_pixels > 0 ? 1.f / static_cast<float>(mask_pixels) : 0.f;

  float last_eot_loss = 0.f;
  for (int step = 0; step < params.steps; ++step) {
    Tensor x_adv = x;
    x_adv += delta;
    x_adv.clamp(0.f, 1.f);

    // Expectation over transforms: average ascent gradient.
    Tensor grad(x.shape());
    double eot_loss = 0.0;
    for (int t = 0; t < params.n_transforms; ++t) {
      EnvTransform tr;
      tr.dx = rng.uniform_int(-params.max_shift, params.max_shift);
      tr.dy = rng.uniform_int(-params.max_shift, params.max_shift);
      tr.gain = static_cast<float>(rng.uniform(params.gain_lo, params.gain_hi));
      tr.bias = static_cast<float>(rng.uniform(-0.03, 0.03));
      Tensor xt = apply_transform(x_adv, tr, params.noise_sigma, rng);
      LossGrad lg = oracle(xt);
      eot_loss += lg.loss;
      grad += pullback_gradient(lg.grad, tr);
    }
    grad *= 1.f / static_cast<float>(params.n_transforms);
    last_eot_loss = static_cast<float>(eot_loss / params.n_transforms);

    // - lambda * d/d(delta) of the mean ||M delta||^2 over masked pixels.
    {
      Tensor reg = delta;
      reg *= 2.f * params.lambda_reg * inv_mask;
      grad -= reg;
    }

    // - w_nps * d(NPS)/d(delta): squared distance to the nearest palette
    // color, differentiated through x_adv = clamp(x + delta).
    for (int y = 0; y < h; ++y)
      for (int xx = 0; xx < w; ++xx) {
        if (mask.at(0, 0, y, xx) == 0.f) continue;
        float best = 1e9f;
        const Color* nearest = nullptr;
        for (const Color& c : palette) {
          const float dr = x_adv.at(0, 0, y, xx) - c.r;
          const float dg = x_adv.at(0, 1, y, xx) - c.g;
          const float db = x_adv.at(0, 2, y, xx) - c.b;
          const float d2 = dr * dr + dg * dg + db * db;
          if (d2 < best) {
            best = d2;
            nearest = &c;
          }
        }
        const float scale = 2.f * params.nps_weight * inv_mask;
        grad.at(0, 0, y, xx) -= scale * (x_adv.at(0, 0, y, xx) - nearest->r);
        grad.at(0, 1, y, xx) -= scale * (x_adv.at(0, 1, y, xx) - nearest->g);
        grad.at(0, 2, y, xx) -= scale * (x_adv.at(0, 2, y, xx) - nearest->b);
      }

    apply_mask(grad, mask);

    // Adam ascent step on delta.
    const float bc1 = 1.f - std::pow(b1, static_cast<float>(step + 1));
    const float bc2 = 1.f - std::pow(b2, static_cast<float>(step + 1));
    for (std::size_t i = 0; i < delta.numel(); ++i) {
      m[i] = b1 * m[i] + (1.f - b1) * grad[i];
      v[i] = b2 * v[i] + (1.f - b2) * grad[i] * grad[i];
      delta[i] += params.lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + adam_eps);
    }
    delta.clamp(-params.delta_max, params.delta_max);
    apply_mask(delta, mask);
  }

  Rp2Result res;
  res.x_adv = x;
  res.x_adv += delta;
  res.x_adv.clamp(0.f, 1.f);
  res.final_objective = last_eot_loss;
  res.nps = nps_score(res.x_adv, mask, palette);
  return res;
}

}  // namespace advp::attacks

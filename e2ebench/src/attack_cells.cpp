// attack_cells: one op pushes a seeded input pair through one cell per
// paper table, with the harness's attack parameters —
//   DistNet frame:  Auto-PGD, FGSM, CAP masked to the lead-vehicle box
//                   (Table I), each then median-blurred (Table II);
//   TinyYolo scene: Auto-PGD and RP2, then SimBA followed by a DiffPIR
//                   restore (Fig. 2, Table V);
// every cell ending with its scoring forward. This is the loop behind
// every table: batch-1 eager forward+backward on fixed weights.
#include <cmath>
#include <memory>

#include "attacks/autopgd.h"
#include "attacks/cap.h"
#include "attacks/fgsm.h"
#include "attacks/rp2.h"
#include "attacks/simba.h"
#include "core/check.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "defenses/adv_train.h"
#include "defenses/diffusion.h"
#include "defenses/preprocess.h"
#include "eval/attack_metrics.h"
#include "eval/metrics.h"
#include "harness.h"
#include "models/zoo.h"

namespace e2e {
namespace {

using namespace advp;

constexpr double kOpsPerSecond = 2.4;  // sizes the fixed op list
constexpr int kMinOps = 20;            // op_p50_ms needs ten ops beyond it
constexpr int kWarmupOps = 2;
constexpr int kSetupReps = 5;
// Harness evaluation corpora: 40 frames per paper distance bin (the
// Table I sets) and the 60-scene sign test split.
constexpr int kFramesPerBin = 40;
constexpr int kSignScenes = 60;
constexpr float kTol = 1e-5f;

struct Setup {
  std::unique_ptr<models::DistNet> distnet;
  std::unique_ptr<models::TinyYolo> detector;
  std::unique_ptr<defenses::DiffusionDenoiser> denoiser;
  std::vector<data::DrivingFrame> frames;
  std::vector<data::SignScene> scenes;  // scenes with at least one sign
};

Setup set_up(const Options& opt, const ModelFiles& in) {
  Setup s;
  s.distnet = models::make_distnet_from_advp(in.distnet);
  s.detector = models::make_detector_from_advp(in.detector);
  ADVP_CHECK_MSG(s.distnet && s.detector, "attack_cells: .advp load failed");
  s.distnet->compile_plan(1);
  s.detector->compile_plan(1);
  Rng drng(Rng::stream_seed(opt.seed, 0xd1ff));
  s.denoiser = std::make_unique<defenses::DiffusionDenoiser>(
      s.detector->config().img_size, s.detector->config().img_size,
      defenses::DdpmConfig{}, drng);
  SpanScope corpus("setup.corpus");
  s.frames = data::make_driving_dataset_stratified(
                 kFramesPerBin, eval::paper_distance_bins(),
                 Rng::stream_seed(opt.seed, 1))
                 .frames;
  for (data::SignScene& sc :
       data::make_sign_dataset(kSignScenes, Rng::stream_seed(opt.seed, 2))
           .scenes)
    if (!sc.stop_signs.empty()) s.scenes.push_back(std::move(sc));
  ADVP_CHECK_MSG(!s.scenes.empty(), "attack_cells: no stop-sign scenes");
  return s;
}

// ---- oracles and scoring forwards (benchmark-owned, timed as spans) -------

attacks::GradOracle distance_oracle(models::DistNet& m, int& calls) {
  return [&m, &calls](const Tensor& x) {
    SpanScope span("model.fwd_bwd");
    ++calls;
    m.zero_grad();
    auto r = m.prediction_grad(x);
    return attacks::LossGrad{r.loss, std::move(r.grad)};
  };
}

attacks::GradOracle detection_oracle(models::TinyYolo& m,
                                     const std::vector<Box>& gt, int& calls) {
  return [&m, &gt, &calls](const Tensor& x) {
    SpanScope span("model.fwd_bwd");
    ++calls;
    m.zero_grad();
    auto r = m.loss_backward(x, {gt}, /*train=*/false);
    return attacks::LossGrad{r.loss, std::move(r.grad)};
  };
}

float predict(models::DistNet& m, const Tensor& x) {
  SpanScope span("model.forward");
  return m.predict(x)[0];
}

std::vector<models::Detection> detect(models::TinyYolo& m, const Tensor& x) {
  SpanScope span("model.forward");
  return m.detect(x)[0];
}

// ---- output checks ----------------------------------------------------------

class Checker {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && first_.empty()) first_ = what;
  }
  /// adv within the L-inf ball of radius eps around x inside `mask` (empty
  /// = whole image), equal to x outside it, and inside [0,1].
  void linf(const std::string& cell, const Tensor& x, const Tensor& adv,
            const Tensor& mask, float eps) {
    bool ok = adv.same_shape(x);
    for (std::size_t i = 0; ok && i < x.numel(); ++i) {
      const float d = std::fabs(adv[i] - x[i]);
      const bool inside = mask.empty() || mask[i] > 0.f;
      ok = std::isfinite(adv[i]) && adv[i] >= 0.f && adv[i] <= 1.f &&
           (inside ? d <= eps + kTol : adv[i] == x[i]);
    }
    expect(ok, cell + ": output outside the eps-ball or the mask");
  }
  void count(const std::string& cell, int got, int budget) {
    expect(got == budget, cell + ": " + std::to_string(got) +
                              " oracle calls, budget " +
                              std::to_string(budget));
  }
  const std::string& first() const { return first_; }

 private:
  std::string first_;
};

Tensor sign_mask(const data::SignScene& scene) {
  const int h = scene.image.height(), w = scene.image.width();
  Tensor mask({1, 3, h, w});
  for (const Box& b : scene.stop_signs) {
    const Tensor one = attacks::make_box_mask(h, w, b);
    for (std::size_t i = 0; i < mask.numel(); ++i)
      mask[i] = std::max(mask[i], one[i]);
  }
  return mask;
}

struct OpInput {
  std::size_t frame = 0, scene = 0;
};

/// One op: every cell on one (frame, scene) pair. Returns "" on success,
/// else the first failed check.
std::string run_op(Setup& s, const OpInput& in, std::uint64_t stream,
                   bool corrupt_reference) {
  Checker chk;
  const defenses::DrivingAttackParams dp;
  const defenses::SignAttackParams sp;
  Rng rng(stream);

  // Table I / II: the DistNet frame.
  const data::DrivingFrame& f = s.frames[in.frame];
  const Tensor x = f.image.to_batch();
  const Tensor box = attacks::make_box_mask(f.image.height(), f.image.width(),
                                            f.lead_box);
  models::DistNet& dn = *s.distnet;
  std::vector<Tensor> advs;
  {
    int calls = 0;
    attacks::AutoPgdParams p;
    p.eps = dp.apgd_eps;
    p.steps = dp.apgd_steps;
    attacks::AutoPgdResult r;
    {
      SpanScope span("attack.apgd_distnet");
      r = attacks::auto_pgd(x, p, distance_oracle(dn, calls), box);
    }
    chk.linf("apgd_distnet", x, r.x_adv, box, p.eps);
    chk.count("apgd_distnet", calls, p.steps + 1 + r.step_halvings);
    chk.expect(calls == r.oracle_calls, "apgd_distnet: reported calls differ");
    advs.push_back(std::move(r.x_adv));
  }
  {
    int calls = 0;
    Tensor adv;
    {
      SpanScope span("attack.fgsm_distnet");
      adv = attacks::fgsm(x, {dp.fgsm_eps}, distance_oracle(dn, calls), box);
    }
    chk.linf("fgsm_distnet", x, adv, box, dp.fgsm_eps);
    chk.count("fgsm_distnet", calls, 1);
    advs.push_back(std::move(adv));
  }
  {
    int calls = 0;
    attacks::CapParams p;
    p.steps_per_frame = dp.cap_warm_steps;
    attacks::CapAttack cap(p);
    Tensor adv;
    {
      SpanScope span("attack.cap_distnet");
      adv = cap.attack_frame(x, f.lead_box, distance_oracle(dn, calls));
    }
    chk.linf("cap_distnet", x, adv, box, p.eps);
    chk.count("cap_distnet", calls, p.steps_per_frame);
    advs.push_back(std::move(adv));
  }
  const defenses::MedianBlurDefense blur(3);
  const std::vector<float> clean_pred(advs.size(), predict(dn, x));
  std::vector<float> adv_pred, blur_pred;
  for (const Tensor& adv : advs) {
    adv_pred.push_back(predict(dn, adv));
    Image blurred;
    {
      SpanScope span("defense.median_blur");
      blurred = blur.apply(Image::from_batch(adv, 0));
    }
    chk.expect(blurred.width() == f.image.width() &&
                   blurred.height() == f.image.height(),
               "median_blur: wrong output size");
    blur_pred.push_back(predict(dn, blurred.to_batch()));
  }
  for (float v : adv_pred) chk.expect(std::isfinite(v), "distnet: non-finite");
  for (float v : blur_pred) chk.expect(std::isfinite(v), "distnet: non-finite");
  {
    SpanScope span("eval.score");
    eval::regression_attack_success_rate(clean_pred, adv_pred);
    eval::regression_attack_success_rate(clean_pred, blur_pred);
    for (const Tensor& adv : advs)
      eval::perturbation_stats(f.image, Image::from_batch(adv, 0));
  }

  // Fig. 2 / Table V: the TinyYolo scene.
  const data::SignScene& sc = s.scenes[in.scene];
  const Tensor xs = sc.image.to_batch();
  models::TinyYolo& det = *s.detector;
  std::vector<eval::AsrInput> asr;
  const std::vector<models::Detection> clean_dets = detect(det, xs);
  auto score_cell = [&](const Tensor& adv) {
    asr.push_back({sc.stop_signs, clean_dets, detect(det, adv)});
    for (const models::Detection& d : asr.back().adv_detections)
      chk.expect(d.score >= 0.f && d.score <= 1.f, "detector: bad score");
  };
  {
    int calls = 0;
    attacks::AutoPgdParams p;
    p.eps = sp.apgd_eps;
    p.steps = sp.apgd_steps;
    attacks::AutoPgdResult r;
    {
      SpanScope span("attack.apgd_detector");
      r = attacks::auto_pgd(xs, p,
                            detection_oracle(det, sc.stop_signs, calls));
    }
    chk.linf("apgd_detector", xs, r.x_adv, Tensor(), p.eps);
    chk.count("apgd_detector", calls, p.steps + 1 + r.step_halvings);
    chk.expect(calls == r.oracle_calls, "apgd_detector: reported calls differ");
    score_cell(r.x_adv);
  }
  {
    int calls = 0;
    attacks::Rp2Params p;
    p.steps = sp.rp2_steps;
    p.n_transforms = sp.rp2_transforms;
    p.delta_max = sp.rp2_delta_max;
    const Tensor mask = sign_mask(sc);
    attacks::Rp2Result r;
    {
      SpanScope span("attack.rp2_detector");
      r = attacks::rp2(xs, mask, p,
                       detection_oracle(det, sc.stop_signs, calls), rng);
    }
    chk.linf("rp2_detector", xs, r.x_adv, mask, p.delta_max);
    chk.count("rp2_detector", calls, p.steps * p.n_transforms);
    score_cell(r.x_adv);
  }
  {
    int queries = 0;
    attacks::SimbaParams p;
    p.eps = sp.simba_eps;
    p.max_queries = sp.simba_queries;
    auto score = [&det, &sc, &queries](const Tensor& xx) {
      SpanScope span("model.forward");
      ++queries;
      return det.objectness_score(xx, {sc.stop_signs});
    };
    attacks::SimbaResult r;
    {
      SpanScope span("attack.simba_detector");
      r = attacks::simba(xs, p, score, rng);
    }
    // Each accepted step moves x by eps along a unit basis vector and the
    // [0,1] clamp is non-expansive, so ||x_adv - x||_2 <= accepted * eps.
    Tensor delta = r.x_adv;
    delta -= xs;
    const float radius = static_cast<float>(r.accepted_directions) * p.eps;
    chk.expect(delta.norm() <= radius * (1.f + 1e-4f) + kTol &&
                   r.x_adv.min() >= 0.f && r.x_adv.max() <= 1.f,
               "simba_detector: perturbation outside the L2 ball");
    chk.expect(r.score_after <= r.score_before,
               "simba_detector: score rose");
    // The self-test's deliberately wrong reference: one query too many.
    const int budget = p.max_queries + (corrupt_reference ? 1 : 0);
    chk.count("simba_detector", queries, budget);
    chk.expect(queries == r.queries, "simba_detector: reported queries differ");
    score_cell(r.x_adv);
    Image restored;
    {
      SpanScope span("defense.diffpir");
      restored = s.denoiser->restore(Image::from_batch(r.x_adv, 0),
                                     defenses::DiffPirParams{}, rng);
    }
    const Tensor xr = restored.to_batch();
    chk.expect(xr.same_shape(xs) && xr.min() >= 0.f && xr.max() <= 1.f,
               "diffpir: restored image malformed");
    score_cell(xr);
  }
  {
    SpanScope span("eval.score");
    eval::detection_attack_success_rate(asr);
    std::vector<eval::DetectionRecord> records;
    for (const eval::AsrInput& a : asr)
      records.push_back({a.adv_detections, a.ground_truth});
    eval::evaluate_detections(records);
  }
  return chk.first();
}

}  // namespace

Result run_attack_cells(const Options& opt) {
  Result res;
  const ModelFiles in = write_models(opt, false);

  Setup s;
  std::vector<Span> setup_spans;
  const double setup_s = median_setup_s(
      opt, kSetupReps, [&] { s = Setup{}; }, [&] { s = set_up(opt, in); },
      &setup_spans);

  const int n_ops = std::max(
      kMinOps, static_cast<int>(std::lround(opt.seconds * kOpsPerSecond)));
  std::vector<OpInput> ops(static_cast<std::size_t>(kWarmupOps + n_ops));
  Rng pick(Rng::stream_seed(opt.seed, 3));
  for (OpInput& o : ops) {
    o.frame = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<int>(s.frames.size()) - 1));
    o.scene = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<int>(s.scenes.size()) - 1));
  }
  for (int k = 0; k < kWarmupOps; ++k)
    run_op(s, ops[static_cast<std::size_t>(k)],
           Rng::stream_seed(opt.seed, 1000 + static_cast<std::uint64_t>(k)),
           false);

  auto op = [&](int k) {
    const std::size_t idx = static_cast<std::size_t>(kWarmupOps + k);
    return run_op(s, ops[idx], Rng::stream_seed(opt.seed, 1000 + idx),
                  opt.fault && k == 0);
  };
  const double steal0 = host_steal_s();
  const ClosedLoopPass pass = run_closed_loop(n_ops, op, &res);
  const double steal_s = host_steal_s() - steal0;
  const double rss_mb = peak_rss_mb();
  const double items_per_s = pass.items_per_s(1.0);
  res.info.push_back("attack_cells: " + std::to_string(n_ops) +
                     " ops after " + std::to_string(kWarmupOps) +
                     " warm-up ops; one item per op; host steal " +
                     std::to_string(steal_s) + " s");

  add_headline(res, opt,
               {items_per_s, pass.op_p50_ms(), pass.cpu_s * 1e3 / n_ops, setup_s, rss_mb});
  if (!opt.trace) return res;

  // Traced pass over the same ops (library obs + benchmark spans on).
  ClosedLoopPass traced;
  const TracedPhase t = run_traced([&] {
    traced = run_closed_loop(n_ops, op, nullptr);
    return traced.wall_s();
  });
  add_counter_metrics(res, n_ops, t.seconds);
  add_span_metrics(res, t.spans, n_ops);
  add_setup_metrics(res, setup_spans, 0.0);
  res.add_layer("trace.items_per_s_ratio", traced.items_per_s(1.0) / items_per_s,
                "ratio");
  return res;
}

}  // namespace e2e

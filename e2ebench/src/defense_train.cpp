// defense_train: set-up generates FGSM and Auto-PGD sets for both tasks
// with make_adversarial_*_dataset; one op is one epoch each of
// adversarial_train_distnet, adversarial_train_detector (batch 16, Adam,
// clean plus adversarial data) and contrastive_pretrain. One item is one
// training example. The same conv/GEMM layers as attack_cells, but at
// batch 16, with weight-gradient GEMMs, and with weights rewritten every
// step — the write path beside attack_cells' read path.
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/check.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "defenses/adv_train.h"
#include "defenses/contrastive.h"
#include "harness.h"
#include "models/zoo.h"
#include "nn/serialize.h"

namespace e2e {
namespace {

using namespace advp;

constexpr double kOpsPerSecond = 2.0;  // sizes the fixed op list
constexpr int kMinOps = 20;            // op_p50_ms needs ten ops beyond it
constexpr int kWarmupOps = 1;
constexpr int kSetupReps = 3;
constexpr int kCleanItems = 16;  // clean examples per task
constexpr int kBatch = 16;

struct Setup {
  std::unique_ptr<models::DistNet> distnet;
  std::unique_ptr<models::TinyYolo> detector;
  data::DrivingDataset clean_frames, adv_frames;
  data::SignDataset clean_scenes, adv_scenes;
  std::vector<Image> contrastive_images;
};

std::unique_ptr<models::DistNet> load_distnet(const ModelFiles& in) {
  auto m = models::make_distnet_from_advp(in.distnet);
  ADVP_CHECK_MSG(m, "defense_train: distnet .advp load failed");
  return m;
}

std::unique_ptr<models::TinyYolo> load_detector(const ModelFiles& in) {
  auto m = models::make_detector_from_advp(in.detector);
  ADVP_CHECK_MSG(m, "defense_train: detector .advp load failed");
  return m;
}

/// Adversarial items generated per set-up: FGSM + Auto-PGD for each task.
constexpr double kAdvgenItems = 4.0 * kCleanItems;

Setup set_up(const Options& opt, const ModelFiles& in) {
  Setup s;
  s.distnet = load_distnet(in);
  s.detector = load_detector(in);
  {
    SpanScope span("setup.corpus");
    s.clean_frames =
        data::make_driving_dataset(kCleanItems, Rng::stream_seed(opt.seed, 1));
    s.clean_scenes =
        data::make_sign_dataset(kCleanItems, Rng::stream_seed(opt.seed, 2));
  }
  using defenses::AttackKind;
  for (const AttackKind kind : {AttackKind::kFgsm, AttackKind::kAutoPgd}) {
    const std::uint64_t gen_seed =
        Rng::stream_seed(opt.seed, 10 + static_cast<std::uint64_t>(kind));
    data::DrivingDataset frames;
    {
      SpanScope span("setup.advgen.driving");
      frames = defenses::make_adversarial_driving_dataset(
          s.clean_frames, kind, *s.distnet, gen_seed);
    }
    s.adv_frames.frames.insert(s.adv_frames.frames.end(),
                               frames.frames.begin(), frames.frames.end());
    data::SignDataset scenes;
    {
      SpanScope span("setup.advgen.sign");
      scenes = defenses::make_adversarial_sign_dataset(
          s.clean_scenes, kind, *s.detector, gen_seed);
    }
    s.adv_scenes.scenes.insert(s.adv_scenes.scenes.end(),
                               scenes.scenes.begin(), scenes.scenes.end());
  }
  for (const data::SignScene& sc : s.clean_scenes.scenes)
    s.contrastive_images.push_back(sc.image);
  return s;
}

/// `s`'s training data on freshly loaded base weights.
Setup fresh_copy(const Setup& s, const ModelFiles& in) {
  Setup c;
  c.distnet = load_distnet(in);
  c.detector = load_detector(in);
  c.clean_frames = s.clean_frames;
  c.adv_frames = s.adv_frames;
  c.clean_scenes = s.clean_scenes;
  c.adv_scenes = s.adv_scenes;
  c.contrastive_images = s.contrastive_images;
  return c;
}

/// Training examples one op consumes.
double items_per_op(const Setup& s) {
  return static_cast<double>(s.clean_frames.size() + s.adv_frames.size() +
                             s.clean_scenes.size() + s.adv_scenes.size() +
                             s.contrastive_images.size());
}

bool all_finite(const std::vector<nn::Param*>& params) {
  for (const nn::Param* p : params)
    for (std::size_t i = 0; i < p->value.numel(); ++i)
      if (!std::isfinite(p->value[i])) return false;
  return true;
}

/// .advp content hash of both trained models (param_fingerprint is the
/// container's content-hash algorithm), folded into one value.
std::uint64_t trained_hash(Setup& s) {
  return nn::param_fingerprint(s.distnet->params()) * 0x100000001b3ULL ^
         nn::param_fingerprint(s.detector->params());
}

/// One op: one epoch of each trainer. Returns "" or the failed check.
std::string run_op(Setup& s, int op) {
  models::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = kBatch;
  cfg.seed = 100 + static_cast<std::uint64_t>(op);
  {
    SpanScope span("defense.adv_train_distnet");
    defenses::adversarial_train_distnet(*s.distnet, s.adv_frames, cfg,
                                        &s.clean_frames);
  }
  {
    SpanScope span("defense.adv_train_detector");
    defenses::adversarial_train_detector(*s.detector, s.adv_scenes, cfg,
                                         &s.clean_scenes);
  }
  defenses::ContrastiveConfig ccfg;
  ccfg.epochs = 1;
  ccfg.seed = 200 + static_cast<std::uint64_t>(op);
  float loss = 0.f;
  {
    SpanScope span("defense.contrastive");
    loss = defenses::contrastive_pretrain(*s.detector, s.contrastive_images,
                                          ccfg);
  }
  if (!std::isfinite(loss)) return "contrastive loss is not finite";
  if (!all_finite(s.distnet->params()) || !all_finite(s.detector->params()))
    return "trained weights are not finite";
  return "";
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

Result run_defense_train(const Options& opt) {
  Result res;
  const ModelFiles in = write_models(opt, false);

  Setup s;
  std::vector<Span> setup_spans;
  const double setup_s = median_setup_s(
      opt, kSetupReps, [&] { s = Setup{}; }, [&] { s = set_up(opt, in); },
      &setup_spans);
  const double items = items_per_op(s);

  const int n_ops = std::max(
      kMinOps, static_cast<int>(std::lround(opt.seconds * kOpsPerSecond)));
  // Warm-up epochs run on a throwaway copy so the measured ops always start
  // from the loaded weights (the determinism check replays op 0).
  {
    Setup warm = fresh_copy(s, in);
    for (int k = 0; k < kWarmupOps; ++k) run_op(warm, -1 - k);
  }

  std::uint64_t hash_after_op0 = 0;
  auto op = [&](int k) {
    std::string err = run_op(s, k);
    if (k == 0) hash_after_op0 = trained_hash(s);
    return err;
  };
  const double steal0 = host_steal_s();
  const ClosedLoopPass pass = run_closed_loop(n_ops, op, &res);
  const double steal_s = host_steal_s() - steal0;
  const double rss_mb = peak_rss_mb();
  const double items_per_s = pass.items_per_s(items);
  const std::uint64_t final_hash = trained_hash(s);

  // Determinism: op 0 replayed on freshly loaded weights must reproduce the
  // hash the measured run saw; the final hash must match earlier runs of
  // the same seed and op count (recorded under the state directory).
  {
    Setup replay = fresh_copy(s, in);
    run_op(replay, 0);
    const std::uint64_t expect = hash_after_op0 ^ (opt.fault ? 1 : 0);
    if (trained_hash(replay) != expect)
      res.fail_run("op 0 replay hash " + hex(trained_hash(replay)) +
                   " != measured " + hex(expect));
  }
  const std::string record = opt.state_dir + "/defense_train-seed" +
                             std::to_string(opt.seed) + "-ops" +
                             std::to_string(n_ops) + ".hash";
  std::ifstream prev(record);
  std::string prev_hash;
  if (prev >> prev_hash) {
    if (prev_hash != hex(final_hash))
      res.fail_run("trained-weight hash " + hex(final_hash) +
                   " != earlier run's " + prev_hash);
  } else {
    std::ofstream(record) << hex(final_hash) << "\n";
  }
  res.info.push_back("defense_train: " + std::to_string(n_ops) +
                     " ops (one epoch of each trainer) after " +
                     std::to_string(kWarmupOps) + " warm-up op; " +
                     std::to_string(static_cast<int>(items)) +
                     " training examples per op; trained-weight hash " +
                     hex(final_hash) + "; host steal " +
                     std::to_string(steal_s) + " s");

  add_headline(res, opt,
               {items_per_s, pass.op_p50_ms(), pass.cpu_s * 1e3 / (n_ops * items), setup_s, rss_mb});
  if (!opt.trace) return res;

  ClosedLoopPass traced;
  const TracedPhase t = run_traced([&] {
    traced = run_closed_loop(n_ops, [&](int k) { return run_op(s, k); },
                             nullptr);
    return traced.wall_s();
  });
  add_counter_metrics(res, n_ops, t.seconds);
  add_span_metrics(res, t.spans, n_ops);
  add_setup_metrics(res, setup_spans, kAdvgenItems);
  res.add_layer("trace.items_per_s_ratio",
                traced.items_per_s(items) / items_per_s, "ratio");
  return res;
}

}  // namespace e2e

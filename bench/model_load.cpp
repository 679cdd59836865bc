// Cold-vs-warm model load: what the `.advp` container's pre-packed panels
// buy on the first inference after a load.
//
// For each tier (fp32 | int8) the bench loads the same artifact
// into two fresh models:
//  - cold: load_advp with adoption off (raw weights + calibration only) —
//    the first forward packs/quantizes every weight operand lazily;
//  - warm: load_advp with adoption on — the file's panels back the cache
//    slots, so the first forward does zero weight pack work.
//
// Emits a JSON object on stdout, gated by tools/check_load_perf.py on
// machine-independent invariants only (byte counts and hit/miss counters
// are deterministic; times are reported but never gated):
//
//   {"model": "tiny_yolo", "advp_bytes": ..., "legacy_load_ms": ...,
//    "advp_load_ms": ..., "tiers": [
//      {"name": "fp32", "adopted": true, "identical": true,
//       "cold_first_pack_bytes": ..., "cold_pack_misses": ...,
//       "warm_first_pack_bytes": ..., "warm_pack_misses": 0,
//       "warm_pack_hits": ..., "steady_pack_bytes": ...,
//       "cold_first_ms": ..., "warm_first_ms": ..., "warm_load_ms": ...},
//      ...]}
//
// The load-is-warm invariant: warm_first_pack_bytes equals
// steady_pack_bytes (the residual is per-call activation staging, which no
// cache can remove), while cold_first_pack_bytes exceeds it by the weight
// panels. `identical` asserts the warm forward is bit-identical to the
// cold one — adoption changes warm-up cost, never results.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/check.h"
#include "models/zoo.h"
#include "nn/serialize.h"

namespace {

using namespace advp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::uint64_t pack_bytes() {
  return obs::counter_value(obs::Counter::kGemmPackBytes);
}
std::uint64_t pack_hits() {
  return obs::counter_value(obs::Counter::kPackCacheHits);
}
std::uint64_t pack_misses() {
  return obs::counter_value(obs::Counter::kPackCacheMisses);
}

struct TierReport {
  std::string name;
  bool adopted = false;
  bool identical = false;
  std::uint64_t cold_first_pack_bytes = 0;
  std::uint64_t cold_pack_misses = 0;
  std::uint64_t warm_first_pack_bytes = 0;
  std::uint64_t warm_pack_misses = 0;
  std::uint64_t warm_pack_hits = 0;
  std::uint64_t steady_pack_bytes = 0;
  double cold_first_ms = 0.0;
  double warm_first_ms = 0.0;
  double warm_load_ms = 0.0;
};

TierReport run_tier(GemmPrecision tier, const char* name,
                    const models::TinyYoloConfig& cfg,
                    const std::string& advp_path, const Tensor& frame) {
  TierReport rep;
  rep.name = name;
  nn::ThreadPrecisionScope tier_scope(tier);
  nn::InferenceModeScope inference;

  // Cold: same file, adoption off — first forward packs lazily.
  Rng rng_cold(0);
  models::TinyYolo cold(cfg, rng_cold);
  nn::AdvpLoadOptions cold_opts;
  cold_opts.adopt_packed = false;
  const auto cold_load = models::load_detector_advp(cold, advp_path, cold_opts);
  ADVP_CHECK_MSG(cold_load.ok(), "model_load: cold load failed: "
                                     << cold_load.error);
  std::uint64_t b0 = pack_bytes(), m0 = pack_misses();
  auto t0 = Clock::now();
  const Tensor cold_out = cold.forward_raw(frame, /*train=*/false);
  rep.cold_first_ms = ms_since(t0);
  rep.cold_first_pack_bytes = pack_bytes() - b0;
  rep.cold_pack_misses = pack_misses() - m0;

  // Steady state: everything cached; residual bytes = activation staging.
  b0 = pack_bytes();
  (void)cold.forward_raw(frame, /*train=*/false);
  rep.steady_pack_bytes = pack_bytes() - b0;

  // Warm: adoption on — first forward must match the steady state. A warm
  // start is load-and-serve, so the load window also compiles the exec
  // plan: its warm-up execute re-validates the adopted slots (hits, no
  // repacking) and leaves the first request with nothing but per-call
  // activation staging. The cold instance keeps the lazy compile inside
  // its measured first forward — that is the cost being contrasted.
  Rng rng_warm(0);
  models::TinyYolo warm(cfg, rng_warm);
  nn::AdvpLoadOptions warm_opts;
  warm_opts.adopt_tier = static_cast<int>(tier);
  t0 = Clock::now();
  const auto warm_load = models::load_detector_advp(warm, advp_path, warm_opts);
  ADVP_CHECK_MSG(warm_load.ok(), "model_load: warm load failed: "
                                     << warm_load.error);
  warm.compile_plan(static_cast<int>(frame.dim(0)));
  rep.warm_load_ms = ms_since(t0);
  rep.adopted = warm_load.packed_adopted;
  b0 = pack_bytes();
  m0 = pack_misses();
  std::uint64_t h0 = pack_hits();
  t0 = Clock::now();
  const Tensor warm_out = warm.forward_raw(frame, /*train=*/false);
  rep.warm_first_ms = ms_since(t0);
  rep.warm_first_pack_bytes = pack_bytes() - b0;
  rep.warm_pack_misses = pack_misses() - m0;
  rep.warm_pack_hits = pack_hits() - h0;

  rep.identical =
      cold_out.numel() == warm_out.numel() &&
      std::memcmp(cold_out.data(), warm_out.data(),
                  cold_out.numel() * sizeof(float)) == 0;
  return rep;
}

}  // namespace

int main() {
  bench::BenchRun run("model_load");

  // A default-geometry detector with deterministic weights + calibration
  // (int8 requires recorded ranges for batch-independent activation
  // scales).
  models::TinyYoloConfig cfg;
  Rng rng(42);
  models::TinyYolo model(cfg, rng);
  Rng data_rng(43);
  std::vector<Tensor> calib;
  for (int b = 0; b < 2; ++b)
    calib.push_back(
        Tensor::rand({1, 3, cfg.img_size, cfg.img_size}, data_rng, 0.f, 1.f));
  model.calibrate(calib);

  const std::string advp_path = bench::out_path("model_load.advp");
  const std::string bin_path = bench::out_path("model_load.bin");
  save_detector_advp(model, advp_path);
  nn::save_params_file(model.params(), bin_path);

  nn::AdvpInfo info;
  ADVP_CHECK(nn::read_advp_info(advp_path, &info).ok());

  // Load-time comparison (reported, not gated: file-system dependent).
  Rng rng_legacy(0);
  models::TinyYolo legacy(cfg, rng_legacy);
  auto t0 = Clock::now();
  ADVP_CHECK(nn::load_params_file(legacy.params(), bin_path));
  const double legacy_load_ms = ms_since(t0);
  Rng rng_advp(0);
  models::TinyYolo fresh(cfg, rng_advp);
  t0 = Clock::now();
  ADVP_CHECK(models::load_detector_advp(fresh, advp_path).ok());
  const double advp_load_ms = ms_since(t0);

  const Tensor frame =
      Tensor::rand({1, 3, cfg.img_size, cfg.img_size}, data_rng, 0.f, 1.f);

  std::vector<TierReport> tiers;
  tiers.push_back(run_tier(GemmPrecision::kFp32, "fp32", cfg, advp_path, frame));
  tiers.push_back(run_tier(GemmPrecision::kInt8, "int8", cfg, advp_path, frame));

  std::printf("{\"model\": \"tiny_yolo\", \"advp_bytes\": %llu, "
              "\"legacy_load_ms\": %.3f, \"advp_load_ms\": %.3f,\n"
              " \"tiers\": [\n",
              static_cast<unsigned long long>(info.file_bytes),
              legacy_load_ms, advp_load_ms);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierReport& r = tiers[i];
    std::printf(
        "  {\"name\": \"%s\", \"adopted\": %s, \"identical\": %s, "
        "\"cold_first_pack_bytes\": %llu, \"cold_pack_misses\": %llu, "
        "\"warm_first_pack_bytes\": %llu, \"warm_pack_misses\": %llu, "
        "\"warm_pack_hits\": %llu, \"steady_pack_bytes\": %llu, "
        "\"cold_first_ms\": %.3f, \"warm_first_ms\": %.3f, "
        "\"warm_load_ms\": %.3f}%s\n",
        r.name.c_str(), r.adopted ? "true" : "false",
        r.identical ? "true" : "false",
        static_cast<unsigned long long>(r.cold_first_pack_bytes),
        static_cast<unsigned long long>(r.cold_pack_misses),
        static_cast<unsigned long long>(r.warm_first_pack_bytes),
        static_cast<unsigned long long>(r.warm_pack_misses),
        static_cast<unsigned long long>(r.warm_pack_hits),
        static_cast<unsigned long long>(r.steady_pack_bytes),
        r.cold_first_ms, r.warm_first_ms, r.warm_load_ms,
        i + 1 < tiers.size() ? "," : "");
  }
  std::printf(" ]}\n");

  run.manifest().set("advp_bytes", info.file_bytes);
  run.manifest().set("mapped_bytes",
                     static_cast<std::uint64_t>(nn::advp_mapped_bytes()));
  return 0;
}

// Observability layer: phase tracing, kernel counters, and run manifests.
//
// The layer is opt-in and zero-overhead when disabled: every macro below
// first performs one relaxed atomic load (`obs::enabled()`), and
// `ScopedTimer` constructed while tracing is off records nothing. Nothing
// here touches RNG state or numeric results, so the library's determinism
// contract (bit-identical results for any ADVP_THREADS) is unaffected by
// tracing being on or off.
//
// Three primitives:
//  - ScopedTimer — RAII span. Spans nest via a thread-local path stack, so
//    a timer named "inference" opened inside a timer named
//    "evaluate_sign_task" aggregates under "evaluate_sign_task/inference".
//    Aggregation (call count, total/min/max wall time) is keyed by that
//    path in a process-wide registry shared by all threads.
//  - Counter — a small fixed set of monotonic counters (kernel FLOPs,
//    images processed, attack iterations, cache hits/misses, pool
//    dispatch statistics), each a relaxed atomic.
//  - RunManifest — serializes the whole registry (span tree, counters,
//    caller-supplied config echo, git/thread metadata) as pretty-printed
//    JSON; the bench binaries write one `<name>.manifest.json` per run.
//
// Control:
//  - `ADVP_TRACE=0` force-disables tracing (obs::enable() becomes a no-op);
//  - `ADVP_TRACE=1` enables tracing from process start;
//  - `ADVP_TRACE=<path>` enables tracing and redirects manifest output to
//    `<path>` (a directory, or an exact file when it ends in ".json");
//  - unset: tracing starts disabled and can be turned on with
//    `obs::enable()` (the bench binaries do exactly that).
//
// Defining ADVP_OBS_DISABLED at compile time turns the macros into
// no-ops entirely (the obs symbols stay available for manifest writing).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace advp::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// @brief True while tracing is active. One relaxed atomic load — cheap
/// enough for hot kernels to check per call.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// @brief Turns tracing on or off at runtime.
/// @param on Desired state. Ignored (stays off) when ADVP_TRACE=0 — the
///   environment force-off wins over programmatic enablement.
void enable(bool on = true);

/// @brief True when ADVP_TRACE=0 force-disabled tracing for this process.
bool trace_disabled();

/// @brief Output override from ADVP_TRACE=&lt;path&gt;; empty when ADVP_TRACE
/// is unset, "0", or "1".
std::string trace_path();

/// @brief Clears all recorded spans and counters (test isolation).
void reset();

// ---- counters --------------------------------------------------------------

/// Monotonic process-wide counters. Kept as a fixed enum (not a string
/// registry) so bumping one is a single relaxed atomic add.
enum class Counter : int {
  kMatmulFlops = 0,     ///< 2*m*k*n per matmul (includes conv's im2col GEMMs)
  kConv2dFlops,         ///< MACs*2 of conv2d forward/backward kernels
  kImagesProcessed,     ///< images pushed through evaluation / attack loops
  kAttackIterations,    ///< white-box oracle invocations (fwd+bwd pairs)
  kCacheHits,           ///< model weight-cache hits (models::cached_weights)
  kCacheMisses,         ///< model weight-cache misses (training ran)
  kTrainEpochs,         ///< completed training epochs, any trainer
  kParallelDispatches,  ///< multi-worker parallel_for dispatches
  kParallelChunks,      ///< chunks scheduled across those dispatches
  kParallelWorkers,     ///< sum of participants per dispatch (utilization)
  kGemmPackBytes,       ///< bytes staged into packed GEMM A/B panels
  kScratchHits,         ///< scratch-arena allocations served without heap
  kScratchGrows,        ///< scratch-arena heap growth/coalesce events
  kPackCacheHits,       ///< GEMM operand packs reused from a cache slot
  kPackCacheMisses,     ///< GEMM cache slots (re)packed from source
  kServeRequests,       ///< requests enqueued into a serve::BatchServer
  kServeBatches,        ///< batched forwards executed by serve workers
  kServeBatchItems,     ///< requests coalesced into those forwards
  kPlanCompiles,        ///< execution plans compiled (nn::ExecPlan)
  kPlanCacheHits,       ///< forwards served by an already-compiled plan
  kPlanSteadyAllocs,    ///< heap growth events observed during warm
                        ///< plan execution (target: stays 0)
  kPlanArenaBytes,      ///< bytes pre-allocated into plan buffer arenas
  kSimSteps,            ///< ACC control steps simulated (any path)
  kSimScenarios,        ///< ACC scenarios completed (any path)
  kCampaignBatchItems,  ///< frames stacked into lockstep batched predicts
  kCampaignCohortRefills,  ///< finished lockstep lanes refilled in place
  kIm2colBytesStaged,   ///< bytes materialized by staged im2col lowering
                        ///< (no conv pass stages one, so it reads 0)
  kCount
};

/// @brief Stable snake_case name for a counter (manifest JSON key).
const char* counter_name(Counter c);

/// @brief Adds `n` to counter `c`. Call sites should guard with
/// `obs::enabled()` (or use ADVP_OBS_COUNT) so the disabled path costs one
/// predictable branch.
void counter_add(Counter c, std::uint64_t n = 1);

/// @brief Current value of counter `c`.
std::uint64_t counter_value(Counter c);

// ---- model artifacts -------------------------------------------------------

/// One model file observed by the serialization layer (loaded or saved)
/// while tracing was enabled. Manifests carry these under "models" so a
/// run records exactly which weight artifacts produced its numbers.
struct ModelArtifact {
  std::string path;                  ///< file path as passed by the caller
  std::uint32_t format_version = 0;  ///< 0 = legacy .bin, >=1 = .advp
  std::uint64_t content_hash = 0;    ///< FNV-1a over fp32 parameter bytes
  bool packed_adopted = false;       ///< packed panels adopted on load
};

/// @brief Records a model artifact observation. Deduplicated by
/// (path, content_hash): re-loading the same file updates the existing
/// entry (packed_adopted ORs in) instead of appending. Call sites guard
/// with obs::enabled(); recording while disabled is a no-op.
void record_model_artifact(ModelArtifact artifact);

/// @brief Snapshot of recorded artifacts, in first-observation order.
std::vector<ModelArtifact> model_artifacts();

// ---- compiled execution plans ----------------------------------------------

/// One execution plan compiled by nn::ExecPlan while tracing was enabled.
/// Manifests carry these under "plans" so a run records which models were
/// served from compiled plans, at what shapes/tiers, and which GEMM shapes
/// each plan runs.
struct PlanRecord {
  std::string model;        ///< caller label, e.g. "tiny_yolo"
  std::string input_shape;  ///< "NxCxHxW" of the compiled input
  std::string tier;         ///< "fp32" / "int8"
  std::uint64_t arena_bytes = 0;  ///< pre-allocated intermediate bytes
  /// Planned GEMM shapes, "mxkxn" per GEMM, ';'-joined.
  std::string geometry;
};

/// @brief Records a compiled plan. Deduplicated by (model, input_shape,
/// tier): recompiles update the existing entry. Call sites guard with
/// obs::enabled(); recording while disabled is a no-op.
void record_plan(PlanRecord record);

/// @brief Snapshot of recorded plans, in first-observation order.
std::vector<PlanRecord> plan_records();

// ---- scenario campaigns ----------------------------------------------------

/// One campaign execution (sim/campaign.h) recorded while tracing was
/// enabled. Manifests carry these under "campaigns" so a run records the
/// matrix it swept, how it was sharded, and the throughput achieved.
struct CampaignRecord {
  std::string matrix;            ///< regime-grid dims, e.g. "styles=3x traj=5"
  std::uint64_t scenarios = 0;   ///< scenarios completed
  std::uint64_t shards = 0;      ///< shard processes (0 = single-process)
  std::uint64_t cohort = 0;      ///< lockstep cohort size
  std::uint64_t workers = 0;     ///< worker threads per process
  double scenarios_per_s = 0.0;  ///< end-to-end campaign throughput
};

/// @brief Records a campaign execution (append-only; every run is a
/// distinct record). Call sites guard with obs::enabled().
void record_campaign(CampaignRecord record);

/// @brief Snapshot of recorded campaigns, in execution order.
std::vector<CampaignRecord> campaign_records();

// ---- spans -----------------------------------------------------------------

/// @brief RAII wall-clock span; nests via a thread-local path stack.
///
/// Constructing while tracing is disabled records nothing (and the
/// destructor is a single branch). Span aggregation is keyed by the
/// '/'-joined path of enclosing spans on the *same thread*; spans are not
/// meant to be opened inside parallel_for bodies (workers carry their own
/// empty path stacks).
class ScopedTimer {
 public:
  /// @param name Path segment for this span; must not contain '/'.
  explicit ScopedTimer(const char* name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  bool active_ = false;
  std::size_t parent_len_ = 0;  // tl path length to restore on close
  std::uint64_t start_ns_ = 0;
};

/// Aggregated statistics for one span path.
struct SpanStats {
  std::string path;  ///< e.g. "evaluate_sign_task/inference"
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

/// @brief Snapshot of every recorded span, sorted by path.
std::vector<SpanStats> span_snapshot();

// ---- run manifest ----------------------------------------------------------

/// @brief Machine-readable record of one run: config echo plus a snapshot
/// of spans, counters, and environment metadata, serialized as JSON.
///
/// The snapshot is taken at to_json()/write() time, so build the manifest
/// up front, run the workload, then write.
class RunManifest {
 public:
  /// @param name Run name; becomes the manifest's "name" field and the
  ///   default output stem ("<name>.manifest.json").
  explicit RunManifest(std::string name);

  /// @brief Echoes a string config value under "config".
  void set(const std::string& key, const std::string& value);
  /// @brief Echoes an integer config value under "config".
  void set(const std::string& key, std::uint64_t value);
  /// @brief Echoes a floating-point config value under "config".
  void set(const std::string& key, double value);

  /// @brief Serializes name, config echo, thread/git metadata, counters,
  /// and the span tree as pretty-printed JSON.
  std::string to_json() const;

  /// @brief Writes to_json() to `filename` resolved against the
  /// ADVP_TRACE path override (directory or exact-file form).
  /// @return The path written, or "" when the file could not be opened.
  std::string write(const std::string& filename) const;

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  // Pre-rendered JSON values (strings arrive escaped+quoted, numbers raw)
  // in insertion order.
  std::vector<std::pair<std::string, std::string>> config_;
};

/// @brief JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s);

}  // namespace advp::obs

// Convenience macros; compile to nothing under ADVP_OBS_DISABLED.
#ifndef ADVP_OBS_DISABLED
#define ADVP_OBS_CONCAT2(a, b) a##b
#define ADVP_OBS_CONCAT(a, b) ADVP_OBS_CONCAT2(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define ADVP_OBS_SPAN(name) \
  ::advp::obs::ScopedTimer ADVP_OBS_CONCAT(advp_obs_span_, __LINE__)(name)
/// Adds `n` to counter `c` when tracing is enabled.
#define ADVP_OBS_COUNT(c, n)                                \
  do {                                                      \
    if (::advp::obs::enabled())                             \
      ::advp::obs::counter_add(::advp::obs::Counter::c, n); \
  } while (0)
#else
#define ADVP_OBS_SPAN(name) ((void)0)
#define ADVP_OBS_COUNT(c, n) ((void)0)
#endif

// Execution-plan compiler: compile a layer list once, execute many times.
//
// `Sequential::forward_fused` re-discovers the Conv[+BN][+act] fusion
// structure with dynamic_cast chains on every call, allocates (and
// zero-fills) a fresh intermediate Tensor per layer, and runs every GEMM
// with the build's one global blocking geometry. ExecPlan moves all of
// that to compile time. Compiling a model for one (input shape, precision
// tier) runs four passes:
//
//  1. Shape inference over the layer list — every intermediate's geometry
//     is known before the first real forward.
//  2. Fusion — the Conv2d[+BatchNorm2d][+ReLU|SiLU] and Linear[+ReLU]
//     grouping forward_fused pattern-matches per call is resolved once
//     into a flat op list; eval-BN folds into the conv GEMM epilogue.
//  3. Buffer schedule — the op chain is single-input/single-output, so
//     liveness analysis degenerates to two ping-pong arena slots (plus
//     the plan-owned output tensor), pre-allocated at compile time.
//     On Linux the slots get pages of their own, off the malloc heap. A
//     plan that fits the slots of a larger plan of the same PlanCache
//     runs on those, so a model compiled for its largest batch allocates
//     no activation memory for the smaller ones.
//     Reshapes (Flatten) and eval-mode Dropout are aliases: zero copies,
//     zero ops. Steady-state execution performs zero heap allocations —
//     asserted through the plan_steady_allocs obs counter, not by eye.
//  4. GEMM blocking autotune — each planned GEMM shape times a small
//     candidate set of Mc/Kc/Nc overrides and keeps the fastest
//     (process-wide cache keyed by shape+tier, so recompiles and sibling
//     tenants pay nothing). The kernel's k-order contract makes every
//     candidate bit-identical, so timing noise can only cost speed,
//     never correctness. ADVP_TUNE=0 pins the build defaults.
//
// Execution is bit-identical to forward_fused (which stays as the
// fallback for unsupported layers and as the bit-identity oracle in
// tests), which is itself bit-identical to the eager child-by-child walk.
// Per-item conv GEMMs write straight into the scheduled output buffer
// (fused epilogue applied), skipping forward_fused's wide-GEMM scatter
// copy; items fan out across the worker pool with each item's GEMM
// running serially inside the region, so any worker count produces the
// same bits.
//
// Invalidation mirrors GemmCacheSlot: a plan records the weight
// generation at compile time and PlanCache recompiles (cheaply — the
// autotune cache is warm) after any optimizer step, parameter load, or
// `.advp` adoption. Precision changes select a different cache entry
// outright, since the tier is part of the plan key.
//
// ADVP_PLAN=0 is the kill-switch: PlanCache hands out no plans and every
// forward takes the uncompiled path.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace advp::nn {

namespace plan_detail {
/// @brief Test/bench hook overriding the ADVP_PLAN environment default:
/// 0 forces plans off, 1 forces them on, -1 restores the env.
void force_plan(int mode);
/// @brief Test/bench hook overriding the ADVP_TUNE environment default:
/// 0 pins the build's default blocking, 1 forces autotuning, -1 restores
/// the env.
void force_tune(int mode);
/// @brief True when PlanCache may hand out compiled plans.
bool plan_enabled();
/// @brief True when plan compilation autotunes GEMM blocking.
bool tune_enabled();
}  // namespace plan_detail

/// One GEMM the plan will execute, with the blocking the autotuner picked
/// (all-zero = build defaults). Reported in manifests and bench output.
struct PlannedGemm {
  int m = 0, k = 0, n = 0;
  GemmBlocking blocking;
};

/// The two ping-pong buffers a compiled plan runs its intermediates
/// through. They hold nothing between executes, so plans that never run
/// at the same time can share one set. Slots are never reallocated once
/// a plan runs on them.
struct PlanSlots;

/// A model compiled for one (input shape, precision tier). Compile once,
/// execute on every matching forward; see the file comment for what the
/// compiler does. Not thread-safe: one plan serves one caller at a time
/// (the serve layer already serializes per-tenant execution), and plans
/// built on the same PlanSlots execute one at a time.
class ExecPlan {
 public:
  ExecPlan();
  /// @brief A plan that runs on `slots` (may be null) wherever they are
  /// large enough, and on slots of its own otherwise.
  explicit ExecPlan(std::shared_ptr<PlanSlots> slots);
  ~ExecPlan();
  ExecPlan(ExecPlan&&) noexcept;
  ExecPlan& operator=(ExecPlan&&) noexcept;

  /// @brief Compiles `layers` (run in order, as a Sequential would) for
  /// inputs of `in_shape` at tier `tier`. Runs shape inference, fusion,
  /// the buffer schedule, the blocking autotune, and one warm-up execute
  /// (so steady-state calls hit warm pack slots and a warm arena).
  /// @param label Model name recorded in obs plan records.
  /// @return false — leaving the plan invalid — when a layer kind or
  ///   shape is unsupported; callers fall back to the uncompiled walk.
  bool compile(const std::vector<Module*>& layers,
               const std::vector<int>& in_shape, GemmPrecision tier,
               const std::string& label = "model");

  bool compiled() const;

  /// @brief True when the plan can serve a forward right now: compiled,
  /// shape and tier match, and no weight-generation bump happened since
  /// compile (optimizer step / load_params / `.advp` adoption / recalibration
  /// all bump it, exactly like the pack-cache slots).
  bool valid_for(const std::vector<int>& in_shape, GemmPrecision tier) const;

  /// @brief Runs the compiled op list on `x`. The returned tensor is
  /// owned by the plan and stays valid until the next execute/compile.
  /// Steady-state calls perform zero heap allocations.
  const Tensor& execute(const Tensor& x);

  const std::vector<int>& input_shape() const;
  GemmPrecision tier() const;
  /// Bytes of intermediate buffers (the ping-pong arena) this plan needs;
  /// shared slots may hold more.
  std::size_t arena_bytes() const;
  /// The slots this plan runs on, for a later plan to share.
  const std::shared_ptr<PlanSlots>& slots() const;
  /// Planned GEMM shapes with their autotuned blocking.
  const std::vector<PlannedGemm>& gemms() const;
  /// "mxkxn:mc/kc/nc;..." summary of gemms() (manifest/bench string).
  std::string geometry_string() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Per-model cache of compiled plans keyed on (input shape, tier).
/// Models own one and consult it from their forward entry points; the
/// cache compiles lazily, recompiles stale plans in place, and remembers
/// (shape, tier) keys that failed to compile so unsupported models pay
/// one attempt, not one per forward. A model runs one forward at a time,
/// so each new plan is offered the slots of the largest plan compiled so
/// far.
class PlanCache {
 public:
  explicit PlanCache(std::string label = "model") : label_(std::move(label)) {}

  /// @brief An executable plan for (layers, x.shape(), the active tier),
  /// or nullptr when planning is disabled (ADVP_PLAN=0 / force_plan(0)),
  /// the calling context is not a backward-free inference forward (no
  /// InferenceModeScope, or a CalibrationScope is active), or the model
  /// failed to compile. Compiles or recompiles as needed.
  ExecPlan* plan_for(const std::vector<Module*>& layers, const Tensor& x);

  /// @brief Eagerly compiles (or revalidates) the plan for `in_shape` at
  /// `tier` — the serve layer calls this at tenant registration and
  /// server start so the first request finds a warm plan. Returns nullptr
  /// when planning is disabled or compilation fails.
  ExecPlan* compile_now(const std::vector<Module*>& layers,
                        const std::vector<int>& in_shape,
                        GemmPrecision tier);

  void clear();
  std::size_t size() const { return plans_.size(); }

 private:
  ExecPlan* lookup(const std::vector<Module*>& layers,
                   const std::vector<int>& shape, GemmPrecision tier,
                   bool count_hit);

  std::string label_;
  // MRU at the front; bounded (kMaxPlans) so a shape-churning caller
  // cannot grow the cache without limit.
  std::vector<std::unique_ptr<ExecPlan>> plans_;
  // (shape, tier) keys that failed to compile at the current generation.
  struct FailedKey {
    std::vector<int> shape;
    GemmPrecision tier;
    std::uint64_t generation;
  };
  std::vector<FailedKey> failed_;
  std::shared_ptr<PlanSlots> slots_;  // the largest plan's, or null
};

}  // namespace advp::nn

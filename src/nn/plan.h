// Execution-plan compiler: compile a layer list once, execute many times.
//
// The eager walk (Sequential::forward, child by child) allocates a fresh
// Tensor per layer and runs BatchNorm and the activation as passes of
// their own. ExecPlan moves that to compile time. Compiling a model for
// one (input shape, precision tier) runs three passes:
//
//  1. Shape inference over the layer list — every intermediate's geometry
//     is known before the first real forward.
//  2. Fusion — Conv2d[+BatchNorm2d][+SiLU] and Linear[+ReLU] runs are
//     grouped once into a flat op list; eval-BN and the activation fold
//     into the GEMM epilogue.
//  3. Buffer schedule — the op chain is single-input/single-output, so
//     liveness analysis degenerates to two ping-pong arena slots (plus
//     the plan-owned output tensor), pre-allocated at compile time.
//     On Linux the slots get pages of their own, off the malloc heap. A
//     plan that fits the slots of a larger plan of the same PlanCache
//     runs on those, so a model compiled for its largest batch allocates
//     no activation memory for the smaller ones.
//     Flatten is an alias: zero copies, zero ops. Steady-state execution
//     performs zero heap allocations — asserted through the
//     plan_steady_allocs obs counter, not by eye.
//
// Execution is bit-identical to the eager walk under an
// InferenceModeScope at every tier, which is the plan's oracle in tests:
// the epilogue runs the unfused layers' float operations in their order.
// Conv ops run the eager conv's per-item loop (conv2d_forward_into),
// writing straight into the scheduled output buffer; items fan out
// across the worker pool with each item's GEMM serial inside the region,
// so any worker count produces the same bits.
//
// Invalidation mirrors GemmCacheSlot: a plan records the weight
// generation at compile time and PlanCache recompiles after any optimizer
// step, parameter load, `.advp` adoption or recalibration. Precision
// changes select a different cache entry outright, since the tier is part
// of the plan key.
//
// The compiler knows exactly what DistNet and TinyYolo contain: Conv2d
// [+BatchNorm2d] [+SiLU], Linear [+ReLU], MaxPool2x2 and Flatten. Any
// other layer, and int8 through a layer without a calibrated range, is not
// compiled: PlanCache remembers the declined key and the forward takes the
// eager walk, which throws for the uncalibrated int8 case.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace advp::nn {

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
  /// the buffer schedule, and one warm-up execute (so steady-state calls
  /// hit warm pack slots and a warm arena).
  /// @param label Model name recorded in obs plan records.
  /// @return false — leaving the plan invalid — when a layer kind or
  ///   shape is unsupported, or an int8 GEMM layer has no calibrated
  ///   range; callers fall back to the eager walk.
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
  /// "mxkxn;..." shapes of the planned GEMMs (manifest/bench string).
  const std::string& geometry_string() const;

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
  /// or nullptr when the calling context is not a backward-free
  /// inference forward (no InferenceModeScope, or a CalibrationScope is
  /// active: calibration records its ranges on the eager walk), or the
  /// model failed to compile. Compiles or recompiles as needed.
  ExecPlan* plan_for(const std::vector<Module*>& layers, const Tensor& x);

  /// @brief Eagerly compiles (or revalidates) the plan for `in_shape` at
  /// `tier` — the serve layer calls this at tenant registration and
  /// server start so the first request finds a warm plan. Returns nullptr
  /// when compilation fails.
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

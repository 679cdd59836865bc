// int8 inference tier selection and calibration.
//
// The kernel layer (tensor/gemm.h) executes whatever GemmPrecision a call
// asks for; this file decides *which* calls ask. Three pieces:
//
//  - PrecisionScope: RAII selection of the inference tier. The scope is
//    process-global (one relaxed atomic), not thread-local, so pool
//    workers spawned inside a scoped region inherit the caller's tier —
//    enter scopes from the orchestrating thread only, before any fan-out.
//    With no scope active the tier is fp32: code picks int8 only through
//    a scope, never through the environment.
//  - ThreadPrecisionScope: a thread-local override that wins over
//    PrecisionScope, on the entering thread only.
//    This is the selection mechanism for serving worker threads
//    (advp::serve), which run tenants at different tiers concurrently —
//    a process-global scope entered from two workers at once would leak
//    one tenant's tier into another's forward.
//  - CalibrationScope + calibrate(): a calibration pass runs clean batches
//    through the network under InferenceModeScope while a (thread-local)
//    CalibrationScope is active; Conv2d/Linear record their input
//    activation range (absmax, or a percentile of |x| when
//    CalibrationOptions::percentile < 1). The recorded range becomes the
//    int8 per-tensor activation scale (range / 127). Forwards under a
//    CalibrationScope always run fp32 — ranges describe the full-precision
//    activation distribution.
//  - Gradient safety: layers resolve int8 only on backward-free paths
//    (eval forward under an InferenceModeScope, which already skips
//    backward caches) — so a scoped int8 forward followed by backward()
//    throws, and training/attack oracles always run fp32 regardless of
//    any scope.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace advp::nn {

class Module;
class Sequential;

/// Options for a calibration pass.
struct CalibrationOptions {
  /// Quantile of |activation| recorded as the range: 1 (default) is the
  /// absolute maximum; e.g. 0.999 clips the top 0.1% of outliers, trading
  /// saturation of rare spikes for finer resolution everywhere else.
  float percentile = 1.f;
};

/// RAII selection of the inference precision tier. Process-global (see
/// file comment); nests — the destructor restores the previous selection.
class PrecisionScope {
 public:
  explicit PrecisionScope(GemmPrecision p);
  ~PrecisionScope();
  PrecisionScope(const PrecisionScope&) = delete;
  PrecisionScope& operator=(const PrecisionScope&) = delete;

  /// Tier the innermost live scope selects, or fp32 with no scope
  /// active. A live ThreadPrecisionScope on the calling thread wins.
  static GemmPrecision active();

 private:
  int prev_;
};

/// RAII tier selection scoped to the *calling thread*: while alive,
/// PrecisionScope::active() on this thread returns `p` regardless of any
/// process-global scope. Other threads are unaffected.
/// Nests; the destructor restores the previous thread-local selection.
/// Safe to enter concurrently from any number of threads — this is how
/// serve worker threads pin each tenant's tier around batched forwards.
class ThreadPrecisionScope {
 public:
  explicit ThreadPrecisionScope(GemmPrecision p);
  ~ThreadPrecisionScope();
  ThreadPrecisionScope(const ThreadPrecisionScope&) = delete;
  ThreadPrecisionScope& operator=(const ThreadPrecisionScope&) = delete;

 private:
  int prev_;
};

/// RAII marker (thread-local) for a calibration pass: while active on the
/// calling thread, Conv2d/Linear record input-activation ranges and every
/// layer resolves to fp32.
class CalibrationScope {
 public:
  explicit CalibrationScope(const CalibrationOptions& opts = {});
  ~CalibrationScope();
  CalibrationScope(const CalibrationScope&) = delete;
  CalibrationScope& operator=(const CalibrationScope&) = delete;

  static bool active();
  /// Options of the innermost active scope; must not be called otherwise.
  static const CalibrationOptions& options();

 private:
  const CalibrationOptions* prev_;
  CalibrationOptions opts_;
};

/// @brief Range statistic of |data[0..n)| per the active CalibrationScope's
/// options: absmax, or the configured percentile. Deterministic (exact
/// selection, no sampling).
float calibration_range(const float* data, std::size_t n);

/// @brief Runs `batches` through `net` (eval mode, fp32, forward-only)
/// recording activation ranges on every Conv2d/Linear, then invalidates
/// all packed-weight cache slots so nothing quantized under the previous
/// ranges survives. Previously recorded ranges are reset first — each
/// calibrate() call describes exactly its own batches (ranges max-merge
/// within a pass, never across passes). Serial by design: ranges are
/// order-independent (max-merge), but the forwards reuse the net's single
/// backward-free fast path.
/// @throws advp::Error if a batch's shape does not fit the network.
void calibrate(Sequential& net, const std::vector<Tensor>& batches,
               const CalibrationOptions& opts = {});

/// @brief Clears recorded calibration ranges (recursing through
/// Sequential). Until recalibrated, an int8 forward through a cleared
/// layer throws advp::CheckError; fp32 forwards are unaffected.
void reset_calibration(Module& m);

/// @brief True when every Conv2d/Linear reachable from `m` (recursing
/// through Sequential) carries a recorded calibration range — the
/// condition for an int8 forward not to throw. The serving registry
/// checks it when an int8 tenant registers, so a missing range fails
/// there rather than on the tenant's first request.
bool has_calibration(Module& m);

/// @brief Copies recorded calibration ranges from `src` onto the
/// structurally matching modules of `dst` (recursing through Sequential
/// children; Conv2d->Conv2d, Linear->Linear). Used by the model zoo's
/// clone helpers so worker-slot clones quantize identically to the
/// original.
void copy_calibration(Module& src, Module& dst);

/// @brief Recorded activation ranges of every Conv2d/Linear reachable
/// from `m`, in deterministic walk order (Sequential children in order,
/// depth-first) — the order the `.advp` serializer persists them in.
/// Uncalibrated layers contribute 0.
std::vector<float> collect_calibration(Module& m);

/// @brief Restores ranges captured by collect_calibration onto the
/// matching walk of `m`, then invalidates all packed-weight cache slots
/// (quantized panels may have been produced under the old ranges).
/// @return false — applying nothing — when `ranges` does not match the
///   walk's layer count.
bool apply_calibration(Module& m, const std::vector<float>& ranges);

}  // namespace advp::nn

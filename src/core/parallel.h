// Data-parallel loop helpers backed by a persistent worker pool.
//
// The pool is constructed once (first parallel call) and reused for the
// lifetime of the process; `parallel_for` splits [begin, end) into
// fixed-size chunks that workers claim dynamically. Worker count defaults
// to the hardware concurrency, can be pinned with the ADVP_THREADS
// environment variable, and can be overridden at runtime with
// `set_max_workers` (tests use this to compare 1-thread vs N-thread runs).
//
// Determinism contract: chunking is a pure scheduling decision. Every loop
// body in this library writes to locations disjoint per index, and any
// cross-index accumulation is reduced by the caller in index order, so
// results are bit-identical regardless of worker count.
//
// Nested parallelism degenerates to serial: a `parallel_for` issued from
// inside a parallel region runs inline on the calling worker, so kernels
// (matmul, conv2d) can parallelize opportunistically without
// oversubscribing when an outer loop is already parallel.
//
// Exceptions thrown by a body are captured and the first one is rethrown
// on the calling thread after the loop finishes.
#pragma once

#include <cstddef>
#include <functional>

namespace advp {

/// @brief Default worker count: ADVP_THREADS if set (>= 1), else the
/// hardware concurrency (>= 1). Constant for the process lifetime.
std::size_t hardware_workers();

/// @brief Current effective worker cap (>= 1): the runtime override if one
/// is active, else hardware_workers().
std::size_t max_workers();

/// @brief Overrides the worker cap at runtime.
/// @param n New cap; may exceed the hardware count (the determinism tests
///   rely on that) but is clamped to the pool's thread capacity. Pass 0 to
///   restore the default.
/// @note Not safe to call concurrently with a running parallel_for.
void set_max_workers(std::size_t n);

/// @brief True while executing inside a parallel_for body on any thread
/// that is part of a multi-worker dispatch, or inside an
/// InlineParallelScope.
bool in_parallel_region();

/// @brief RAII: while alive, parallel_for calls issued on this thread run
/// inline in index order, as nested calls inside a parallel region do.
/// Lets a caller run, on its own thread, every chunk a dispatch could
/// hand it (nn::ExecPlan warms its scratch this way).
class InlineParallelScope {
 public:
  InlineParallelScope();
  ~InlineParallelScope();
  InlineParallelScope(const InlineParallelScope&) = delete;
  InlineParallelScope& operator=(const InlineParallelScope&) = delete;

 private:
  bool outer_;
};

/// @brief RAII worker-cap override for tests and benches: applies
/// set_max_workers(n) now, restores the default on scope exit.
struct ScopedMaxWorkers {
  explicit ScopedMaxWorkers(std::size_t n) { set_max_workers(n); }
  ~ScopedMaxWorkers() { set_max_workers(0); }
  ScopedMaxWorkers(const ScopedMaxWorkers&) = delete;
  ScopedMaxWorkers& operator=(const ScopedMaxWorkers&) = delete;
};

/// @brief Runs body(i) for each i in [begin, end), possibly concurrently.
/// A caller must hold no lock that a pool job can take: callers serialize
/// on one dispatch mutex, so such a lock can deadlock against another
/// thread's dispatch.
/// @param begin First index (inclusive); an empty range is a no-op.
/// @param end Last index (exclusive).
/// @param body Loop body; must be safe to run concurrently for distinct i.
/// @throws Rethrows the first exception a body threw, on the calling
///   thread, after the loop drains.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// @brief Same, but workers claim `grain` consecutive indices at a time.
/// @param grain Chunk size; use for cheap bodies where per-index
///   scheduling would dominate (0 is treated as 1).
/// @throws Rethrows the first exception a body threw.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& body);

/// @brief Runs body(slot, i) where `slot` identifies the executing
/// participant and is always < max(1, slots).
/// @param slots Upper bound on concurrent participants; slot 0 is the
///   calling thread. Use the slot to index per-worker scratch state
///   (e.g. model clones) without locking.
/// @throws Rethrows the first exception a body threw.
void parallel_for_slotted(
    std::size_t begin, std::size_t end, std::size_t slots,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace advp

// advp::serve — request router and dynamic batcher over the warm
// inference fast path.
//
// The inference stack (pack-once weight cache, fused epilogues, the int8
// tier) serves single frames through TinyYolo::detect and
// DistNet::predict. This layer turns those per-frame calls into a
// concurrent service: clients submit one frame at a time and get a
// std::future back; worker threads coalesce queued frames into batched
// forwards ("dynamic batching"), bounded by a batch-size cap and a
// max-wait deadline anchored at the oldest queued request.
//
// Two pieces:
//
//  - ModelRegistry: a multi-tenant model store. Each tenant is an
//    independently cloned checkpoint (weights, BatchNorm statistics, and
//    calibration ranges copied at registration time) pinned at one
//    precision tier (fp32 | int8 via nn::ThreadPrecisionScope).
//    Tenants never share layer state, so one tenant's calibration or tier
//    cannot leak into another's results, and each tenant's GemmCacheSlot
//    pack cache stays warm across requests. int8 tenants must be
//    calibrated before registration: an int8 forward quantizes
//    activations with the recorded ranges and throws without them.
//
//  - BatchServer: the router. Per-tenant FIFO queues, a shared pool of
//    worker threads, and a batching policy: a tenant's batch fires when
//    the queue reaches max_batch_size, or when its oldest request has
//    waited max_wait_us, whichever comes first. A tenant executes at most
//    one batch at a time (layer caches and GemmCacheSlots are not
//    thread-safe), but different tenants run concurrently on different
//    workers. shutdown() stops admissions, drains every queued request,
//    and joins the workers — every future handed out is completed.
//
// Determinism contract: a batched forward is bit-identical, per frame, to
// the serial per-frame call at the same tier and any worker count — conv
// and linear kernels accumulate each output element over an independent
// ascending-k FMA chain, batch norm folds are per-element, and int8
// activation scales are calibration constants. The concurrency here is
// pure scheduling: which batch a frame lands in never changes its result.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "models/distnet.h"
#include "models/tiny_yolo.h"
#include "nn/precision.h"
#include "tensor/tensor.h"

namespace advp::serve {

/// What a tenant serves.
enum class ModelKind : int { kDetector = 0, kDistNet };

/// Batching policy and worker-pool size for a BatchServer.
struct ServeConfig {
  /// Largest batch one forward may coalesce (>= 1). 1 disables coalescing
  /// (every request is its own forward) without changing any result.
  int max_batch_size = 8;
  /// Longest a queued request may wait for its batch to fill, in
  /// microseconds, measured from enqueue of the *oldest* request in the
  /// batch. 0 fires immediately with whatever is queued.
  int max_wait_us = 200;
  /// Serve worker threads (>= 1). Workers are shared across tenants; a
  /// single tenant never runs two batches concurrently, so more workers
  /// than tenants buys nothing.
  int workers = 1;
};

/// Snapshot of one tenant's (or the whole server's) request accounting.
struct ServeStats {
  std::uint64_t requests = 0;      ///< submitted (admitted) requests
  std::uint64_t completed = 0;     ///< futures fulfilled (value or error)
  std::uint64_t batches = 0;       ///< batched forwards executed
  std::uint64_t batch_items = 0;   ///< requests coalesced into them
  std::uint64_t full_batches = 0;  ///< batches fired at max_batch_size
  /// batch_size_hist[s] = number of batches that coalesced exactly s
  /// requests (index 0 unused); size max_batch_size + 1.
  std::vector<std::uint64_t> batch_size_hist;
  int queue_depth = 0;  ///< requests admitted but not yet claimed

  /// Mean coalesced batch size (batch_items / batches); 0 before any batch.
  double coalesce_ratio() const {
    return batches ? static_cast<double>(batch_items) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

/// Multi-tenant model store: named, precision-pinned, independently
/// calibrated clones of zoo checkpoints. Registration is not thread-safe;
/// populate the registry fully, then hand it to a BatchServer (which
/// freezes it for its lifetime). The registry must outlive the server.
class ModelRegistry {
 public:
  ModelRegistry();
  ~ModelRegistry();
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a detection tenant: clones `src` (weights + calibration)
  /// and pins it at `tier`. `conf_threshold` < 0 uses the model default.
  /// @throws advp::CheckError on duplicate name, on a frozen registry, or
  ///   when tier is int8 and `src` has no calibration ranges recorded.
  void add_detector(const std::string& name, models::TinyYolo& src,
                    GemmPrecision tier, float conf_threshold = -1.f);

  /// Registers a distance-regression tenant (same cloning rules).
  void add_distnet(const std::string& name, models::DistNet& src,
                   GemmPrecision tier);

  /// Registers a detection tenant straight from a `.advp` model artifact
  /// (meta "model" = "tiny_yolo"). The tenant *owns* the loaded model —
  /// no clone — so the file's pre-packed panels for `tier`, adopted at
  /// load time, back the tenant's cache slots: the tenant's first forward
  /// does zero weight pack/quantize work, and the mapped weight pages are
  /// shared read-only with every other process serving the same file.
  /// @throws advp::CheckError when the file is missing/invalid, describes
  ///   a different model kind, or tier is int8 and the artifact carries no
  ///   calibration ranges.
  void add_detector_advp(const std::string& name, const std::string& path,
                         GemmPrecision tier, float conf_threshold = -1.f);

  /// Registers a distance tenant from a `.advp` artifact (meta "model" =
  /// "distnet"); see add_detector_advp.
  void add_distnet_advp(const std::string& name, const std::string& path,
                        GemmPrecision tier);

  std::size_t size() const;
  bool has(const std::string& name) const;
  /// Kind/tier of a registered tenant. @throws advp::CheckError if absent.
  ModelKind kind(const std::string& name) const;
  GemmPrecision tier(const std::string& name) const;

 private:
  friend class BatchServer;
  struct Tenant;
  /// Index of `name`. @throws advp::CheckError if absent.
  std::size_t index_of(const std::string& name) const;

  std::vector<std::unique_ptr<Tenant>> tenants_;
  bool frozen_ = false;
};

/// Concurrent request router + dynamic batcher over a frozen registry.
/// All public methods are thread-safe.
class BatchServer {
 public:
  /// Spawns the worker threads. The registry is frozen and must outlive
  /// this server. @throws advp::CheckError on an invalid config or an
  /// empty registry.
  BatchServer(ModelRegistry& registry, ServeConfig config);
  /// Equivalent to shutdown().
  ~BatchServer();
  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Enqueues one frame for a detection tenant. `frame` is [1,3,H,W] with
  /// the tenant's input geometry; it is copied, so the caller may reuse
  /// the tensor immediately. The future carries the NMS-filtered
  /// detections exactly as TinyYolo::detect would return for this frame.
  /// @throws advp::CheckError on unknown tenant, wrong tenant kind, bad
  ///   frame shape, or a server that has begun shutdown.
  std::future<std::vector<models::Detection>> submit_detect(
      const std::string& tenant, const Tensor& frame);

  /// Enqueues one frame for a distance tenant; the future carries the
  /// predicted distance in meters, exactly as DistNet::predict returns.
  std::future<float> submit_predict(const std::string& tenant,
                                    const Tensor& frame);

  /// Stops admitting requests, drains every queued request through the
  /// normal batched path, completes all futures, and joins the workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// True once shutdown() has begun (new submissions are rejected).
  bool shutting_down() const;

  /// Accounting across all tenants (batch_size_hist summed).
  ServeStats stats() const;
  /// Accounting for one tenant. @throws advp::CheckError if absent.
  ServeStats tenant_stats(const std::string& name) const;

  const ServeConfig& config() const { return config_; }

 private:
  struct State;
  ServeConfig config_;
  std::unique_ptr<State> state_;
};

}  // namespace advp::serve

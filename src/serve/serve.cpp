#include "serve/serve.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "attacks/attack.h"
#include "core/check.h"
#include "core/obs.h"
#include "models/zoo.h"

namespace advp::serve {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

// ---- ModelRegistry ---------------------------------------------------------

struct ModelRegistry::Tenant {
  std::string name;
  ModelKind kind = ModelKind::kDetector;
  GemmPrecision tier = GemmPrecision::kFp32;
  float conf_threshold = -1.f;
  int in_h = 0, in_w = 0;  // expected frame geometry [1,3,in_h,in_w]
  std::unique_ptr<models::TinyYolo> detector;
  std::unique_ptr<models::DistNet> distnet;
};

ModelRegistry::ModelRegistry() = default;
ModelRegistry::~ModelRegistry() = default;

std::size_t ModelRegistry::size() const { return tenants_.size(); }

bool ModelRegistry::has(const std::string& name) const {
  for (const auto& t : tenants_)
    if (t->name == name) return true;
  return false;
}

std::size_t ModelRegistry::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < tenants_.size(); ++i)
    if (tenants_[i]->name == name) return i;
  ADVP_CHECK_MSG(false, "ModelRegistry: unknown tenant '" << name << "'");
  return 0;  // unreachable
}

ModelKind ModelRegistry::kind(const std::string& name) const {
  return tenants_[index_of(name)]->kind;
}

GemmPrecision ModelRegistry::tier(const std::string& name) const {
  return tenants_[index_of(name)]->tier;
}

void ModelRegistry::add_detector(const std::string& name,
                                 models::TinyYolo& src, GemmPrecision tier,
                                 float conf_threshold) {
  ADVP_CHECK_MSG(!frozen_, "ModelRegistry: frozen by a live BatchServer");
  ADVP_CHECK_MSG(!has(name), "ModelRegistry: duplicate tenant '" << name
                                                                 << "'");
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->kind = ModelKind::kDetector;
  t->tier = tier;
  t->conf_threshold = conf_threshold;
  t->in_h = t->in_w = src.config().img_size;
  t->detector =
      std::make_unique<models::TinyYolo>(models::clone_detector(src));
  if (tier == GemmPrecision::kInt8)
    ADVP_CHECK_MSG(nn::has_calibration(t->detector->backbone()) &&
                       nn::has_calibration(t->detector->head()),
                   "ModelRegistry: int8 tenant '"
                       << name
                       << "' needs calibration (TinyYolo::calibrate): an "
                          "int8 forward reads recorded activation ranges");
  // Compile the single-frame execution plan now, at the tenant's tier, so
  // the first request pays no compile latency (BatchServer precompiles
  // the batched shapes at startup).
  {
    nn::ThreadPrecisionScope scope(tier);
    t->detector->compile_plan(1);
  }
  tenants_.push_back(std::move(t));
}

void ModelRegistry::add_distnet(const std::string& name, models::DistNet& src,
                                GemmPrecision tier) {
  ADVP_CHECK_MSG(!frozen_, "ModelRegistry: frozen by a live BatchServer");
  ADVP_CHECK_MSG(!has(name), "ModelRegistry: duplicate tenant '" << name
                                                                 << "'");
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->kind = ModelKind::kDistNet;
  t->tier = tier;
  t->in_h = src.config().height;
  t->in_w = src.config().width;
  t->distnet = std::make_unique<models::DistNet>(models::clone_distnet(src));
  if (tier == GemmPrecision::kInt8)
    ADVP_CHECK_MSG(nn::has_calibration(t->distnet->net()),
                   "ModelRegistry: int8 tenant '"
                       << name
                       << "' needs calibration (DistNet::calibrate): an "
                          "int8 forward reads recorded activation ranges");
  {
    nn::ThreadPrecisionScope scope(tier);
    t->distnet->compile_plan(1);
  }
  tenants_.push_back(std::move(t));
}

void ModelRegistry::add_detector_advp(const std::string& name,
                                      const std::string& path,
                                      GemmPrecision tier,
                                      float conf_threshold) {
  ADVP_CHECK_MSG(!frozen_, "ModelRegistry: frozen by a live BatchServer");
  ADVP_CHECK_MSG(!has(name), "ModelRegistry: duplicate tenant '" << name
                                                                 << "'");
  nn::AdvpLoadOptions lopts;
  lopts.adopt_tier = static_cast<int>(tier);
  nn::AdvpLoadResult r;
  auto model = models::make_detector_from_advp(path, &r, lopts);
  ADVP_CHECK_MSG(model, "ModelRegistry: tenant '"
                            << name << "' from " << path << ": "
                            << nn::advp_status_name(r.status) << " ("
                            << r.error << ")");
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->kind = ModelKind::kDetector;
  t->tier = tier;
  t->conf_threshold = conf_threshold;
  t->in_h = t->in_w = model->config().img_size;
  // The tenant owns the loaded model (no clone): the panels adopted from
  // the file stay wired into this instance's cache slots.
  t->detector = std::move(model);
  if (tier == GemmPrecision::kInt8)
    ADVP_CHECK_MSG(nn::has_calibration(t->detector->backbone()) &&
                       nn::has_calibration(t->detector->head()),
                   "ModelRegistry: int8 tenant '"
                       << name << "': " << path
                       << " carries no calibration ranges");
  {
    nn::ThreadPrecisionScope scope(tier);
    t->detector->compile_plan(1);
  }
  tenants_.push_back(std::move(t));
}

void ModelRegistry::add_distnet_advp(const std::string& name,
                                     const std::string& path,
                                     GemmPrecision tier) {
  ADVP_CHECK_MSG(!frozen_, "ModelRegistry: frozen by a live BatchServer");
  ADVP_CHECK_MSG(!has(name), "ModelRegistry: duplicate tenant '" << name
                                                                 << "'");
  nn::AdvpLoadOptions lopts;
  lopts.adopt_tier = static_cast<int>(tier);
  nn::AdvpLoadResult r;
  auto model = models::make_distnet_from_advp(path, &r, lopts);
  ADVP_CHECK_MSG(model, "ModelRegistry: tenant '"
                            << name << "' from " << path << ": "
                            << nn::advp_status_name(r.status) << " ("
                            << r.error << ")");
  auto t = std::make_unique<Tenant>();
  t->name = name;
  t->kind = ModelKind::kDistNet;
  t->tier = tier;
  t->in_h = model->config().height;
  t->in_w = model->config().width;
  t->distnet = std::move(model);
  if (tier == GemmPrecision::kInt8)
    ADVP_CHECK_MSG(nn::has_calibration(t->distnet->net()),
                   "ModelRegistry: int8 tenant '"
                       << name << "': " << path
                       << " carries no calibration ranges");
  {
    nn::ThreadPrecisionScope scope(tier);
    t->distnet->compile_plan(1);
  }
  tenants_.push_back(std::move(t));
}

// ---- BatchServer -----------------------------------------------------------

namespace {

struct DetectRequest {
  Tensor frame;
  std::promise<std::vector<models::Detection>> promise;
  Clock::time_point enqueued;
};

struct PredictRequest {
  Tensor frame;
  std::promise<float> promise;
  Clock::time_point enqueued;
};

// Per-tenant serving state. Only one of det/dist is ever populated (the
// tenant's kind is fixed); `executing` guarantees a tenant runs at most
// one batch at a time, because layer activation caches and GemmCacheSlots
// are not safe under concurrent forwards on the same instance.
struct TenantQueue {
  std::deque<DetectRequest> det;
  std::deque<PredictRequest> dist;
  bool executing = false;
  ServeStats stats;

  std::size_t depth() const { return det.size() + dist.size(); }
  Clock::time_point oldest() const {
    return det.empty() ? dist.front().enqueued : det.front().enqueued;
  }
};

}  // namespace

struct BatchServer::State {
  explicit State(ModelRegistry& r) : registry(r) {}

  ModelRegistry& registry;
  mutable std::mutex m;
  std::condition_variable cv;
  // Parallel to registry.tenants_; behind unique_ptr because promises
  // are move-only and TenantQueue must never relocate under workers.
  std::vector<std::unique_ptr<TenantQueue>> queues;
  bool stop = false;    // shutdown begun: reject admissions, drain eagerly
  std::size_t rr = 0;   // rotating scan start (tenant fairness)
  std::vector<std::thread> workers;
  std::mutex lifecycle_m;  // serializes shutdown() callers
  bool joined = false;     // guarded by lifecycle_m

  void worker_loop(const ServeConfig& cfg);
  void run_detect_batch(ModelRegistry::Tenant& t,
                        std::vector<DetectRequest> reqs);
  void run_predict_batch(ModelRegistry::Tenant& t,
                         std::vector<PredictRequest> reqs);
};

BatchServer::BatchServer(ModelRegistry& registry, ServeConfig config)
    : config_(config), state_(std::make_unique<State>(registry)) {
  ADVP_CHECK_MSG(config_.max_batch_size >= 1,
                 "BatchServer: max_batch_size must be >= 1");
  ADVP_CHECK_MSG(config_.max_wait_us >= 0,
                 "BatchServer: max_wait_us must be >= 0");
  ADVP_CHECK_MSG(config_.workers >= 1, "BatchServer: workers must be >= 1");
  ADVP_CHECK_MSG(registry.size() > 0, "BatchServer: empty registry");
  registry.frozen_ = true;
  // Precompile every tenant's full-batch execution plan up front:
  // workers coalesce up to max_batch_size frames per forward, and the
  // plan cache keys on the input shape, so the common batch bucket is
  // warm before the first request arrives.
  for (std::size_t i = 0; i < registry.size(); ++i) {
    ModelRegistry::Tenant& t = *registry.tenants_[i];
    nn::ThreadPrecisionScope scope(t.tier);
    if (t.detector)
      t.detector->compile_plan(config_.max_batch_size);
    else if (t.distnet)
      t.distnet->compile_plan(config_.max_batch_size);
  }
  state_->queues.reserve(registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    auto q = std::make_unique<TenantQueue>();
    q->stats.batch_size_hist.assign(
        static_cast<std::size_t>(config_.max_batch_size) + 1, 0);
    state_->queues.push_back(std::move(q));
  }
  state_->workers.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    state_->workers.emplace_back(
        [s = state_.get(), cfg = config_] { s->worker_loop(cfg); });
}

BatchServer::~BatchServer() { shutdown(); }

void BatchServer::shutdown() {
  State& st = *state_;
  std::lock_guard<std::mutex> lifecycle(st.lifecycle_m);
  {
    std::lock_guard<std::mutex> lk(st.m);
    st.stop = true;
  }
  st.cv.notify_all();
  if (!st.joined) {
    for (auto& w : st.workers) w.join();
    st.joined = true;
  }
}

bool BatchServer::shutting_down() const {
  std::lock_guard<std::mutex> lk(state_->m);
  return state_->stop;
}

std::future<std::vector<models::Detection>> BatchServer::submit_detect(
    const std::string& tenant, const Tensor& frame) {
  State& st = *state_;
  const std::size_t idx = st.registry.index_of(tenant);
  ModelRegistry::Tenant& t = *st.registry.tenants_[idx];
  ADVP_CHECK_MSG(t.kind == ModelKind::kDetector,
                 "submit_detect: tenant '" << tenant
                                           << "' serves a DistNet");
  ADVP_CHECK_MSG(frame.rank() == 4 && frame.dim(0) == 1 &&
                     frame.dim(1) == 3 && frame.dim(2) == t.in_h &&
                     frame.dim(3) == t.in_w,
                 "submit_detect: expected frame [1,3," << t.in_h << ","
                                                       << t.in_w << "]");
  DetectRequest req;
  req.frame = frame;
  req.enqueued = Clock::now();
  std::future<std::vector<models::Detection>> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lk(st.m);
    ADVP_CHECK_MSG(!st.stop, "submit_detect: server is shutting down");
    TenantQueue& q = *st.queues[idx];
    q.det.push_back(std::move(req));
    ++q.stats.requests;
    ++q.stats.queue_depth;
  }
  st.cv.notify_one();
  ADVP_OBS_COUNT(kServeRequests, 1);
  return fut;
}

std::future<float> BatchServer::submit_predict(const std::string& tenant,
                                               const Tensor& frame) {
  State& st = *state_;
  const std::size_t idx = st.registry.index_of(tenant);
  ModelRegistry::Tenant& t = *st.registry.tenants_[idx];
  ADVP_CHECK_MSG(t.kind == ModelKind::kDistNet,
                 "submit_predict: tenant '" << tenant
                                            << "' serves a detector");
  ADVP_CHECK_MSG(frame.rank() == 4 && frame.dim(0) == 1 &&
                     frame.dim(1) == 3 && frame.dim(2) == t.in_h &&
                     frame.dim(3) == t.in_w,
                 "submit_predict: expected frame [1,3," << t.in_h << ","
                                                        << t.in_w << "]");
  PredictRequest req;
  req.frame = frame;
  req.enqueued = Clock::now();
  std::future<float> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lk(st.m);
    ADVP_CHECK_MSG(!st.stop, "submit_predict: server is shutting down");
    TenantQueue& q = *st.queues[idx];
    q.dist.push_back(std::move(req));
    ++q.stats.requests;
    ++q.stats.queue_depth;
  }
  st.cv.notify_one();
  ADVP_OBS_COUNT(kServeRequests, 1);
  return fut;
}

void BatchServer::State::worker_loop(const ServeConfig& cfg) {
  const auto max_wait = std::chrono::microseconds(cfg.max_wait_us);
  const std::size_t max_batch = static_cast<std::size_t>(cfg.max_batch_size);
  std::unique_lock<std::mutex> lk(m);
  for (;;) {
    // Scan (rotating start, so no tenant starves) for a batch that should
    // fire: full, past its oldest request's deadline, or draining.
    const Clock::time_point now = Clock::now();
    bool any_pending = false;
    bool have_deadline = false;
    Clock::time_point next_deadline{};
    std::size_t ready = queues.size();
    for (std::size_t k = 0; k < queues.size(); ++k) {
      const std::size_t i = (rr + k) % queues.size();
      TenantQueue& q = *queues[i];
      if (q.executing || q.depth() == 0) continue;
      any_pending = true;
      const Clock::time_point deadline = q.oldest() + max_wait;
      if (q.depth() >= max_batch || stop || now >= deadline) {
        ready = i;
        break;
      }
      if (!have_deadline || deadline < next_deadline) {
        have_deadline = true;
        next_deadline = deadline;
      }
    }

    if (ready < queues.size()) {
      rr = ready + 1;
      TenantQueue& q = *queues[ready];
      ModelRegistry::Tenant& t = *registry.tenants_[ready];
      const std::size_t take = std::min(q.depth(), max_batch);
      q.executing = true;
      q.stats.queue_depth -= static_cast<int>(take);
      ++q.stats.batches;
      q.stats.batch_items += take;
      if (take == max_batch) ++q.stats.full_batches;
      ++q.stats.batch_size_hist[take];
      ADVP_OBS_COUNT(kServeBatches, 1);
      ADVP_OBS_COUNT(kServeBatchItems, take);
      if (t.kind == ModelKind::kDetector) {
        std::vector<DetectRequest> batch;
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(q.det.front()));
          q.det.pop_front();
        }
        lk.unlock();
        run_detect_batch(t, std::move(batch));
      } else {
        std::vector<PredictRequest> batch;
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(q.dist.front()));
          q.dist.pop_front();
        }
        lk.unlock();
        run_predict_batch(t, std::move(batch));
      }
      lk.lock();
      q.executing = false;
      q.stats.completed += take;
      // The tenant may have queued more while executing (its deadline can
      // already be past), and draining peers may be waiting on us.
      cv.notify_all();
      continue;
    }

    if (stop && !any_pending) return;
    if (have_deadline)
      cv.wait_until(lk, next_deadline);
    else
      cv.wait(lk);
  }
}

void BatchServer::State::run_detect_batch(ModelRegistry::Tenant& t,
                                          std::vector<DetectRequest> reqs) {
  ADVP_OBS_SPAN("serve_batch");
  // Thread-local tier selection: other workers may serve other tenants at
  // other tiers concurrently.
  nn::ThreadPrecisionScope tier(t.tier);
  try {
    std::vector<Tensor> frames;
    frames.reserve(reqs.size());
    for (auto& r : reqs) frames.push_back(std::move(r.frame));
    const Tensor batch = attacks::stack_batch(frames);
    auto results = t.detector->detect(batch, t.conf_threshold);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      reqs[i].promise.set_value(std::move(results[i]));
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (auto& r : reqs) {
      try {
        r.promise.set_exception(err);
      } catch (const std::future_error&) {
        // already satisfied — nothing more to deliver
      }
    }
  }
}

void BatchServer::State::run_predict_batch(ModelRegistry::Tenant& t,
                                           std::vector<PredictRequest> reqs) {
  ADVP_OBS_SPAN("serve_batch");
  nn::ThreadPrecisionScope tier(t.tier);
  try {
    std::vector<Tensor> frames;
    frames.reserve(reqs.size());
    for (auto& r : reqs) frames.push_back(std::move(r.frame));
    const Tensor batch = attacks::stack_batch(frames);
    const std::vector<float> results = t.distnet->predict(batch);
    for (std::size_t i = 0; i < reqs.size(); ++i)
      reqs[i].promise.set_value(results[i]);
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (auto& r : reqs) {
      try {
        r.promise.set_exception(err);
      } catch (const std::future_error&) {
      }
    }
  }
}

namespace {

void accumulate(ServeStats& into, const ServeStats& s) {
  into.requests += s.requests;
  into.completed += s.completed;
  into.batches += s.batches;
  into.batch_items += s.batch_items;
  into.full_batches += s.full_batches;
  into.queue_depth += s.queue_depth;
  if (into.batch_size_hist.size() < s.batch_size_hist.size())
    into.batch_size_hist.resize(s.batch_size_hist.size(), 0);
  for (std::size_t i = 0; i < s.batch_size_hist.size(); ++i)
    into.batch_size_hist[i] += s.batch_size_hist[i];
}

}  // namespace

ServeStats BatchServer::stats() const {
  ServeStats out;
  std::lock_guard<std::mutex> lk(state_->m);
  for (const auto& q : state_->queues) accumulate(out, q->stats);
  return out;
}

ServeStats BatchServer::tenant_stats(const std::string& name) const {
  const std::size_t idx = state_->registry.index_of(name);
  std::lock_guard<std::mutex> lk(state_->m);
  return state_->queues[idx]->stats;
}

}  // namespace advp::serve

#include "core/parallel.h"

#include "core/obs.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace advp {

namespace {

constexpr std::size_t kMaxPoolThreads = 64;

// Set while a thread (worker or caller) executes chunks of a multi-worker
// dispatch; nested parallel_for calls then run inline.
thread_local bool tl_in_region = false;

std::size_t default_workers() {
  static const std::size_t n = [] {
    if (const char* env = std::getenv("ADVP_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1)
        return std::min<std::size_t>(static_cast<std::size_t>(v),
                                     kMaxPoolThreads);
    }
    const unsigned hc = std::thread::hardware_concurrency();
    // Clamp to the pool's thread capacity: participants beyond
    // kMaxPoolThreads would wait on workers that are never created.
    return hc == 0 ? std::size_t{1}
                   : std::min<std::size_t>(hc, kMaxPoolThreads);
  }();
  return n;
}

std::atomic<std::size_t> g_cap_override{0};  // 0 = use default_workers()

// Persistent worker pool. One job runs at a time (dispatch_m serializes
// callers); workers park on a condition variable between jobs and detect
// new work via a generation counter.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t begin, std::size_t end, std::size_t grain,
           std::size_t participants,
           const std::function<void(std::size_t, std::size_t)>& body) {
    std::lock_guard<std::mutex> dispatch(dispatch_m_);
    {
      std::unique_lock<std::mutex> lk(m_);
      ensure_workers_locked(participants - 1);
      job_ = &body;
      job_begin_ = begin;
      job_end_ = end;
      job_grain_ = grain;
      next_chunk_.store(0, std::memory_order_relaxed);
      failed_.store(false, std::memory_order_relaxed);
      error_ = nullptr;
      participants_ = participants;
      active_ = participants - 1;
      ++epoch_;
      cv_work_.notify_all();
    }
    run_chunks(0);  // the caller participates as slot 0
    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lk(m_);
      cv_done_.wait(lk, [&] { return active_ == 0; });
      err = error_;
      job_ = nullptr;
    }
    if (err) std::rethrow_exception(err);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
      cv_work_.notify_all();
    }
    for (auto& t : threads_) t.join();
  }

  void ensure_workers_locked(std::size_t want) {
    while (threads_.size() < want && threads_.size() + 1 < kMaxPoolThreads)
      threads_.emplace_back([this, id = threads_.size()] { worker_loop(id); });
  }

  void worker_loop(std::size_t id) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      if (id + 1 >= participants_) continue;  // not part of this job
      lk.unlock();
      run_chunks(id + 1);
      lk.lock();
      if (--active_ == 0) cv_done_.notify_all();
    }
  }

  // Claims chunks until the range (or the job, on error) is exhausted.
  void run_chunks(std::size_t slot) {
    tl_in_region = true;
    const auto& body = *job_;
    while (!failed_.load(std::memory_order_relaxed)) {
      const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t lo = job_begin_ + c * job_grain_;
      if (lo >= job_end_ || lo < job_begin_) break;  // done (or overflow)
      const std::size_t hi = std::min(job_end_, lo + job_grain_);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(slot, i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m_);
        if (!error_) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
        break;
      }
    }
    tl_in_region = false;
  }

  std::mutex dispatch_m_;  // one job at a time

  std::mutex m_;
  std::condition_variable cv_work_, cv_done_;
  std::vector<std::thread> threads_;
  bool stop_ = false;

  // Current job (set under m_; read by workers after the epoch bump).
  std::uint64_t epoch_ = 0;
  std::size_t participants_ = 0;
  std::size_t active_ = 0;
  std::size_t job_begin_ = 0, job_end_ = 0, job_grain_ = 1;
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
};

void dispatch(std::size_t begin, std::size_t end, std::size_t grain,
              std::size_t slots,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  // kMaxPoolThreads bounds participants regardless of what callers pass for
  // slots or what max_workers() returns — the pool cannot grow past it.
  std::size_t workers =
      std::min({max_workers(), slots, chunks, kMaxPoolThreads});
  if (workers <= 1 || tl_in_region) {
    for (std::size_t i = begin; i < end; ++i) body(0, i);
    return;
  }
  // Tracing is pure bookkeeping: the span/counters never change chunking
  // or scheduling, so results stay bit-identical with tracing on or off.
  ADVP_OBS_SPAN("parallel_for");
  ADVP_OBS_COUNT(kParallelDispatches, 1);
  ADVP_OBS_COUNT(kParallelChunks, chunks);
  ADVP_OBS_COUNT(kParallelWorkers, workers);
  Pool::instance().run(begin, end, grain, workers, body);
}

}  // namespace

std::size_t hardware_workers() { return default_workers(); }

std::size_t max_workers() {
  const std::size_t cap = g_cap_override.load(std::memory_order_relaxed);
  return cap == 0 ? default_workers() : cap;
}

void set_max_workers(std::size_t n) {
  g_cap_override.store(std::min(n, kMaxPoolThreads),
                       std::memory_order_relaxed);
}

bool in_parallel_region() { return tl_in_region; }

InlineParallelScope::InlineParallelScope() : outer_(tl_in_region) {
  tl_in_region = true;
}

InlineParallelScope::~InlineParallelScope() { tl_in_region = outer_; }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  dispatch(begin, end, 1, kMaxPoolThreads,
           [&body](std::size_t, std::size_t i) { body(i); });
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& body) {
  dispatch(begin, end, grain, kMaxPoolThreads,
           [&body](std::size_t, std::size_t i) { body(i); });
}

void parallel_for_slotted(
    std::size_t begin, std::size_t end, std::size_t slots,
    const std::function<void(std::size_t, std::size_t)>& body) {
  dispatch(begin, end, 1, std::max<std::size_t>(1, slots), body);
}

}  // namespace advp

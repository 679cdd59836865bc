#include "nn/plan.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <new>
#include <utility>

// Plan slots get mapped pages on Linux. AddressSanitizer builds keep them
// on the heap, where its allocation fill and redzones cover them.
#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
#define ADVP_MAP_PLAN_SLOTS 1
#include <sys/mman.h>
#endif

#include "core/check.h"
#include "core/obs.h"
#include "core/parallel.h"
#include "core/scratch.h"
#include "nn/precision.h"
#include "tensor/ops.h"

namespace advp::nn {

namespace plan_detail {

namespace {
// ADVP_PLAN / ADVP_TUNE kill-switches with the usual test-hook overrides
// (same pattern as the pack cache's ADVP_PACK_CACHE control).
std::atomic<int> g_force_plan{-1};
std::atomic<int> g_force_tune{-1};

bool env_on(const char* name) {
  const char* e = std::getenv(name);
  return !(e && e[0] == '0' && e[1] == '\0');
}
}  // namespace

void force_plan(int mode) { g_force_plan.store(mode, std::memory_order_relaxed); }
void force_tune(int mode) { g_force_tune.store(mode, std::memory_order_relaxed); }

bool plan_enabled() {
  const int f = g_force_plan.load(std::memory_order_relaxed);
  if (f >= 0) return f != 0;
  static const bool on = env_on("ADVP_PLAN");
  return on;
}

bool tune_enabled() {
  const int f = g_force_tune.load(std::memory_order_relaxed);
  if (f >= 0) return f != 0;
  static const bool on = env_on("ADVP_TUNE");
  return on;
}

}  // namespace plan_detail

namespace {

// ---- GEMM blocking autotune -------------------------------------------------
//
// Process-wide memo of (shape, tier, operand role) -> fastest blocking.
// Every candidate is bit-identical by the kernel's k-order contract, so a
// noisy measurement can only cost speed. Cached across plans: recompiles
// (generation bumps) and sibling tenants with the same layer shapes pay
// one benchmark per shape per process.

struct TuneKey {
  int m, k, n;
  int tier;
  bool weights_in_a;
  bool operator==(const TuneKey& o) const {
    return m == o.m && k == o.k && n == o.n && tier == o.tier &&
           weights_in_a == o.weights_in_a;
  }
};

struct TuneCache {
  std::mutex mu;
  std::vector<std::pair<TuneKey, GemmBlocking>> entries;
};

TuneCache& tune_cache() {
  static TuneCache c;
  return c;
}

// Products below this skip tuning outright: the candidate spread is noise
// at small sizes and the compile-time cost would dominate the win.
constexpr std::size_t kTuneMacFloor = std::size_t{512} * 1024;

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

GemmBlocking autotune_blocking(int m, int k, int n, GemmPrecision tier,
                               bool weights_in_a) {
  if (!plan_detail::tune_enabled()) return {};
  if (!gemm_blocking_applies(m, n, k, tier)) return {};
  const std::size_t macs =
      static_cast<std::size_t>(m) * n * static_cast<std::size_t>(k);
  if (macs < kTuneMacFloor) return {};

  const TuneKey key{m, k, n, static_cast<int>(tier), weights_in_a};
  TuneCache& cache = tune_cache();
  std::lock_guard<std::mutex> lk(cache.mu);
  for (const auto& e : cache.entries)
    if (e.first == key) return e.second;

  // Candidate sets. int8 panels span the full (quad-padded) k, so only
  // the stripe width varies; a cached op(B) image (the Linear role) pins
  // Kc to the default, so its candidates vary Mc/Nc only.
  std::vector<GemmBlocking> candidates;
  if (tier == GemmPrecision::kInt8) {
    candidates = {{0, 0, 0}, {0, 0, 512}, {0, 0, 256}};
  } else if (weights_in_a) {
    candidates = {{0, 0, 0},    {48, 128, 0},  {48, 256, 0},
                  {192, 256, 0}, {96, 128, 0},  {96, 512, 0},
                  {96, 256, 512}, {48, 256, 512}};
  } else {
    candidates = {{0, 0, 0}, {48, 0, 0}, {192, 0, 0}, {48, 0, 512},
                  {0, 0, 512}};
  }

  // Deterministic synthetic operands (plan compilation must not touch RNG
  // state); a local cache slot mimics the warm weight-pack the real
  // forward enjoys, so timings reflect steady-state compute.
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  std::uint32_t lcg = 0x9e3779b9u;
  auto next = [&lcg]() {
    lcg = lcg * 1664525u + 1013904223u;
    return static_cast<float>(static_cast<int>(lcg >> 16) - 32768) / 32768.f;
  };
  for (auto& v : a) v = next();
  for (auto& v : b) v = next();

  GemmCacheSlot slot;
  GemmExtra extra;
  extra.precision = tier;
  extra.weights_in_a = weights_in_a;
  extra.act_scale = 1.f;  // pin the int8 activation scale (timing only)
  if (weights_in_a)
    extra.a_cache = &slot;
  else
    extra.b_cache = &slot;

  auto run = [&]() {
    gemm(m, n, k, a.data(), k, /*trans_a=*/false, b.data(), n,
         /*trans_b=*/false, c.data(), n, /*accumulate=*/false, extra);
  };

  run();  // warm the pack slot and the scratch arena once
  GemmBlocking best{};
  double best_ms = -1.0;
  for (const GemmBlocking& cand : candidates) {
    extra.blocking = cand;
    double ms = time_once(run);
    ms = std::min(ms, time_once(run));
    if (best_ms < 0.0 || ms < best_ms) {
      best_ms = ms;
      best = cand;
    }
  }
  cache.entries.emplace_back(key, best);
  return best;
}

}  // namespace

// ---- ExecPlan ---------------------------------------------------------------

namespace {

enum class OpKind {
  kConv,     // Conv2d [+ eval-BN fold] [+ ReLU|SiLU], fused GEMM epilogue
  kLinear,   // Linear [+ ReLU], fused GEMM epilogue
  kMaxPool,  // 2x2 stride-2 max pool (the eager kernel, no argmax)
  kUpsample,
  kGlobalAvgPool,
  kBatchNorm,  // standalone eval-mode BN
  kRelu,
  kSilu,
};

struct PlanOp {
  OpKind kind;
  Conv2d* conv = nullptr;
  BatchNorm2d* bn = nullptr;  // folded (kConv) or standalone (kBatchNorm)
  Linear* lin = nullptr;
  Act act = Act::kNone;
  float slope = 0.f;
  // Input geometry: n,c,h,w for rank-4 ops; (n, c) with h=w=1 for rank-2.
  int n = 0, c = 0, h = 0, w = 0;
  // Output geometry (oc/oh/ow; Linear uses oc = out features).
  int oc = 0, oh = 0, ow = 0;
  std::size_t out_elems = 0;
  int dst = -1;  // 0/1 = ping-pong slot, 2 = plan output tensor
  // kConv with BN / kBatchNorm: inv_std refreshed per execute into this
  // pre-sized buffer (same expression as BatchNorm2d::forward, so the
  // fold always reflects the current running stats, bit-for-bit).
  std::vector<float> bn_inv_std;
  GemmBlocking blocking;
};

}  // namespace

// The slots are the largest buffers a forward writes. Mapped, they get
// pages of their own, returned when the last plan on them goes, so
// compiling and dropping plans leaves no slot-sized holes in the malloc
// heap: the resident set follows the live plans, not the heap's history.
// The compile's warm-up writes the slots whole, so the mapping call faults
// the pages in at once rather than one fault at a time.
struct PlanSlots {
  PlanSlots(std::size_t elems0, std::size_t elems1)
      : elems{elems0, elems1} {
    const std::size_t off = (elems0 * sizeof(float) + 63) & ~std::size_t{63};
    bytes = off + elems1 * sizeof(float);
    if (bytes == 0) return;
#ifdef ADVP_MAP_PLAN_SLOTS
    map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
#else
    map = ::operator new(bytes, std::align_val_t(64));
#endif
    buf[0] = static_cast<float*>(map);
    buf[1] = reinterpret_cast<float*>(static_cast<char*>(map) + off);
  }
  ~PlanSlots() {
    if (bytes == 0) return;
#ifdef ADVP_MAP_PLAN_SLOTS
    ::munmap(map, bytes);
#else
    ::operator delete(map, std::align_val_t(64));
#endif
  }
  PlanSlots(const PlanSlots&) = delete;
  PlanSlots& operator=(const PlanSlots&) = delete;

  std::size_t elems[2];
  std::size_t bytes = 0;
  void* map = nullptr;
  float* buf[2] = {nullptr, nullptr};
};

struct ExecPlan::Impl {
  bool compiled = false;
  std::string label;
  std::vector<int> in_shape;
  std::vector<int> out_shape;
  GemmPrecision prec = GemmPrecision::kFp32;
  std::uint64_t generation = 0;
  std::vector<PlanOp> ops;
  std::shared_ptr<PlanSlots> slots;
  std::size_t slot_elems[2] = {0, 0};
  Tensor out;
  std::vector<PlannedGemm> gemms;

  float* buffer(int idx) {
    return idx == 2 ? out.data() : slots->buf[idx];
  }

  void run(const Tensor& x);
  void run_conv(const PlanOp& op, const float* src, float* dst);
  void run_linear(const PlanOp& op, const float* src, float* dst);
};

ExecPlan::ExecPlan() : impl_(new Impl) {}
ExecPlan::ExecPlan(std::shared_ptr<PlanSlots> slots) : impl_(new Impl) {
  impl_->slots = std::move(slots);
}
ExecPlan::~ExecPlan() = default;
ExecPlan::ExecPlan(ExecPlan&&) noexcept = default;
ExecPlan& ExecPlan::operator=(ExecPlan&&) noexcept = default;

bool ExecPlan::compiled() const { return impl_->compiled; }
const std::vector<int>& ExecPlan::input_shape() const {
  return impl_->in_shape;
}
GemmPrecision ExecPlan::tier() const { return impl_->prec; }
std::size_t ExecPlan::arena_bytes() const {
  return (impl_->slot_elems[0] + impl_->slot_elems[1]) * sizeof(float);
}
const std::shared_ptr<PlanSlots>& ExecPlan::slots() const {
  return impl_->slots;
}
const std::vector<PlannedGemm>& ExecPlan::gemms() const {
  return impl_->gemms;
}

std::string ExecPlan::geometry_string() const {
  std::string s;
  char buf[96];
  for (const PlannedGemm& g : impl_->gemms) {
    std::snprintf(buf, sizeof(buf), "%dx%dx%d:mc%d/kc%d/nc%d", g.m, g.k, g.n,
                  g.blocking.mc, g.blocking.kc, g.blocking.nc);
    if (!s.empty()) s += ';';
    s += buf;
  }
  return s;
}

bool ExecPlan::valid_for(const std::vector<int>& in_shape,
                         GemmPrecision tier) const {
  return impl_->compiled && impl_->prec == tier &&
         impl_->in_shape == in_shape &&
         impl_->generation == weight_generation();
}

bool ExecPlan::compile(const std::vector<Module*>& layers,
                       const std::vector<int>& in_shape, GemmPrecision tier,
                       const std::string& label) {
  ADVP_OBS_SPAN("plan_compile");
  Impl& im = *impl_;
  im.compiled = false;
  im.label = label;
  im.ops.clear();
  im.gemms.clear();
  im.slot_elems[0] = im.slot_elems[1] = 0;
  im.prec = tier;
  im.in_shape = in_shape;
  im.generation = weight_generation();

  if (in_shape.empty() || in_shape[0] <= 0) return false;
  std::vector<int> shape = in_shape;

  // Pass 1+2: shape inference and fusion in one walk. The grouping below
  // mirrors Sequential::forward_fused exactly — Conv2d [+BatchNorm2d]
  // [+ReLU|SiLU], Linear [+ReLU] — resolved here once instead of with
  // dynamic_cast chains on every forward.
  const std::size_t count = layers.size();
  for (std::size_t i = 0; i < count; ++i) {
    Module* mod = layers[i];
    if (auto* conv = dynamic_cast<Conv2d*>(mod)) {
      if (shape.size() != 4 || shape[1] != conv->spec().in_channels)
        return false;
      // Per-item conv GEMMs need a fixed activation scale to match the
      // grouped eager GEMM at int8: an uncalibrated layer would quantize
      // with a per-item dynamic absmax and drift from the oracle.
      if (tier == GemmPrecision::kInt8 && conv->calibration_range() <= 0.f)
        return false;
      PlanOp op;
      op.kind = OpKind::kConv;
      op.conv = conv;
      op.n = shape[0];
      op.c = shape[1];
      op.h = shape[2];
      op.w = shape[3];
      const Conv2dSpec& s = conv->spec();
      op.oc = s.out_channels;
      op.oh = s.out_h(op.h);
      op.ow = s.out_w(op.w);
      if (op.oh <= 0 || op.ow <= 0) return false;
      std::size_t next = i + 1;
      BatchNorm2d* bn =
          next < count ? dynamic_cast<BatchNorm2d*>(layers[next]) : nullptr;
      if (bn) {
        if (bn->gamma().dim(0) != op.oc) return false;
        op.bn = bn;
        op.bn_inv_std.resize(static_cast<std::size_t>(op.oc));
        ++next;
      }
      if (next < count) {
        if (auto* relu = dynamic_cast<ReLU*>(layers[next])) {
          op.act = Act::kReluLeaky;
          op.slope = relu->slope();
          ++next;
        } else if (dynamic_cast<SiLU*>(layers[next])) {
          op.act = Act::kSilu;
          ++next;
        }
      }
      const int patch = op.c * s.kernel * s.kernel;
      const int pixels = op.oh * op.ow;
      op.blocking = autotune_blocking(op.oc, patch, pixels, tier,
                                      /*weights_in_a=*/true);
      im.gemms.push_back({op.oc, patch, pixels, op.blocking});
      shape = {op.n, op.oc, op.oh, op.ow};
      op.out_elems = static_cast<std::size_t>(op.n) * op.oc * pixels;
      im.ops.push_back(std::move(op));
      i = next - 1;
      continue;
    }
    if (auto* lin = dynamic_cast<Linear*>(mod)) {
      const PackedWeightSpec ws = lin->forward_pack_spec();
      const int in_f = ws.d0, out_f = ws.d1;
      if (shape.size() != 2 || shape[1] != in_f) return false;
      if (tier == GemmPrecision::kInt8 && lin->calibration_range() <= 0.f)
        return false;
      PlanOp op;
      op.kind = OpKind::kLinear;
      op.lin = lin;
      op.n = shape[0];
      op.c = in_f;
      op.oc = out_f;
      if (i + 1 < count) {
        if (auto* relu = dynamic_cast<ReLU*>(layers[i + 1])) {
          op.act = Act::kReluLeaky;
          op.slope = relu->slope();
          ++i;
        }
      }
      op.blocking = autotune_blocking(op.n, in_f, out_f, tier,
                                      /*weights_in_a=*/false);
      im.gemms.push_back({op.n, in_f, out_f, op.blocking});
      shape = {op.n, out_f};
      op.out_elems = static_cast<std::size_t>(op.n) * out_f;
      im.ops.push_back(std::move(op));
      continue;
    }
    if (dynamic_cast<MaxPool2x2*>(mod)) {
      if (shape.size() != 4 || shape[2] % 2 != 0 || shape[3] % 2 != 0)
        return false;
      PlanOp op;
      op.kind = OpKind::kMaxPool;
      op.n = shape[0];
      op.c = shape[1];
      op.h = shape[2];
      op.w = shape[3];
      op.oc = op.c;
      op.oh = op.h / 2;
      op.ow = op.w / 2;
      shape = {op.n, op.oc, op.oh, op.ow};
      op.out_elems = static_cast<std::size_t>(op.n) * op.oc * op.oh * op.ow;
      im.ops.push_back(std::move(op));
      continue;
    }
    if (dynamic_cast<Upsample2x*>(mod)) {
      if (shape.size() != 4) return false;
      PlanOp op;
      op.kind = OpKind::kUpsample;
      op.n = shape[0];
      op.c = shape[1];
      op.h = shape[2];
      op.w = shape[3];
      op.oc = op.c;
      op.oh = 2 * op.h;
      op.ow = 2 * op.w;
      shape = {op.n, op.oc, op.oh, op.ow};
      op.out_elems = static_cast<std::size_t>(op.n) * op.oc * op.oh * op.ow;
      im.ops.push_back(std::move(op));
      continue;
    }
    if (dynamic_cast<GlobalAvgPool*>(mod)) {
      if (shape.size() != 4) return false;
      PlanOp op;
      op.kind = OpKind::kGlobalAvgPool;
      op.n = shape[0];
      op.c = shape[1];
      op.h = shape[2];
      op.w = shape[3];
      op.oc = op.c;
      shape = {op.n, op.c};
      op.out_elems = static_cast<std::size_t>(op.n) * op.c;
      im.ops.push_back(std::move(op));
      continue;
    }
    if (dynamic_cast<Flatten*>(mod)) {
      // Row-major NCHW is already contiguous per item: a flatten is pure
      // shape bookkeeping, no op and no copy.
      if (shape.size() < 2) return false;
      std::size_t flat = 1;
      for (std::size_t d = 1; d < shape.size(); ++d)
        flat *= static_cast<std::size_t>(shape[d]);
      shape = {shape[0], static_cast<int>(flat)};
      continue;
    }
    if (dynamic_cast<Dropout*>(mod)) continue;  // identity in eval mode
    if (auto* bn = dynamic_cast<BatchNorm2d*>(mod)) {
      if (shape.size() != 4 || shape[1] != bn->gamma().dim(0)) return false;
      PlanOp op;
      op.kind = OpKind::kBatchNorm;
      op.bn = bn;
      op.n = shape[0];
      op.c = shape[1];
      op.h = shape[2];
      op.w = shape[3];
      op.oc = op.c;
      op.oh = op.h;
      op.ow = op.w;
      op.bn_inv_std.resize(static_cast<std::size_t>(op.c));
      op.out_elems = static_cast<std::size_t>(op.n) * op.c * op.h * op.w;
      im.ops.push_back(std::move(op));
      continue;
    }
    if (auto* relu = dynamic_cast<ReLU*>(mod)) {
      PlanOp op;
      op.kind = OpKind::kRelu;
      op.slope = relu->slope();
      op.out_elems = 1;
      for (int d : shape) op.out_elems *= static_cast<std::size_t>(d);
      im.ops.push_back(std::move(op));
      continue;
    }
    if (dynamic_cast<SiLU*>(mod)) {
      PlanOp op;
      op.kind = OpKind::kSilu;
      op.out_elems = 1;
      for (int d : shape) op.out_elems *= static_cast<std::size_t>(d);
      im.ops.push_back(std::move(op));
      continue;
    }
    return false;  // unsupported layer: caller falls back to forward_fused
  }
  if (im.ops.empty()) return false;

  // Pass 3: buffer schedule. The op chain is single-input/single-output,
  // so only the previous output is ever live — liveness collapses to two
  // ping-pong slots, with the last op writing the plan-owned output
  // tensor directly.
  for (std::size_t i = 0; i < im.ops.size(); ++i) {
    PlanOp& op = im.ops[i];
    if (i + 1 == im.ops.size()) {
      op.dst = 2;
    } else {
      op.dst = static_cast<int>(i % 2);
      im.slot_elems[op.dst] = std::max(im.slot_elems[op.dst], op.out_elems);
    }
  }
  // Other plans may run on these slots, so they are never reallocated: a
  // plan they cannot hold gets slots of its own.
  if (!im.slots || im.slots->elems[0] < im.slot_elems[0] ||
      im.slots->elems[1] < im.slot_elems[1]) {
    im.slots =
        std::make_shared<PlanSlots>(im.slot_elems[0], im.slot_elems[1]);
    ADVP_OBS_COUNT(kPlanArenaBytes, arena_bytes());
  }
  im.out_shape = shape;
  im.out = Tensor(shape);

  ADVP_OBS_COUNT(kPlanCompiles, 1);
  im.compiled = true;

  // Warm-up execute on zeros, every item and column stripe on this
  // thread: packs (or re-validates) every weight slot and grows this
  // thread's scratch arena to the largest footprint any chunk of a later
  // execute can claim here (a per-item GEMM run serially, whose stripe is
  // at least as wide as any fanned-out one). Steady executes on this
  // thread are then allocation-free whichever chunks the pool hands it.
  {
    InlineParallelScope all_chunks_here;
    im.run(Tensor(in_shape));
  }

  if (obs::enabled()) {
    obs::PlanRecord rec;
    rec.model = im.label;
    std::string s;
    char buf[16];
    for (int d : in_shape) {
      std::snprintf(buf, sizeof(buf), "%d", d);
      if (!s.empty()) s += 'x';
      s += buf;
    }
    rec.input_shape = std::move(s);
    rec.tier = precision_name(tier);
    rec.arena_bytes = arena_bytes();
    rec.geometry = geometry_string();
    obs::record_plan(std::move(rec));
  }
  return true;
}

void ExecPlan::Impl::run_conv(const PlanOp& op, const float* src,
                              float* dst) {
  Conv2d* conv = op.conv;
  const Conv2dSpec& s = conv->spec();
  const int patch = op.c * s.kernel * s.kernel;
  const int pixels = op.oh * op.ow;
  const std::size_t x_stride = static_cast<std::size_t>(op.c) * op.h * op.w;
  const std::size_t y_stride = static_cast<std::size_t>(op.oc) * pixels;
  ADVP_OBS_COUNT(kConv2dFlops, 2ull * op.n * y_stride * patch);

  GemmEpilogue epi;
  epi.bias = conv->bias().value.data();
  if (op.bn) {
    // inv_std refreshed with the exact expression BatchNorm2d::forward
    // (and Conv2d::forward_inference) uses — train-mode BN updates the
    // running stats without a generation bump, so the fold must read
    // them per execute, not bake them in at compile.
    const Tensor& var = op.bn->running_var();
    float* is = const_cast<float*>(op.bn_inv_std.data());
    for (int cc = 0; cc < op.oc; ++cc)
      is[cc] = 1.f / std::sqrt(var[static_cast<std::size_t>(cc)] +
                               op.bn->eps());
    epi.bn_mean = op.bn->running_mean().data();
    epi.bn_inv_std = is;
    epi.bn_gamma = op.bn->gamma().data();
    epi.bn_beta = op.bn->beta().data();
  }
  epi.act = op.act;
  epi.slope = op.slope;

  GemmExtra extra;
  extra.a_cache = &conv->forward_pack_slot();
  extra.epilogue = &epi;
  extra.precision = prec;
  const float range = conv->calibration_range();
  extra.act_scale = range > 0.f ? range / 127.f : 0.f;
  extra.blocking = op.blocking;

  // One GEMM per batch item, written straight into the scheduled output
  // (epilogue applied) — no staging buffer, no scatter copy. Item columns
  // are disjoint and every element keeps its ascending-k FMA chain, so
  // this is bit-identical to the eager path's wide grouped GEMM. On the
  // implicit-im2col path the GEMM packer gathers patch elements straight
  // from the scheduled input buffer, so the per-item column matrix (the
  // plan's largest scratch ask) is never materialized; ADVP_IM2COL=staged
  // restores the lowering below as kill-switch and bit-identity oracle.
  // (Plan-compiled int8 convs always carry a calibrated act_scale, so the
  // eager path's dynamic-absmax grouping caveat cannot arise here.)
  const bool implicit = implicit_im2col_enabled();
  PackSource ps;
  ps.item_stride = x_stride;
  ps.items = 1;
  ps.c_in = op.c;
  ps.h = op.h;
  ps.w = op.w;
  ps.kernel = s.kernel;
  ps.stride = s.stride;
  ps.pad = s.pad;
  ps.out_h = op.oh;
  ps.out_w = op.ow;
  auto run_item = [&](std::size_t i) {
    if (implicit) {
      PackSource item_ps = ps;
      item_ps.base = src + i * x_stride;
      GemmExtra item_extra = extra;
      item_extra.b_pack = &item_ps;
      gemm(op.oc, pixels, patch, conv->weight().value.data(), patch,
           /*trans_a=*/false, /*b=*/nullptr, pixels, /*trans_b=*/false,
           dst + i * y_stride, pixels, /*accumulate=*/false, item_extra);
      return;
    }
    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Frame frame(arena);
    float* cols =
        arena.alloc_floats(static_cast<std::size_t>(patch) * pixels);
    im2col_lower(src + i * x_stride, op.c, op.h, op.w, s, cols, pixels);
    gemm(op.oc, pixels, patch, conv->weight().value.data(), patch,
         /*trans_a=*/false, cols, pixels, /*trans_b=*/false,
         dst + i * y_stride, pixels, /*accumulate=*/false, extra);
  };
  // Item 0 runs first on the calling thread so a cold pack slot is filled
  // exactly once before any fan-out (slots are not safe to fill
  // concurrently); the remaining items then share the pool, each GEMM
  // serial inside the region.
  run_item(0);
  if (op.n > 1) {
    if (max_workers() > 1 && !in_parallel_region())
      parallel_for(1, static_cast<std::size_t>(op.n), run_item);
    else
      for (std::size_t i = 1; i < static_cast<std::size_t>(op.n); ++i)
        run_item(i);
  }
}

void ExecPlan::Impl::run_linear(const PlanOp& op, const float* src,
                                float* dst) {
  Linear* lin = op.lin;
  GemmEpilogue epi;
  epi.bias = lin->bias().value.data();
  epi.bias_per_col = true;
  epi.act = op.act;
  epi.slope = op.slope;
  GemmExtra extra;
  extra.b_cache = &lin->forward_pack_slot();
  extra.epilogue = &epi;
  extra.precision = prec;
  extra.weights_in_a = false;
  const float range = lin->calibration_range();
  extra.act_scale = range > 0.f ? range / 127.f : 0.f;
  extra.blocking = op.blocking;
  gemm(op.n, op.oc, op.c, src, op.c, /*trans_a=*/false,
       lin->weight().value.data(), op.c, /*trans_b=*/true, dst, op.oc,
       /*accumulate=*/false, extra);
}

void ExecPlan::Impl::run(const Tensor& x) {
  const float* src = x.data();
  for (const PlanOp& op : ops) {
    float* dst = buffer(op.dst);
    switch (op.kind) {
      case OpKind::kConv:
        run_conv(op, src, dst);
        break;
      case OpKind::kLinear:
        run_linear(op, src, dst);
        break;
      case OpKind::kMaxPool:
        maxpool2x2(src, static_cast<std::size_t>(op.n) * op.c, op.h, op.w,
                   dst, /*argmax=*/nullptr);
        break;
      case OpKind::kUpsample: {
        for (int i = 0; i < op.n; ++i)
          for (int cc = 0; cc < op.c; ++cc) {
            const float* sp =
                src + (static_cast<std::size_t>(i) * op.c + cc) * op.h * op.w;
            float* dp =
                dst + (static_cast<std::size_t>(i) * op.c + cc) * op.oh * op.ow;
            for (int yy = 0; yy < op.oh; ++yy)
              for (int xx = 0; xx < op.ow; ++xx)
                dp[static_cast<std::size_t>(yy) * op.ow + xx] =
                    sp[static_cast<std::size_t>(yy / 2) * op.w + xx / 2];
          }
        break;
      }
      case OpKind::kGlobalAvgPool: {
        const float inv = 1.f / static_cast<float>(op.h * op.w);
        for (int i = 0; i < op.n; ++i)
          for (int cc = 0; cc < op.c; ++cc) {
            const float* p =
                src + (static_cast<std::size_t>(i) * op.c + cc) * op.h * op.w;
            double acc = 0.0;
            for (int j = 0; j < op.h * op.w; ++j) acc += p[j];
            dst[static_cast<std::size_t>(i) * op.c + cc] =
                static_cast<float>(acc) * inv;
          }
        break;
      }
      case OpKind::kBatchNorm: {
        const Tensor& var = op.bn->running_var();
        const Tensor& mean = op.bn->running_mean();
        const Tensor& gamma = op.bn->gamma();
        const Tensor& beta = op.bn->beta();
        float* is = const_cast<float*>(op.bn_inv_std.data());
        for (int cc = 0; cc < op.c; ++cc)
          is[cc] = 1.f / std::sqrt(var[static_cast<std::size_t>(cc)] +
                                   op.bn->eps());
        const std::size_t plane =
            static_cast<std::size_t>(op.h) * op.w;
        for (int i = 0; i < op.n; ++i)
          for (int cc = 0; cc < op.c; ++cc) {
            const float m = mean[static_cast<std::size_t>(cc)];
            const float g = gamma[static_cast<std::size_t>(cc)];
            const float bt = beta[static_cast<std::size_t>(cc)];
            const float isv = is[cc];
            const std::size_t base =
                (static_cast<std::size_t>(i) * op.c + cc) * plane;
            for (std::size_t j = 0; j < plane; ++j)
              dst[base + j] = g * ((src[base + j] - m) * isv) + bt;
          }
        break;
      }
      case OpKind::kRelu: {
        const float sl = op.slope;
        for (std::size_t j = 0; j < op.out_elems; ++j) {
          const float v = src[j];
          dst[j] = v > 0.f ? v : sl * v;
        }
        break;
      }
      case OpKind::kSilu:
        silu(src, dst, op.out_elems);
        break;
    }
    src = dst;
  }
}

const Tensor& ExecPlan::execute(const Tensor& x) {
  Impl& im = *impl_;
  ADVP_CHECK_MSG(im.compiled, "ExecPlan::execute before compile");
  ADVP_CHECK_MSG(x.shape() == im.in_shape,
                 "ExecPlan::execute: input shape does not match the plan");
  const ScratchArena& arena = ScratchArena::local();
  const std::uint64_t grows0 = arena.grow_count();
  im.run(x);
  // Steady-state executes must not grow any allocation: the slots and the
  // output were sized at compile and the calling thread's arena was
  // warmed. A nonzero delta after warm-up is a regression.
  ADVP_OBS_COUNT(kPlanSteadyAllocs, arena.grow_count() - grows0);
  return im.out;
}

// ---- PlanCache --------------------------------------------------------------

namespace {
constexpr std::size_t kMaxPlans = 16;
}

ExecPlan* PlanCache::plan_for(const std::vector<Module*>& layers,
                              const Tensor& x) {
  if (!plan_detail::plan_enabled()) return nullptr;
  if (!InferenceModeScope::active() || CalibrationScope::active())
    return nullptr;
  return lookup(layers, x.shape(), PrecisionScope::active(),
                /*count_hit=*/true);
}

ExecPlan* PlanCache::compile_now(const std::vector<Module*>& layers,
                                 const std::vector<int>& in_shape,
                                 GemmPrecision tier) {
  if (!plan_detail::plan_enabled()) return nullptr;
  return lookup(layers, in_shape, tier, /*count_hit=*/false);
}

ExecPlan* PlanCache::lookup(const std::vector<Module*>& layers,
                            const std::vector<int>& shape,
                            GemmPrecision tier, bool count_hit) {
  const std::uint64_t gen = weight_generation();
  for (std::size_t i = 0; i < failed_.size(); ++i) {
    if (failed_[i].shape == shape && failed_[i].tier == tier) {
      // A failed compile is permanent for this generation; a bump may
      // mean different calibration state, so retry then.
      if (failed_[i].generation == gen) return nullptr;
      failed_.erase(failed_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    if (plans_[i]->input_shape() == shape && plans_[i]->tier() == tier) {
      if (i != 0) std::rotate(plans_.begin(), plans_.begin() + i,
                              plans_.begin() + i + 1);
      ExecPlan* p = plans_.front().get();
      if (p->valid_for(shape, tier)) {
        if (count_hit) ADVP_OBS_COUNT(kPlanCacheHits, 1);
        return p;
      }
      if (p->compile(layers, shape, tier, label_)) return p;
      plans_.erase(plans_.begin());
      failed_.push_back({shape, tier, gen});
      return nullptr;
    }
  }
  auto plan = std::make_unique<ExecPlan>(slots_);
  if (!plan->compile(layers, shape, tier, label_)) {
    failed_.push_back({shape, tier, gen});
    return nullptr;
  }
  // Unchanged when the plan fit the shared slots; its own when it did not.
  slots_ = plan->slots();
  plans_.insert(plans_.begin(), std::move(plan));
  if (plans_.size() > kMaxPlans) plans_.pop_back();
  return plans_.front().get();
}

void PlanCache::clear() {
  plans_.clear();
  failed_.clear();
  slots_.reset();
}

}  // namespace advp::nn

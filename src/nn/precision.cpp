#include "nn/precision.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/check.h"
#include "nn/layers.h"

namespace advp::nn {

namespace {

// 0 = no scope active (fp32), otherwise the selected tier + 1. Plain
// exchange/store keeps nesting correct on the single orchestrating thread
// that is allowed to enter scopes.
std::atomic<int> g_precision_override{0};

// 0 = no ThreadPrecisionScope on this thread, otherwise tier + 1. Checked
// before the global override so concurrent serving threads can each pin
// their own tier without touching shared state.
thread_local int t_precision_override = 0;

thread_local const CalibrationOptions* g_calibration = nullptr;

}  // namespace

PrecisionScope::PrecisionScope(GemmPrecision p)
    : prev_(g_precision_override.exchange(static_cast<int>(p) + 1,
                                          std::memory_order_relaxed)) {}

PrecisionScope::~PrecisionScope() {
  g_precision_override.store(prev_, std::memory_order_relaxed);
}

GemmPrecision PrecisionScope::active() {
  if (t_precision_override)
    return static_cast<GemmPrecision>(t_precision_override - 1);
  const int v = g_precision_override.load(std::memory_order_relaxed);
  return v ? static_cast<GemmPrecision>(v - 1) : GemmPrecision::kFp32;
}

ThreadPrecisionScope::ThreadPrecisionScope(GemmPrecision p)
    : prev_(t_precision_override) {
  t_precision_override = static_cast<int>(p) + 1;
}

ThreadPrecisionScope::~ThreadPrecisionScope() {
  t_precision_override = prev_;
}

CalibrationScope::CalibrationScope(const CalibrationOptions& opts)
    : prev_(g_calibration), opts_(opts) {
  g_calibration = &opts_;
}

CalibrationScope::~CalibrationScope() { g_calibration = prev_; }

bool CalibrationScope::active() { return g_calibration != nullptr; }

const CalibrationOptions& CalibrationScope::options() {
  ADVP_CHECK_MSG(g_calibration, "CalibrationScope::options: no active scope");
  return *g_calibration;
}

float calibration_range(const float* data, std::size_t n) {
  if (n == 0) return 0.f;
  const float percentile = CalibrationScope::options().percentile;
  if (percentile >= 1.f) {
    float amax = 0.f;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = std::fabs(data[i]);
      if (v > amax) amax = v;
    }
    return amax;
  }
  // Exact order statistic of |x| (nth_element, no sampling) so the range —
  // and every downstream int8 bit — is deterministic.
  std::vector<float> mag(n);
  for (std::size_t i = 0; i < n; ++i) mag[i] = std::fabs(data[i]);
  const float pos = std::max(percentile, 0.f) * static_cast<float>(n - 1);
  const std::size_t idx = static_cast<std::size_t>(std::llround(pos));
  std::nth_element(mag.begin(), mag.begin() + static_cast<std::ptrdiff_t>(idx),
                   mag.end());
  return mag[idx];
}

void calibrate(Sequential& net, const std::vector<Tensor>& batches,
               const CalibrationOptions& opts) {
  reset_calibration(net);  // ranges describe these batches, not history
  InferenceModeScope inference;
  CalibrationScope scope(opts);
  for (const Tensor& batch : batches) net.forward(batch, /*train=*/false);
  // Recalibration redefines the quantized numerics: drop every packed
  // panel in the process so nothing quantized under the old ranges
  // survives into the next forward.
  bump_weight_generation();
}

void reset_calibration(Module& m) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    for (std::size_t i = 0; i < seq->size(); ++i)
      reset_calibration(seq->child(i));
    return;
  }
  if (auto* conv = dynamic_cast<Conv2d*>(&m)) {
    conv->set_calibration_range(0.f);
    return;
  }
  if (auto* lin = dynamic_cast<Linear*>(&m)) lin->set_calibration_range(0.f);
}

bool has_calibration(Module& m) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    for (std::size_t i = 0; i < seq->size(); ++i)
      if (!has_calibration(seq->child(i))) return false;
    return true;
  }
  if (auto* conv = dynamic_cast<Conv2d*>(&m))
    return conv->calibration_range() > 0.f;
  if (auto* lin = dynamic_cast<Linear*>(&m))
    return lin->calibration_range() > 0.f;
  return true;  // nothing quantizable in this module
}

void copy_calibration(Module& src, Module& dst) {
  if (auto* s = dynamic_cast<Sequential*>(&src)) {
    auto* d = dynamic_cast<Sequential*>(&dst);
    if (!d) return;
    const std::size_t n = std::min(s->size(), d->size());
    for (std::size_t i = 0; i < n; ++i)
      copy_calibration(s->child(i), d->child(i));
    return;
  }
  if (auto* s = dynamic_cast<Conv2d*>(&src)) {
    if (auto* d = dynamic_cast<Conv2d*>(&dst))
      d->set_calibration_range(s->calibration_range());
    return;
  }
  if (auto* s = dynamic_cast<Linear*>(&src)) {
    if (auto* d = dynamic_cast<Linear*>(&dst))
      d->set_calibration_range(s->calibration_range());
  }
}

namespace {
// The one walk order shared by collect/apply (and, through them, the
// .advp calibration section): Sequential children in order, depth-first.
void walk_ranges(Module& m, std::vector<float>* collect,
                 const std::vector<float>* apply, std::size_t* cursor) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    for (std::size_t i = 0; i < seq->size(); ++i)
      walk_ranges(seq->child(i), collect, apply, cursor);
    return;
  }
  if (auto* conv = dynamic_cast<Conv2d*>(&m)) {
    if (collect) collect->push_back(conv->calibration_range());
    if (apply) conv->set_calibration_range((*apply)[(*cursor)++]);
    return;
  }
  if (auto* lin = dynamic_cast<Linear*>(&m)) {
    if (collect) collect->push_back(lin->calibration_range());
    if (apply) lin->set_calibration_range((*apply)[(*cursor)++]);
  }
}
}  // namespace

std::vector<float> collect_calibration(Module& m) {
  std::vector<float> out;
  std::size_t cursor = 0;
  walk_ranges(m, &out, nullptr, &cursor);
  return out;
}

bool apply_calibration(Module& m, const std::vector<float>& ranges) {
  std::vector<float> probe;
  std::size_t cursor = 0;
  walk_ranges(m, &probe, nullptr, &cursor);
  if (probe.size() != ranges.size()) return false;
  walk_ranges(m, nullptr, &ranges, &cursor);
  bump_weight_generation();
  return true;
}

}  // namespace advp::nn

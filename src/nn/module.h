// Module abstraction with explicit reverse-mode differentiation.
//
// Each Module caches whatever it needs in forward() and returns
// d(loss)/d(input) from backward(). Parameter gradients accumulate into
// Param::grad until zero_grad(), and only after a train-mode forward.
// Exposing input gradients at every layer is a hard requirement of this
// library: white-box attacks differentiate the loss w.r.t. the *image*,
// not the weights.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace advp::nn {

namespace detail {
inline thread_local int g_inference_depth = 0;
}  // namespace detail

/// RAII marker for forward-only inference: while a scope is active on the
/// calling thread, layers skip their backward caches, and the models'
/// PlanCache may hand out a compiled ExecPlan (the one forward that fuses
/// BN and the activation into the conv epilogue); Sequential::forward
/// stays a plain child walk. Entered by the models' forward-only entry
/// points (TinyYolo::detect / objectness_score, DistNet::predict) — never
/// around forwards that a backward may follow (white-box attack oracles
/// backward through eval-mode forwards, so a bare `train == false` is NOT
/// a safe cache-skip signal).
class InferenceModeScope {
 public:
  InferenceModeScope() { ++detail::g_inference_depth; }
  ~InferenceModeScope() { --detail::g_inference_depth; }
  InferenceModeScope(const InferenceModeScope&) = delete;
  InferenceModeScope& operator=(const InferenceModeScope&) = delete;

  /// True when the calling thread is inside at least one scope.
  static bool active() { return detail::g_inference_depth > 0; }
};

/// A learnable tensor plus its accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}
};

/// Base class for differentiable layers.
class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output; `train` toggles dropout/batch-norm modes.
  virtual Tensor forward(const Tensor& x, bool train) = 0;
  /// Propagates d(loss)/d(output) to d(loss)/d(input). Must be called
  /// after a matching forward(). Parameter gradients accumulate only when
  /// that forward ran with `train == true`; after an eval forward only the
  /// input gradient is computed (the white-box oracle case), which skips
  /// the weight-gradient GEMMs.
  virtual Tensor backward(const Tensor& dy) = 0;
  /// Appends raw pointers to this module's parameters (stable while the
  /// module is alive).
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }

  std::vector<Param*> params() {
    std::vector<Param*> out;
    collect_params(out);
    return out;
  }

  void zero_grad() {
    for (Param* p : params()) p->grad.fill(0.f);
  }

  /// Total number of scalar parameters.
  std::size_t param_count() {
    std::size_t n = 0;
    for (Param* p : params()) n += p->value.numel();
    return n;
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace advp::nn

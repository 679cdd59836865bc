// Common attack vocabulary.
//
// Attacks operate on a batch-of-one image tensor x in [0,1] (shape
// [1,3,H,W]) and come in two flavours matching the paper's taxonomy:
//  - white-box: consume a GradOracle returning a loss J and dJ/dx; the
//    attack ASCENDS J (eqs. (2), (3), (6), (7));
//  - black-box: consume a ScoreOracle returning a scalar the attack
//    DESCENDS (SimBA's output-probability objective, §III-D).
//
// Every attack accepts an optional {0,1} mask of the same shape confining
// the perturbation (the paper's Table I setup perturbs only the region of
// the leading vehicle; RP2 constrains to the sign surface via eq. (6)'s
// M_x). An empty mask means "whole image".
#pragma once

#include <functional>
#include <vector>

#include "image/image.h"
#include "tensor/tensor.h"

namespace advp::attacks {

/// One white-box oracle evaluation: the loss value and its input gradient.
struct LossGrad {
  float loss = 0.f;  ///< J(x), the objective the attack ascends
  Tensor grad;       ///< dJ/dx, same shape as x
};

/// @brief White-box oracle: loss to ascend + gradient w.r.t. x.
using GradOracle = std::function<LossGrad(const Tensor& x)>;
/// @brief Black-box oracle: scalar score to descend (no gradients).
using ScoreOracle = std::function<float(const Tensor& x)>;

/// @brief Stacks same-shape [1,...] tensors into one [N,...] batch.
Tensor stack_batch(const std::vector<Tensor>& items);

/// @brief Builds a {0,1} mask tensor of shape [1,3,h,w] covering `roi`.
/// @param h Image height in pixels.
/// @param w Image width in pixels.
/// @param roi Region to unmask; clipped to the image bounds.
/// @return Mask with 1 inside `roi`, 0 elsewhere.
Tensor make_box_mask(int h, int w, const Box& roi);

/// @brief Zeroes masked-out entries of `t` in place.
/// @param mask {0,1} mask of the same shape; an empty mask is a no-op.
void apply_mask(Tensor& t, const Tensor& mask);

/// @brief Projects x onto the L-inf ball of radius eps around x0,
/// intersected with [0,1].
/// @param x Perturbed input, modified in place.
/// @param x0 Clean anchor point.
/// @param eps Ball radius.
/// @param mask Perturbation support; outside it x is reset to x0 exactly.
void project_linf(Tensor& x, const Tensor& x0, float eps, const Tensor& mask);

/// @brief Projects x onto the L2 ball of radius eps around x0 (then
/// clamps to [0,1]).
/// @param mask Perturbation support; outside it x is reset to x0 exactly.
void project_l2(Tensor& x, const Tensor& x0, float eps, const Tensor& mask);

}  // namespace advp::attacks

// Small polynomial utilities used by the built-in filter designers
// (src/kernels): convolution to expand pole/zero factors into direct-form
// coefficients, and evaluation for sanity checks.
#pragma once

#include <vector>

namespace slpwlo {

/// Coefficients in ascending powers: p[0] + p[1] x + p[2] x^2 + ...
using Polynomial = std::vector<double>;

/// Polynomial product (discrete convolution of coefficient sequences).
Polynomial poly_mul(const Polynomial& a, const Polynomial& b);

/// Evaluate p at x (Horner).
double poly_eval(const Polynomial& p, double x);

/// Expand the product of second-order factors (1 + c1 z^-1 + c2 z^-2) given
/// per-section (c1, c2) pairs; returns direct-form coefficients of length
/// 2 * sections + 1, leading coefficient 1.
Polynomial expand_biquad_sections(const std::vector<std::pair<double, double>>& sections);

}  // namespace slpwlo

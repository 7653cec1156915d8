#include "support/polynomial.hpp"

#include "support/diagnostics.hpp"

namespace slpwlo {

Polynomial poly_mul(const Polynomial& a, const Polynomial& b) {
    if (a.empty() || b.empty()) return {};
    Polynomial out(a.size() + b.size() - 1, 0.0);
    for (size_t i = 0; i < a.size(); ++i) {
        for (size_t j = 0; j < b.size(); ++j) {
            out[i + j] += a[i] * b[j];
        }
    }
    return out;
}

double poly_eval(const Polynomial& p, double x) {
    double acc = 0.0;
    for (auto it = p.rbegin(); it != p.rend(); ++it) {
        acc = acc * x + *it;
    }
    return acc;
}

Polynomial expand_biquad_sections(
    const std::vector<std::pair<double, double>>& sections) {
    Polynomial acc{1.0};
    for (const auto& [c1, c2] : sections) {
        acc = poly_mul(acc, Polynomial{1.0, c1, c2});
    }
    return acc;
}

}  // namespace slpwlo

// Decibel and power-of-two helpers shared by the accuracy model and the
// experiment harnesses. Header-only.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace slpwlo {

/// Linear power -> dB. Zero or negative power maps to -infinity.
inline double power_to_db(double power) {
    if (power <= 0.0) return -std::numeric_limits<double>::infinity();
    return 10.0 * std::log10(power);
}

/// dB -> linear power.
inline double db_to_power(double db) { return std::pow(10.0, db / 10.0); }

/// 2^exponent as a double, for arbitrary (possibly negative) exponents.
/// A normal result is built from its biased exponent bits; subnormal,
/// zero and infinite results come from std::ldexp. Powers of two are
/// exact, so both give the bits std::ldexp(1.0, exponent) gives.
inline double pow2(int exponent) {
    if (exponent >= -1022 && exponent <= 1023) {
        return std::bit_cast<double>(static_cast<uint64_t>(exponent + 1023)
                                     << 52);
    }
    return std::ldexp(1.0, exponent);
}

/// Smallest integer i such that value <= 2^i. Requires value > 0.
inline int ceil_log2(double value) {
    int e = static_cast<int>(std::ceil(std::log2(value)));
    // Guard against floating rounding: make sure the bound actually holds.
    while (pow2(e) < value) ++e;
    while (e > -1074 && pow2(e - 1) >= value) --e;
    return e;
}

}  // namespace slpwlo

#include "support/interval.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

#include "support/diagnostics.hpp"

namespace slpwlo {

Interval::Interval() : lo_(0.0), hi_(0.0), empty_(true) {}

Interval::Interval(double point) : Interval(point, point) {}

Interval::Interval(double lo, double hi) : lo_(lo), hi_(hi), empty_(false) {
    SLPWLO_CHECK(!std::isnan(lo) && !std::isnan(hi),
                 "interval bounds must not be NaN");
    SLPWLO_CHECK(lo <= hi, "interval lower bound exceeds upper bound");
}

Interval Interval::empty() { return Interval(); }

double Interval::max_abs() const {
    if (empty_) return 0.0;
    return std::max(std::fabs(lo_), std::fabs(hi_));
}

bool Interval::contains(double value) const {
    return !empty_ && lo_ <= value && value <= hi_;
}

bool Interval::contains(const Interval& other) const {
    if (other.empty_) return true;
    return !empty_ && lo_ <= other.lo_ && other.hi_ <= hi_;
}

double Interval::width() const { return empty_ ? 0.0 : hi_ - lo_; }

Interval Interval::hull(const Interval& other) const {
    if (empty_) return other;
    if (other.empty_) return *this;
    return Interval(std::min(lo_, other.lo_), std::max(hi_, other.hi_));
}

Interval Interval::intersect(const Interval& other) const {
    if (empty_ || other.empty_) return Interval::empty();
    const double lo = std::max(lo_, other.lo_);
    const double hi = std::min(hi_, other.hi_);
    if (lo > hi) return Interval::empty();
    return Interval(lo, hi);
}

Interval Interval::widened(double factor) const {
    SLPWLO_CHECK(factor >= 1.0, "widening factor must be >= 1");
    if (empty_) return *this;
    const double lo = lo_ < 0 ? lo_ * factor : lo_ / factor;
    const double hi = hi_ > 0 ? hi_ * factor : hi_ / factor;
    return Interval(std::min(lo, hi), std::max(lo, hi));
}

bool Interval::operator==(const Interval& other) const {
    if (empty_ != other.empty_) return false;
    if (empty_) return true;
    return lo_ == other.lo_ && hi_ == other.hi_;
}

Interval Interval::operator-() const {
    if (empty_) return *this;
    return Interval(-hi_, -lo_);
}

namespace {

// Endpoint arithmetic in the extended reals: 0 * inf := 0 (the "cset"
// convention) and opposing infinities saturate toward the conservative
// side. Keeps diverging abstract executions (IIR feedback) NaN-free so the
// range analysis can detect divergence instead of crashing.
double mul_bound(double a, double b) {
    if (a == 0.0 || b == 0.0) return 0.0;
    return a * b;
}

double add_bound_lo(double a, double b) {
    const double s = a + b;
    return std::isnan(s) ? -std::numeric_limits<double>::infinity() : s;
}

double add_bound_hi(double a, double b) {
    const double s = a + b;
    return std::isnan(s) ? std::numeric_limits<double>::infinity() : s;
}

}  // namespace

Interval Interval::operator+(const Interval& rhs) const {
    if (empty_ || rhs.empty_) return Interval::empty();
    return Interval(add_bound_lo(lo_, rhs.lo_), add_bound_hi(hi_, rhs.hi_));
}

Interval Interval::operator-(const Interval& rhs) const {
    if (empty_ || rhs.empty_) return Interval::empty();
    return Interval(add_bound_lo(lo_, -rhs.hi_), add_bound_hi(hi_, -rhs.lo_));
}

Interval Interval::operator*(const Interval& rhs) const {
    if (empty_ || rhs.empty_) return Interval::empty();
    const double a = mul_bound(lo_, rhs.lo_);
    const double b = mul_bound(lo_, rhs.hi_);
    const double c = mul_bound(hi_, rhs.lo_);
    const double d = mul_bound(hi_, rhs.hi_);
    return Interval(std::min(std::min(a, b), std::min(c, d)),
                    std::max(std::max(a, b), std::max(c, d)));
}

Interval Interval::operator/(const Interval& rhs) const {
    if (empty_ || rhs.empty_) return Interval::empty();
    SLPWLO_CHECK(!rhs.contains(0.0),
                 "interval division by an interval containing zero");
    const double a = lo_ / rhs.lo_;
    const double b = lo_ / rhs.hi_;
    const double c = hi_ / rhs.lo_;
    const double d = hi_ / rhs.hi_;
    return Interval(std::min(std::min(a, b), std::min(c, d)),
                    std::max(std::max(a, b), std::max(c, d)));
}

std::string Interval::str() const {
    std::ostringstream os;
    os << *this;
    return os.str();
}

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
    if (iv.is_empty()) return os << "[empty]";
    return os << "[" << iv.lo() << ", " << iv.hi() << "]";
}

}  // namespace slpwlo

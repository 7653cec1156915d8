// Closed real intervals with outward-directed arithmetic.
//
// Used by the dynamic-range analysis (fixpoint/range_analysis) to propagate
// the value ranges declared on kernel inputs through the data-flow graph, as
// in the ID.Fix front half of the paper's flow. All operations are
// conservative: the result interval contains every value obtainable by
// applying the operation to points of the operand intervals.
#pragma once

#include <iosfwd>
#include <string>

namespace slpwlo {

class Interval {
public:
    /// The empty interval (identity for hull()).
    Interval();

    /// [point, point].
    explicit Interval(double point);

    /// [lo, hi]; throws Error if lo > hi or either bound is NaN.
    Interval(double lo, double hi);

    static Interval empty();

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    bool is_empty() const { return empty_; }

    /// Largest absolute value contained in the interval (0 for empty).
    double max_abs() const;

    /// True if `value` lies within the interval (inclusive).
    bool contains(double value) const;

    /// True if `other` is a subset of this interval.
    bool contains(const Interval& other) const;

    /// Width hi - lo (0 for empty).
    double width() const;

    /// Smallest interval containing both operands.
    Interval hull(const Interval& other) const;

    /// Intersection; empty if disjoint.
    Interval intersect(const Interval& other) const;

    /// Widen both bounds multiplicatively away from zero by `factor` >= 1.
    /// Used as a safety margin on simulation-derived ranges.
    Interval widened(double factor) const;

    bool operator==(const Interval& other) const;
    bool operator!=(const Interval& other) const { return !(*this == other); }

    Interval operator-() const;
    Interval operator+(const Interval& rhs) const;
    Interval operator-(const Interval& rhs) const;
    Interval operator*(const Interval& rhs) const;
    /// Division; throws Error if rhs contains zero.
    Interval operator/(const Interval& rhs) const;

    std::string str() const;

private:
    double lo_;
    double hi_;
    bool empty_;
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

}  // namespace slpwlo

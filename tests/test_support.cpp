// Unit tests for the support library: intervals, RNG, polynomials, text,
// dB math, kv serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "support/dbmath.hpp"
#include "support/diagnostics.hpp"
#include "support/interval.hpp"
#include "support/kv_format.hpp"
#include "support/polynomial.hpp"
#include "support/rng.hpp"
#include "support/text.hpp"

namespace slpwlo {
namespace {

// --- Interval ----------------------------------------------------------------

TEST(Interval, DefaultIsEmpty) {
    Interval iv;
    EXPECT_TRUE(iv.is_empty());
    EXPECT_EQ(iv.max_abs(), 0.0);
    EXPECT_FALSE(iv.contains(0.0));
}

TEST(Interval, PointInterval) {
    Interval iv(2.5);
    EXPECT_FALSE(iv.is_empty());
    EXPECT_EQ(iv.lo(), 2.5);
    EXPECT_EQ(iv.hi(), 2.5);
    EXPECT_TRUE(iv.contains(2.5));
    EXPECT_EQ(iv.width(), 0.0);
}

TEST(Interval, InvalidBoundsThrow) {
    EXPECT_THROW(Interval(1.0, -1.0), Error);
    EXPECT_THROW(Interval(std::nan(""), 1.0), Error);
}

TEST(Interval, HullAndIntersect) {
    const Interval a(-1.0, 2.0);
    const Interval b(1.0, 5.0);
    EXPECT_EQ(a.hull(b), Interval(-1.0, 5.0));
    EXPECT_EQ(a.intersect(b), Interval(1.0, 2.0));
    EXPECT_TRUE(Interval(3.0, 4.0).intersect(Interval(-2.0, 2.0)).is_empty());
    EXPECT_EQ(Interval::empty().hull(a), a);
}

TEST(Interval, ArithmeticBasics) {
    const Interval a(-1.0, 2.0);
    const Interval b(3.0, 4.0);
    EXPECT_EQ(a + b, Interval(2.0, 6.0));
    EXPECT_EQ(a - b, Interval(-5.0, -1.0));
    EXPECT_EQ(-a, Interval(-2.0, 1.0));
    EXPECT_EQ(a * b, Interval(-4.0, 8.0));
    EXPECT_EQ(b / Interval(2.0, 2.0), Interval(1.5, 2.0));
    EXPECT_THROW(b / a, Error);  // a contains zero
}

TEST(Interval, WidenedMovesAwayFromZero) {
    const Interval a(-0.5, 2.0);
    const Interval w = a.widened(2.0);
    EXPECT_DOUBLE_EQ(w.lo(), -1.0);
    EXPECT_DOUBLE_EQ(w.hi(), 4.0);
    EXPECT_TRUE(w.contains(a));
    EXPECT_THROW(a.widened(0.5), Error);
}

/// Property: interval ops are conservative — the result of the operation on
/// sampled points is contained in the interval of the operation.
class IntervalContainment : public ::testing::TestWithParam<int> {};

TEST_P(IntervalContainment, OpsContainPointResults) {
    Rng rng(static_cast<uint64_t>(GetParam()), "interval-prop");
    for (int trial = 0; trial < 50; ++trial) {
        const double a1 = rng.uniform(-10, 10), a2 = rng.uniform(-10, 10);
        const double b1 = rng.uniform(-10, 10), b2 = rng.uniform(-10, 10);
        const Interval ia(std::min(a1, a2), std::max(a1, a2));
        const Interval ib(std::min(b1, b2), std::max(b1, b2));
        for (int s = 0; s < 8; ++s) {
            const double pa = rng.uniform(ia.lo(), ia.hi());
            const double pb = rng.uniform(ib.lo(), ib.hi());
            EXPECT_TRUE((ia + ib).contains(pa + pb));
            EXPECT_TRUE((ia - ib).contains(pa - pb));
            EXPECT_TRUE((ia * ib).contains(pa * pb));
            EXPECT_TRUE((-ia).contains(-pa));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalContainment,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- Rng -----------------------------------------------------------------------

TEST(Rng, DeterministicPerSeedAndStream) {
    Rng a(42, "stream");
    Rng b(42, "stream");
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
    Rng c(42, "other");
    Rng d(43, "stream");
    EXPECT_NE(Rng(42, "stream").next_u64(), c.next_u64());
    EXPECT_NE(Rng(42, "stream").next_u64(), d.next_u64());
}

TEST(Rng, UniformInRange) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
        const int k = rng.uniform_int(-3, 3);
        EXPECT_GE(k, -3);
        EXPECT_LE(k, 3);
    }
}

TEST(Rng, UniformMeanIsCentered) {
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
    Rng rng(13);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sum_sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.1);
}

// --- Polynomial -------------------------------------------------------------

TEST(Polynomial, MulMatchesHandExpansion) {
    // (1 + 2x)(3 - x) = 3 + 5x - 2x^2
    const Polynomial p = poly_mul({1, 2}, {3, -1});
    ASSERT_EQ(p.size(), 3u);
    EXPECT_DOUBLE_EQ(p[0], 3.0);
    EXPECT_DOUBLE_EQ(p[1], 5.0);
    EXPECT_DOUBLE_EQ(p[2], -2.0);
}

TEST(Polynomial, EvalHorner) {
    const Polynomial p{1, -2, 3};  // 1 - 2x + 3x^2
    EXPECT_DOUBLE_EQ(poly_eval(p, 2.0), 1 - 4 + 12);
    EXPECT_DOUBLE_EQ(poly_eval(p, 0.0), 1.0);
}

TEST(Polynomial, ExpandBiquadsDegree) {
    const Polynomial p = expand_biquad_sections({{0.5, 0.25}, {-0.3, 0.09}});
    ASSERT_EQ(p.size(), 5u);
    EXPECT_DOUBLE_EQ(p[0], 1.0);
    // Evaluate the product directly at a point to validate the expansion.
    const double x = 0.7;
    const double direct = (1 + 0.5 * x + 0.25 * x * x) *
                          (1 - 0.3 * x + 0.09 * x * x);
    EXPECT_NEAR(poly_eval(p, x), direct, 1e-12);
}

// --- dB math -------------------------------------------------------------------

TEST(DbMath, PowerRoundTrip) {
    for (const double db : {-60.0, -20.0, 0.0, 10.0}) {
        EXPECT_NEAR(power_to_db(db_to_power(db)), db, 1e-9);
    }
    EXPECT_EQ(power_to_db(0.0), -std::numeric_limits<double>::infinity());
}

TEST(DbMath, CeilLog2) {
    EXPECT_EQ(ceil_log2(1.0), 0);
    EXPECT_EQ(ceil_log2(1.5), 1);
    EXPECT_EQ(ceil_log2(2.0), 1);
    EXPECT_EQ(ceil_log2(2.1), 2);
    EXPECT_EQ(ceil_log2(0.5), -1);
    EXPECT_EQ(ceil_log2(0.3), -1);
    EXPECT_EQ(ceil_log2(0.25), -2);
}

// pow2 builds normal results from exponent bits; every exponent from
// well below the subnormal range (underflow to 0) to above the largest
// finite power (overflow to inf) must give std::ldexp's bits.
TEST(DbMath, Pow2) {
    EXPECT_DOUBLE_EQ(pow2(3), 8.0);
    EXPECT_DOUBLE_EQ(pow2(-3), 0.125);
    EXPECT_DOUBLE_EQ(pow2(0), 1.0);
    auto bits = [](double v) {
        uint64_t b;
        std::memcpy(&b, &v, sizeof(b));
        return b;
    };
    for (int e = -1100; e <= 1100; ++e) {
        ASSERT_EQ(bits(pow2(e)), bits(std::ldexp(1.0, e))) << "2^" << e;
    }
    EXPECT_EQ(pow2(-1075), 0.0);
    EXPECT_GT(pow2(-1074), 0.0);
    EXPECT_TRUE(std::isinf(pow2(1024)));
}

// --- text ------------------------------------------------------------------------

TEST(Text, Join) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Text, FormatDouble) {
    EXPECT_EQ(format_double(1.5), "1.5");
    EXPECT_EQ(format_double(0.125), "0.125");
    EXPECT_EQ(format_double(1234567.0, 4), "1.235e+06");
}

// --- diagnostics ------------------------------------------------------------------

TEST(Diagnostics, CheckThrowsError) {
    EXPECT_THROW(SLPWLO_CHECK(false, "boom"), Error);
    EXPECT_NO_THROW(SLPWLO_CHECK(true, "fine"));
}

TEST(Diagnostics, AssertThrowsInternalError) {
    try {
        SLPWLO_ASSERT(1 == 2, "math broke");
        FAIL() << "expected InternalError";
    } catch (const InternalError& e) {
        EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    }
}

TEST(Diagnostics, ParseErrorCarriesLocation) {
    const ParseError e("bad token", 3, 14);
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 14);
    EXPECT_NE(std::string(e.what()).find("3:14"), std::string::npos);
}

// --- kv serialization ---------------------------------------------------------

TEST(KvFormat, WritePairRoundTripsThroughTheReader) {
    std::ostringstream os;
    kv::write_pair(os, "name", "MYDSP64");
    kv::write_pair(os, "label", "a value with spaces");
    kv::KvReader reader(os.str(), "<round-trip>");
    kv::KvLine line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line.key, "name");
    EXPECT_EQ(line.value, "MYDSP64");
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line.key, "label");
    EXPECT_EQ(line.value, "a value with spaces");
    EXPECT_FALSE(reader.next(line));
}

TEST(KvFormat, WriteRejectsValuesTheParserWouldCorrupt) {
    std::ostringstream os;
    // Regression: an embedded newline used to serialize silently and come
    // back as two lines (corrupting every container format built on the
    // line-oriented reader). It must hard-error on write instead.
    EXPECT_THROW(kv::write_pair(os, "name", "two\nlines"), Error);
    EXPECT_THROW(kv::write_pair(os, "name", "cr\rreturn"), Error);
    EXPECT_THROW(kv::write_pair(os, "name", "half # comment"), Error);
    EXPECT_THROW(kv::write_pair(os, "name", " padded "), Error);
    EXPECT_THROW(kv::check_round_trips("label", "a\nb"), Error);
    EXPECT_NO_THROW(kv::check_round_trips("label", "clean value"));
    // Keys that would not split back at the same place are rejected too.
    EXPECT_THROW(kv::write_pair(os, "", "v"), Error);
    EXPECT_THROW(kv::write_pair(os, "k=ey", "v"), Error);
    EXPECT_THROW(kv::write_pair(os, "key\nkey", "v"), Error);
    EXPECT_EQ(os.str(), "");  // nothing corrupt ever reached the stream
}

}  // namespace
}  // namespace slpwlo

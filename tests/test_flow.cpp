// End-to-end flow tests: the full WLO-SLP / WLO-First / float pipelines on
// the benchmark kernels, checking the paper's qualitative claims.
#include <gtest/gtest.h>

#include "accuracy/sim_evaluator.hpp"
#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "target/target_model.hpp"
#include "support/diagnostics.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

/// Shared contexts on the small kernels (cheap gain calibration).
const KernelContext& ctx_fir() {
    static const KernelContext ctx(::slpwlo::testing::small_fir());
    return ctx;
}
const KernelContext& ctx_iir() {
    static const KernelContext ctx = [] {
        RangeOptions options;
        options.method = RangeMethod::Auto;
        return KernelContext(::slpwlo::testing::small_iir(), options);
    }();
    return ctx;
}
const KernelContext& ctx_conv() {
    static const KernelContext ctx(::slpwlo::testing::small_conv());
    return ctx;
}

TEST(Flow, WloSlpProducesGroupsAndMeetsConstraint) {
    FlowOptions options;
    options.accuracy_db = -30.0;
    for (const KernelContext* ctx : {&ctx_fir(), &ctx_iir(), &ctx_conv()}) {
        const FlowResult result =
            run_wlo_slp_flow(*ctx, targets::xentium(), options);
        EXPECT_GT(result.group_count, 0) << ctx->kernel().name();
        EXPECT_LE(result.analytic_noise_db, -30.0 + 1e-9);
        EXPECT_GT(result.scalar_cycles, 0);
        EXPECT_GT(result.simd_cycles, 0);
    }
}

TEST(Flow, SimdBeatsScalarForJointFlowAtLooseConstraint) {
    FlowOptions options;
    options.accuracy_db = -15.0;
    for (const KernelContext* ctx : {&ctx_fir(), &ctx_conv()}) {
        const FlowResult result =
            run_wlo_slp_flow(*ctx, targets::xentium(), options);
        EXPECT_LT(result.simd_cycles, result.scalar_cycles)
            << ctx->kernel().name();
    }
}

TEST(Flow, JointBeatsDecoupledOnAverage) {
    // The paper's headline claim, on the small kernels: averaged over a
    // constraint sweep, WLO-SLP's SIMD code is at least as fast as
    // WLO-First's.
    double joint = 0.0, decoupled = 0.0;
    for (const double a : {-15.0, -30.0, -45.0}) {
        FlowOptions options;
        options.accuracy_db = a;
        for (const KernelContext* ctx : {&ctx_fir(), &ctx_conv()}) {
            joint += static_cast<double>(
                run_wlo_slp_flow(*ctx, targets::vex4(), options).simd_cycles);
            decoupled += static_cast<double>(
                run_wlo_first_flow(*ctx, targets::vex4(), options)
                    .simd_cycles);
        }
    }
    EXPECT_LE(joint, decoupled * 1.02);
}

TEST(Flow, FloatCyclesDominateOnSoftFloatTarget) {
    FlowOptions options;
    options.accuracy_db = -30.0;
    const long long fc = float_cycles(ctx_fir(), targets::xentium());
    const FlowResult fixed =
        run_wlo_slp_flow(ctx_fir(), targets::xentium(), options);
    EXPECT_GT(speedup(fc, fixed.simd_cycles), 5.0);
}

TEST(Flow, FloatCompetitiveOnHardFpTarget) {
    FlowOptions options;
    options.accuracy_db = -30.0;
    const long long fc = float_cycles(ctx_fir(), targets::st240());
    const FlowResult fixed =
        run_wlo_slp_flow(ctx_fir(), targets::st240(), options);
    const double s = speedup(fc, fixed.simd_cycles);
    EXPECT_GT(s, 0.5);
    EXPECT_LT(s, 4.0);
}

TEST(Flow, DeterministicAcrossRuns) {
    FlowOptions options;
    options.accuracy_db = -25.0;
    const FlowResult a = run_wlo_slp_flow(ctx_fir(), targets::vex1(), options);
    const FlowResult b = run_wlo_slp_flow(ctx_fir(), targets::vex1(), options);
    EXPECT_EQ(a.simd_cycles, b.simd_cycles);
    EXPECT_EQ(a.group_count, b.group_count);
    EXPECT_EQ(a.analytic_noise_db, b.analytic_noise_db);
}

TEST(Flow, Vex1GainsMoreThanVex4) {
    // The paper's ILP observation: SIMD speedup on the 1-wide VEX exceeds
    // the 4-wide VEX (which hides op-count savings in its ILP).
    FlowOptions options;
    options.accuracy_db = -15.0;
    const FlowResult r1 = run_wlo_slp_flow(ctx_fir(), targets::vex1(), options);
    const FlowResult r4 = run_wlo_slp_flow(ctx_fir(), targets::vex4(), options);
    const double s1 = speedup(r1.scalar_cycles, r1.simd_cycles);
    const double s4 = speedup(r4.scalar_cycles, r4.simd_cycles);
    EXPECT_GT(s1, s4 * 0.95);
}

TEST(Flow, ReportHelpers) {
    FlowOptions options;
    options.accuracy_db = -25.0;
    const FlowResult result =
        run_wlo_slp_flow(ctx_fir(), targets::xentium(), options);
    const std::string summary = summarize(result);
    EXPECT_NE(summary.find("WLO-SLP"), std::string::npos);
    EXPECT_NE(summary.find("XENTIUM"), std::string::npos);
    const std::string histogram = wl_histogram(result.spec);
    EXPECT_NE(histogram.find("wl"), std::string::npos);
    EXPECT_THROW(speedup(100, 0), Error);
    EXPECT_DOUBLE_EQ(speedup(100, 50), 2.0);
}

TEST(Flow, MeasuredNoiseTracksAnalytic) {
    FlowOptions options;
    options.accuracy_db = -40.0;
    const FlowResult result =
        run_wlo_slp_flow(ctx_fir(), targets::vex4(), options);
    const double measured =
        SimulationEvaluator(ctx_fir().kernel(), 2).noise_power_db(result.spec);
    EXPECT_NEAR(measured, result.analytic_noise_db, 4.0);
}

}  // namespace
}  // namespace slpwlo

// Tests for the functional simulators (double reference and bit-accurate
// fixed-point).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "fixpoint/iwl.hpp"
#include "kernels/kernels.hpp"
#include "sim/double_sim.hpp"
#include "sim/fixed_sim.hpp"
#include "sim/sim_tape.hpp"
#include "support/dbmath.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::make_two_tap;
using ::slpwlo::testing::small_fir;

TEST(DoubleSim, TwoTapMatchesClosedForm) {
    const Kernel k = make_two_tap(0.5, 0.25);
    const Stimulus stimulus = make_stimulus(k, 1);
    const auto result = run_double(k, stimulus);
    ASSERT_EQ(result.outputs.size(), 64u);
    const auto& x = stimulus[0];
    for (size_t n = 0; n < result.outputs.size(); ++n) {
        EXPECT_NEAR(result.outputs[n], 0.5 * x[n] + 0.25 * x[n + 1], 1e-12);
    }
}

TEST(DoubleSim, FirMatchesDirectConvolution) {
    const Kernel& k = small_fir();
    const Stimulus stimulus = make_stimulus(k, 2);
    const auto result = run_double(k, stimulus);
    const auto& x = stimulus[0];
    const auto& c = k.array(ArrayId(1)).values;
    const int taps = static_cast<int>(c.size());
    ASSERT_EQ(result.outputs.size(), 128u);
    for (int n = 0; n < 128; n += 17) {
        double expected = 0.0;
        for (int t = 0; t < taps; ++t) {
            expected += c[t] * x[n + taps - 1 - t];
        }
        EXPECT_NEAR(result.outputs[n], expected, 1e-12);
    }
}

TEST(DoubleSim, IirImpulseResponseIsStable) {
    // Feed an impulse through the IIR and check the response decays.
    const Kernel& k = ::slpwlo::testing::small_iir();
    Stimulus stimulus(k.arrays().size());
    const ArrayDecl& x = k.array(ArrayId(0));
    stimulus[0].assign(static_cast<size_t>(x.size), 0.0);
    stimulus[0][20] = 1.0;  // impulse after warm-up
    const auto result = run_double(k, stimulus);
    double early = 0.0, late = 0.0;
    for (int i = 20; i < 50; ++i) early += std::fabs(result.outputs[i]);
    for (int i = 90; i < 120; ++i) late += std::fabs(result.outputs[i]);
    EXPECT_GT(early, 1e-6);
    EXPECT_LT(late, early * 0.05);
}

TEST(DoubleSim, StimulusIsDeterministicAndInRange) {
    const Kernel& k = small_fir();
    const Stimulus a = make_stimulus(k, 7);
    const Stimulus b = make_stimulus(k, 7);
    EXPECT_EQ(a[0], b[0]);
    const Stimulus c = make_stimulus(k, 8);
    EXPECT_NE(a[0], c[0]);
    for (const double v : a[0]) {
        EXPECT_GE(v, -1.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(DoubleSim, InjectionAddsDeltaOnce) {
    const Kernel k = make_two_tap(1.0, 0.0);
    const Stimulus stimulus = make_stimulus(k, 3);
    const auto base = run_double(k, stimulus);

    // Find the store op and perturb its 10th occurrence.
    OpId store_op;
    for (const auto& op : k.ops()) {
        if (op.kind == OpKind::Store) {
            store_op = OpId(static_cast<int32_t>(&op - k.ops().data()));
        }
    }
    DoubleSimOptions options;
    options.injections.push_back({store_op, 10, 0.5});
    const auto perturbed = run_double(k, stimulus, options);
    for (size_t i = 0; i < base.outputs.size(); ++i) {
        const double expected = base.outputs[i] + (i == 10 ? 0.5 : 0.0);
        EXPECT_NEAR(perturbed.outputs[i], expected, 1e-12);
    }
}

TEST(DoubleSim, ArrayInjectionPerturbsInitialContents) {
    const Kernel k = make_two_tap(1.0, 0.0);  // y[n] = x[n]
    const Stimulus stimulus = make_stimulus(k, 4);
    const auto base = run_double(k, stimulus);
    DoubleSimOptions options;
    options.array_injections.push_back({ArrayId(0), 5, 0.25});
    const auto perturbed = run_double(k, stimulus, options);
    for (size_t i = 0; i < base.outputs.size(); ++i) {
        const double expected = base.outputs[i] + (i == 5 ? 0.25 : 0.0);
        EXPECT_NEAR(perturbed.outputs[i], expected, 1e-12);
    }
}

TEST(DoubleSim, RecordedRangesCoverOutputs) {
    const Kernel& k = small_fir();
    DoubleSimOptions options;
    options.record_ranges = true;
    const auto result = run_double(k, make_stimulus(k, 5), options);
    const Interval y_range = result.array_ranges[2];
    for (const double v : result.outputs) {
        EXPECT_TRUE(y_range.contains(v));
    }
}

// --- fixed-point simulator ------------------------------------------------------

TEST(FixedSim, ExactWhenFormatsAreWide) {
    // With very wide formats the fixed-point outputs should be very close
    // to the reference (inputs/coefficients still get quantized at 2^-28).
    const Kernel& k = small_fir();
    FixedPointSpec spec = ::slpwlo::testing::initial_spec(k);
    for (const NodeRef node : spec.nodes()) {
        spec.set_format(node, FixedFormat(spec.format(node).iwl, 28));
    }
    const Stimulus stimulus = make_stimulus(k, 6);
    const double power = measure_noise_power(k, spec, stimulus);
    EXPECT_LT(power_to_db(power), -140.0);
}

TEST(FixedSim, OutputsAreOnTheGrid) {
    const Kernel k = make_two_tap();
    FixedPointSpec spec = ::slpwlo::testing::initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(spec, 8);
    const ArrayId y = k.find_array("y");
    const double step = spec.array_format(y).step();
    const auto result = run_fixed(k, spec, make_stimulus(k, 7));
    for (const double v : result.outputs) {
        const double ratio = v / step;
        EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
    }
}

TEST(FixedSim, TruncationBiasIsNegative) {
    // With truncation, the mean error must be <= 0 (biased down).
    const Kernel& k = small_fir();
    FixedPointSpec spec = ::slpwlo::testing::initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(spec, 12);
    const Stimulus stimulus = make_stimulus(k, 8);
    const auto ref = run_double(k, stimulus);
    const auto fix = run_fixed(k, spec, stimulus);
    double bias = 0.0;
    for (size_t i = 0; i < ref.outputs.size(); ++i) {
        bias += fix.outputs[i] - ref.outputs[i];
    }
    EXPECT_LT(bias / static_cast<double>(ref.outputs.size()), 0.0);
}

TEST(FixedSim, RoundingBeatsTruncation) {
    const Kernel& k = small_fir();
    FixedPointSpec trunc_spec = ::slpwlo::testing::initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(trunc_spec, 12);
    FixedPointSpec round_spec = trunc_spec;
    round_spec.set_quant_mode(QuantMode::Round);
    const Stimulus stimulus = make_stimulus(k, 9);
    EXPECT_LT(measure_noise_power(k, round_spec, stimulus),
              measure_noise_power(k, trunc_spec, stimulus));
}

/// Property: noise power decreases (monotonically, roughly) with word length.
class FixedSimWlSweep : public ::testing::TestWithParam<int> {};

TEST_P(FixedSimWlSweep, MoreBitsLessNoise) {
    const int wl = GetParam();
    const Kernel& k = small_fir();
    const Stimulus stimulus = make_stimulus(k, 10);

    FixedPointSpec narrow = ::slpwlo::testing::initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(narrow, wl);
    FixedPointSpec wide = ::slpwlo::testing::initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(wide, wl + 4);

    EXPECT_GT(measure_noise_power(k, narrow, stimulus),
              measure_noise_power(k, wide, stimulus));
}

INSTANTIATE_TEST_SUITE_P(WordLengths, FixedSimWlSweep,
                         ::testing::Values(8, 10, 12, 16, 20));

TEST(FixedSim, OverflowCountedWhenIwlTooSmall) {
    const Kernel k = make_two_tap(1.0, 1.0);  // |y| can reach 2
    FixedPointSpec spec = ::slpwlo::testing::initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(spec, 16);
    // Sabotage the output IWL.
    const ArrayId y = k.find_array("y");
    spec.set_format(NodeRef::of_array(y), FixedFormat(1, 15));
    // Sum node too.
    const auto result = run_fixed(k, spec, make_stimulus(k, 11));
    EXPECT_GT(result.overflow_count, 0);
}

TEST(SimTape, StepVectorIsSizedExactly) {
    // The step count is known before the walk, so the tape never holds
    // the slack of a doubling vector (FIR's tape is ~6 MB).
    const Kernel fir = kernels::make_fir64();
    const SimTape tape(fir);
    EXPECT_EQ(tape.steps().capacity(), tape.steps().size());
    EXPECT_GT(tape.steps().size(), 0u);
}

// --- compiled tape vs tree walker ----------------------------------------
// The SimTape replay is an optimization, not a semantic change: for every
// registry kernel, word-length preset and quantization mode, outputs (and
// overflow counts) must match the walkers bit for bit.

uint64_t bits_of(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

void expect_outputs_bitwise_equal(const std::vector<double>& tape,
                                  const std::vector<double>& walker,
                                  const std::string& what) {
    ASSERT_EQ(tape.size(), walker.size()) << what;
    for (size_t i = 0; i < tape.size(); ++i) {
        ASSERT_EQ(bits_of(tape[i]), bits_of(walker[i]))
            << what << " output " << i << ": tape " << tape[i] << " walker "
            << walker[i];
    }
}

TEST(SimTape, DoubleReplayMatchesWalkerBitwiseAcrossRegistry) {
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimTape tape(bk.kernel);
        const Stimulus stimulus = make_stimulus(bk.kernel, 23);

        DoubleSimOptions options;
        options.record_ranges = true;
        const DoubleSimResult walker =
            run_double_walker(bk.kernel, stimulus, options);
        const DoubleSimResult replay = run_double(tape, stimulus, options);

        expect_outputs_bitwise_equal(replay.outputs, walker.outputs, name);
        ASSERT_EQ(replay.var_ranges.size(), walker.var_ranges.size());
        for (size_t i = 0; i < replay.var_ranges.size(); ++i) {
            EXPECT_EQ(bits_of(replay.var_ranges[i].lo()),
                      bits_of(walker.var_ranges[i].lo()))
                << name << " var " << i;
            EXPECT_EQ(bits_of(replay.var_ranges[i].hi()),
                      bits_of(walker.var_ranges[i].hi()))
                << name << " var " << i;
        }
        ASSERT_EQ(replay.array_ranges.size(), walker.array_ranges.size());
        for (size_t i = 0; i < replay.array_ranges.size(); ++i) {
            EXPECT_EQ(bits_of(replay.array_ranges[i].lo()),
                      bits_of(walker.array_ranges[i].lo()))
                << name << " array " << i;
            EXPECT_EQ(bits_of(replay.array_ranges[i].hi()),
                      bits_of(walker.array_ranges[i].hi()))
                << name << " array " << i;
        }
    }
}

TEST(SimTape, FixedReplayMatchesWalkerBitwiseAcrossRegistry) {
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimTape tape(bk.kernel);
        const Stimulus stimulus = make_stimulus(bk.kernel, 29);

        for (const int base_wl : {8, 12, 16}) {
            for (const QuantMode mode :
                 {QuantMode::Truncate, QuantMode::Round}) {
                FixedPointSpec spec(bk.kernel);
                spec.set_quant_mode(mode);
                // Non-uniform WLs (and a deliberately tight IWL) so the
                // comparison also covers saturation paths.
                size_t i = 0;
                for (const NodeRef node : spec.nodes()) {
                    const int wl = base_wl + static_cast<int>(i++ % 3);
                    spec.set_format(node, FixedFormat(4, wl - 4));
                }

                const FixedSimResult walker =
                    run_fixed_walker(bk.kernel, spec, stimulus);
                const FixedSimResult replay = run_fixed(tape, spec, stimulus);

                const std::string what = name + " wl" +
                                         std::to_string(base_wl) + " " +
                                         to_string(mode);
                expect_outputs_bitwise_equal(replay.outputs, walker.outputs,
                                             what);
                EXPECT_EQ(replay.overflow_count, walker.overflow_count)
                    << what;
            }
        }
    }
}

}  // namespace
}  // namespace slpwlo

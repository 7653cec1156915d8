// Differential tests for the compile-and-execute backend (src/exec).
//
// The compiled artifact must be a bit-exact stand-in for the interpreted
// simulators: raw fixed-point outputs and overflow counts identical to
// SimTape::run_fixed (and the tree walker), and CompiledEvaluator's noise
// power identical to SimulationEvaluator's — across the registry kernels,
// word-length presets and quantization modes — and a measuring sweep's
// simulated noise. Tests that need the host toolchain skip when no
// compiler is usable (matching tests/test_codegen.cpp).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>

#include "accuracy/sim_evaluator.hpp"
#include "codegen/fixed_c.hpp"
#include "exec/compiled_evaluator.hpp"
#include "exec/compiled_kernel.hpp"
#include "exec/jit_cache.hpp"
#include "exec/measured_cost.hpp"
#include "exec/toolchain.hpp"
#include "flow/report.hpp"
#include "flow/sweep.hpp"
#include "kernels/kernels.hpp"
#include "sim/fixed_sim.hpp"
#include "sim/sim_tape.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

namespace fs = std::filesystem;

uint64_t bits_of(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/// Points $SLPWLO_JIT_DIR (which exec::jit_cache_directory() reads
/// first) at `dir` for this object's lifetime, then restores the caller's
/// value.
class ScopedJitDirEnv {
public:
    explicit ScopedJitDirEnv(const std::string& dir) {
        if (const char* old = std::getenv("SLPWLO_JIT_DIR")) previous_ = old;
        ::setenv("SLPWLO_JIT_DIR", dir.c_str(), 1);
    }
    ~ScopedJitDirEnv() {
        if (previous_) {
            ::setenv("SLPWLO_JIT_DIR", previous_->c_str(), 1);
        } else {
            ::unsetenv("SLPWLO_JIT_DIR");
        }
    }
    ScopedJitDirEnv(const ScopedJitDirEnv&) = delete;
    ScopedJitDirEnv& operator=(const ScopedJitDirEnv&) = delete;

private:
    std::optional<std::string> previous_;
};

/// Scoped jit-cache directory so cache-counter tests are deterministic and
/// the suite never litters the shared default directory.
class TempJitDir {
public:
    TempJitDir() : path_(fresh_path()), env_(path_) {}
    ~TempJitDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempJitDir(const TempJitDir&) = delete;
    TempJitDir& operator=(const TempJitDir&) = delete;
    const std::string& path() const { return path_; }

private:
    static std::string fresh_path() {
        return (fs::temp_directory_path() /
                ("slpwlo-jit-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter_++)))
            .string();
    }
    static inline int counter_ = 0;
    std::string path_;
    ScopedJitDirEnv env_;
};

bool toolchain_usable() { return exec::host_toolchain().usable; }

/// The WL preset of tests/test_sim.cpp's differential matrix: non-uniform
/// WLs and a deliberately tight IWL so saturation paths are exercised.
FixedPointSpec preset_spec(const Kernel& kernel, int base_wl,
                           QuantMode mode) {
    FixedPointSpec spec(kernel);
    spec.set_quant_mode(mode);
    size_t i = 0;
    for (const NodeRef node : spec.nodes()) {
        const int wl = base_wl + static_cast<int>(i++ % 3);
        spec.set_format(node, FixedFormat(4, wl - 4));
    }
    return spec;
}

/// Raw-integer view of a value-domain output trace (exact: every simulator
/// output is an integer multiple of its store's step).
long long raw_of(double value, double step) {
    return std::llround(value / step);
}

TEST(CompiledExec, FixedMatchesTapeAndWalkerBitwiseAcrossRegistry) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimTape tape(bk.kernel);
        const Stimulus stimulus = make_stimulus(bk.kernel, 29);

        for (const int base_wl : {8, 12, 16}) {
            for (const QuantMode mode :
                 {QuantMode::Truncate, QuantMode::Round}) {
                const FixedPointSpec spec =
                    preset_spec(bk.kernel, base_wl, mode);
                const std::string what = name + " wl" +
                                         std::to_string(base_wl) + " " +
                                         to_string(mode);

                std::string error;
                const auto ck =
                    exec::CompiledKernel::create(bk.kernel, spec, &error);
                ASSERT_NE(ck, nullptr) << what << ": " << error;

                std::vector<int64_t> in(ck->input_elems());
                std::vector<int64_t> out(ck->output_count());
                long long ovf = ck->param_overflow_count() +
                                ck->pack_stimulus(stimulus, in.data());
                ck->run_fixed_batch(in.data(), out.data(), &ovf, 1);

                const FixedSimResult sim = run_fixed(tape, spec, stimulus);
                ASSERT_EQ(sim.outputs.size(), out.size()) << what;
                for (size_t i = 0; i < out.size(); ++i) {
                    ASSERT_EQ(out[i],
                              raw_of(sim.outputs[i], ck->output_step(i)))
                        << what << " output " << i;
                }
                EXPECT_EQ(ovf, sim.overflow_count) << what;

                if (base_wl == 12) {
                    // Close the three-way loop through the tree walker.
                    const FixedSimResult walker =
                        run_fixed_walker(bk.kernel, spec, stimulus);
                    ASSERT_EQ(walker.outputs.size(), out.size()) << what;
                    for (size_t i = 0; i < out.size(); ++i) {
                        ASSERT_EQ(out[i], raw_of(walker.outputs[i],
                                                 ck->output_step(i)))
                            << what << " output " << i;
                    }
                    EXPECT_EQ(ovf, walker.overflow_count) << what;
                }
            }
        }
    }
}

TEST(CompiledExec, EvaluatorNoisePowerBitIdenticalToSimulation) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        const kernels::BenchmarkKernel bk =
            kernels::make_benchmark_kernel(name);
        const SimulationEvaluator sim_eval(bk.kernel);
        const WalkerEvaluator walker_eval(bk.kernel);
        const exec::CompiledEvaluator compiled_eval(bk.kernel);
        for (const int base_wl : {10, 14}) {
            const FixedPointSpec spec =
                preset_spec(bk.kernel, base_wl, QuantMode::Truncate);
            const double sim_power = sim_eval.noise_power(spec);
            EXPECT_EQ(bits_of(compiled_eval.noise_power(spec)),
                      bits_of(sim_power))
                << name << " wl" << base_wl;
            EXPECT_EQ(bits_of(walker_eval.noise_power(spec)),
                      bits_of(sim_power))
                << name << " wl" << base_wl;
        }
        EXPECT_FALSE(compiled_eval.degraded()) << name;
    }
}

TEST(CompiledExec, JitCacheHitsAndRebuildsOnFingerprintChange) {
    if (!toolchain_usable()) GTEST_SKIP() << "no host C compiler";
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);

    exec::reset_jit_cache_stats();
    std::string error;
    ASSERT_NE(exec::CompiledKernel::create(kernel, spec, &error), nullptr)
        << error;
    exec::JitCacheStats stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 1);
    EXPECT_EQ(stats.hits, 0);

    // Same formats again: the object is served from disk.
    ASSERT_NE(exec::CompiledKernel::create(kernel, spec, &error), nullptr);
    stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 1);
    EXPECT_EQ(stats.hits, 1);

    // Any format change changes the fingerprint and forces a rebuild.
    FixedPointSpec changed = spec;
    changed.set_wl(changed.nodes().front(), 20);
    EXPECT_NE(exec::spec_format_fingerprint(changed),
              exec::spec_format_fingerprint(spec));
    ASSERT_NE(exec::CompiledKernel::create(kernel, changed, &error), nullptr);
    stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 2);
    EXPECT_EQ(stats.hits, 1);

    // Quantization mode is part of the key too.
    FixedPointSpec rounded = spec;
    rounded.set_quant_mode(QuantMode::Round);
    ASSERT_NE(exec::CompiledKernel::create(kernel, rounded, &error), nullptr);
    stats = exec::jit_cache_stats();
    EXPECT_EQ(stats.builds, 3);
}

TEST(CompiledExec, EvaluatorDegradesToTapeWhenBuildFails) {
    // An unusable cache directory makes every build fail, which must leave
    // the evaluator bit-identical to the tape backend instead of throwing.
    const ScopedJitDirEnv unwritable("/dev/null/unwritable");
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const exec::CompiledEvaluator compiled_eval(kernel);
    const SimulationEvaluator sim_eval(kernel);
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    EXPECT_EQ(bits_of(compiled_eval.noise_power(spec)),
              bits_of(sim_eval.noise_power(spec)));
    EXPECT_TRUE(compiled_eval.degraded());
}

TEST(CompiledExec, DegenerateFormatsDegradeToTapeBitIdentically) {
    // A spec straight out of range analysis can carry wl <= 0 formats
    // (fwl stays 0 until WLO runs); those cannot be represented in the
    // generated C's raw integer domain. The evaluator must refuse to
    // compile — before invoking any toolchain — and replay the tape,
    // staying bit-identical to the simulation backend instead of
    // executing undefined-behavior shifts (caught by the corpus
    // differential harness on kernels with sub-unit value ranges).
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    spec.set_wl(spec.nodes().front(), 0);
    ASSERT_FALSE(spec_fits_c_domain(spec));
    std::string why;
    EXPECT_EQ(exec::CompiledKernel::create(kernel, spec, &why), nullptr);
    EXPECT_NE(why.find("raw integer domain"), std::string::npos) << why;
    EXPECT_THROW(emit_fixed_c(kernel, spec), Error);

    const exec::CompiledEvaluator compiled_eval(kernel);
    const SimulationEvaluator sim_eval(kernel);
    EXPECT_EQ(bits_of(compiled_eval.noise_power(spec)),
              bits_of(sim_eval.noise_power(spec)));
    EXPECT_TRUE(compiled_eval.degraded());

    // A well-formed spec on the same evaluator still compiles.
    const FixedPointSpec good = preset_spec(kernel, 12, QuantMode::Truncate);
    EXPECT_EQ(bits_of(compiled_eval.noise_power(good)),
              bits_of(sim_eval.noise_power(good)));
}

TEST(CompiledExec, MeasuredCostReportsPlausibleTiming) {
    TempJitDir jit_dir;
    const Kernel& kernel = ::slpwlo::testing::small_fir();
    const FixedPointSpec spec = preset_spec(kernel, 12, QuantMode::Truncate);
    exec::MeasureOptions options;
    options.reps = 3;
    options.batch = 8;
    options.calibrate_ns = 200000;
    const long long ns = exec::measure_kernel_ns(kernel, spec, options);
    if (!toolchain_usable()) {
        EXPECT_EQ(ns, 0);
    } else {
        EXPECT_GT(ns, 0);
        EXPECT_LT(ns, 1000000000LL);  // a 16-tap FIR is not a second
    }
}

// A measuring sweep simulates each fixed-point point's final spec through
// the compiled evaluator (FlowResult::sim_noise_db): compiled when a host
// compiler is usable, the tape otherwise, bit-identical either way. The
// Float reference has no spec to simulate. The report bytes must not
// change with measurement on or off.
TEST(CompiledExec, SweepMeasureSimulatesTheFinalSpec) {
    TempJitDir jit_dir;
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR"}, {"XENTIUM"}, {"WLO-SLP", "Float"}, {-20.0, -40.0});
    ExecOptions options;
    options.threads = 1;
    options.measure = true;
    SweepDriver measuring(options);
    const std::vector<SweepResult> measured = measuring.run(grid);
    options.measure = false;
    SweepDriver plain(options);
    const std::vector<SweepResult> unmeasured = plain.run(grid);

    const SimulationEvaluator tape(measuring.context("FIR").kernel(), 2);
    for (const SweepResult& r : measured) {
        if (r.point.flow == "Float") {
            EXPECT_EQ(r.flow.sim_noise_db, 0.0);
            EXPECT_EQ(r.flow.measured_ns, 0);
            continue;
        }
        EXPECT_NE(r.flow.sim_noise_db, 0.0);
        EXPECT_EQ(bits_of(r.flow.sim_noise_db),
                  bits_of(tape.noise_power_db(r.flow.spec)))
            << r.point.accuracy_db;
        if (toolchain_usable()) {
            EXPECT_GT(r.flow.measured_ns, 0);
        }
        const std::string json = to_json(r.flow, /*include_measured=*/true);
        EXPECT_NE(json.find("\"sim_noise_db\":"), std::string::npos);
        EXPECT_NE(json.find("\"measured_ns\":"), std::string::npos);
    }
    for (const SweepResult& r : unmeasured) {
        EXPECT_EQ(r.flow.sim_noise_db, 0.0);
        EXPECT_EQ(r.flow.measured_ns, 0);
    }
    EXPECT_EQ(sweep_to_json(measured), sweep_to_json(unmeasured));
}

}  // namespace
}  // namespace slpwlo

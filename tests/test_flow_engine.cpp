// FlowEngine tests: pass-sequence equivalence with the monolithic
// pre-refactor flows, evaluation memoization, sweep determinism across
// thread counts, the registry, the accuracy grid, and the thread pool
// itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/slp_aware_wlo.hpp"
#include "core/tabu_wlo.hpp"
#include "flow/flow.hpp"
#include "flow/pass.hpp"
#include "flow/report.hpp"
#include "flow/sweep.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "slp/plain_extractor.hpp"
#include "support/diagnostics.hpp"
#include "support/thread_pool.hpp"
#include "target/target_model.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

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

/// The pre-refactor monolithic WLO-SLP flow, reproduced verbatim: spec
/// initialization, joint optimization, then scalar/SIMD lowering, cycle
/// estimation and analytic noise.
FlowResult legacy_wlo_slp(const KernelContext& context,
                          const TargetModel& target,
                          const FlowOptions& options) {
    FlowResult result{.flow_name = "WLO-SLP",
                      .kernel_name = context.kernel().name(),
                      .target_name = target.name,
                      .accuracy_db = options.accuracy_db,
                      .spec = context.initial_spec(options.quant_mode)};
    WloSlpOptions wlo = options.wlo_slp;
    wlo.accuracy_db = options.accuracy_db;
    const WloSlpResult out = run_slp_aware_wlo(
        context.kernel(), result.spec, context.evaluator(), target, wlo);
    result.groups = out.block_groups;
    result.slp_stats = out.slp_stats;
    result.scaling_stats = out.scaling_stats;
    result.group_count = out.group_count();

    const MachineKernel scalar = lower_kernel(
        context.kernel(), &result.spec, nullptr, target,
        LowerMode::FixedScalar);
    result.scalar_cycles = estimate_cycles(scalar, target).total_cycles;
    const MachineKernel simd =
        lower_kernel(context.kernel(), &result.spec, &result.groups, target,
                     LowerMode::FixedSimd);
    result.simd_cycles = estimate_cycles(simd, target).total_cycles;
    result.analytic_noise_db = context.evaluator().noise_power_db(result.spec);
    return result;
}

/// The pre-refactor monolithic WLO-First flow, reproduced verbatim.
FlowResult legacy_wlo_first(const KernelContext& context,
                            const TargetModel& target,
                            const FlowOptions& options) {
    FlowResult result{.flow_name = "WLO-First",
                      .kernel_name = context.kernel().name(),
                      .target_name = target.name,
                      .accuracy_db = options.accuracy_db,
                      .spec = context.initial_spec(options.quant_mode)};
    result.tabu_stats =
        run_tabu_wlo(result.spec, context.evaluator(), target,
                     options.accuracy_db, options.wlo_first.tabu);
    for (const BlockId block : blocks_by_priority(context.kernel())) {
        if (context.kernel().block(block).ops.size() < 2) continue;
        PackedView view(context.kernel(), block);
        std::vector<SimdGroup> groups =
            extract_slp_plain(view, target, result.spec,
                              options.wlo_first.slp, &result.slp_stats);
        if (!groups.empty()) {
            result.groups.push_back(BlockGroups{block, std::move(groups)});
        }
    }
    for (const BlockGroups& bg : result.groups) {
        result.group_count += static_cast<int>(bg.groups.size());
    }

    const MachineKernel scalar = lower_kernel(
        context.kernel(), &result.spec, nullptr, target,
        LowerMode::FixedScalar);
    result.scalar_cycles = estimate_cycles(scalar, target).total_cycles;
    const MachineKernel simd =
        lower_kernel(context.kernel(), &result.spec, &result.groups, target,
                     LowerMode::FixedSimd);
    result.simd_cycles = estimate_cycles(simd, target).total_cycles;
    result.analytic_noise_db = context.evaluator().noise_power_db(result.spec);
    return result;
}

void expect_identical(const FlowResult& a, const FlowResult& b) {
    EXPECT_EQ(a.scalar_cycles, b.scalar_cycles);
    EXPECT_EQ(a.simd_cycles, b.simd_cycles);
    EXPECT_EQ(a.group_count, b.group_count);
    EXPECT_EQ(a.analytic_noise_db, b.analytic_noise_db);  // bit-exact
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (size_t i = 0; i < a.groups.size(); ++i) {
        EXPECT_EQ(a.groups[i].block, b.groups[i].block);
        ASSERT_EQ(a.groups[i].groups.size(), b.groups[i].groups.size());
        for (size_t g = 0; g < a.groups[i].groups.size(); ++g) {
            EXPECT_EQ(a.groups[i].groups[g].lanes,
                      b.groups[i].groups[g].lanes);
        }
    }
    for (const NodeRef node : a.spec.nodes()) {
        EXPECT_EQ(a.spec.format(node), b.spec.format(node));
    }
}

// --- pass-sequence equivalence -------------------------------------------------

TEST(FlowEngine, WloSlpMatchesMonolithicFlow) {
    FlowOptions options;
    options.accuracy_db = -30.0;
    for (const KernelContext* ctx : {&ctx_fir(), &ctx_iir(), &ctx_conv()}) {
        for (const TargetModel& target :
             {targets::xentium(), targets::vex4()}) {
            const FlowResult engine =
                run_wlo_slp_flow(*ctx, target, options);
            const FlowResult legacy = legacy_wlo_slp(*ctx, target, options);
            expect_identical(engine, legacy);
        }
    }
}

TEST(FlowEngine, WloFirstMatchesMonolithicFlow) {
    FlowOptions options;
    options.accuracy_db = -30.0;
    for (const KernelContext* ctx : {&ctx_fir(), &ctx_iir(), &ctx_conv()}) {
        const TargetModel target = targets::xentium();
        const FlowResult engine = run_wlo_first_flow(*ctx, target, options);
        const FlowResult legacy = legacy_wlo_first(*ctx, target, options);
        expect_identical(engine, legacy);
    }
}

TEST(FlowEngine, FloatFlowMatchesDirectLowering) {
    for (const TargetModel& target : {targets::xentium(), targets::st240()}) {
        const MachineKernel machine = lower_kernel(
            ctx_fir().kernel(), nullptr, nullptr, target, LowerMode::Float);
        EXPECT_EQ(float_cycles(ctx_fir(), target),
                  estimate_cycles(machine, target).total_cycles);
    }
}

// --- registry ------------------------------------------------------------------

TEST(FlowEngine, RegistryHasBuiltinFlows) {
    FlowRegistry& registry = FlowRegistry::instance();
    for (const char* name :
         {"WLO-SLP", "WLO-First", "Float", "WLO-Optimal", "SLP-Optimal"}) {
        EXPECT_TRUE(registry.contains(name)) << name;
        EXPECT_FALSE(registry.flow(name).passes().empty()) << name;
    }
    EXPECT_THROW(registry.flow("NO-SUCH-FLOW"), Error);
}

TEST(FlowEngine, CustomPipelineIsARegistryEntry) {
    // A new scenario is a registry entry: WLO-SLP without the final cycle
    // evaluation would be silly, so register a fixed-point "no-SLP" flow
    // (range + iwl + tabu + lowering + cycles) and run it.
    FlowRegistry::instance().add(FlowPipeline(
        "Tabu-Only",
        {make_range_analysis_pass(), make_iwl_determination_pass(),
         make_tabu_wlo_pass(), make_lowering_pass(), make_cycle_eval_pass()}));
    FlowOptions options;
    options.accuracy_db = -25.0;
    const FlowResult result = FlowRegistry::instance()
                                  .flow("Tabu-Only")
                                  .run(ctx_fir(), targets::vex1(), options);
    EXPECT_EQ(result.group_count, 0);
    EXPECT_GT(result.scalar_cycles, 0);
    EXPECT_LE(result.analytic_noise_db, -25.0 + 1e-9);
}

// --- memoization ---------------------------------------------------------------

TEST(FlowEngine, MemoizedSweepIsIdenticalToCold) {
    const std::vector<SweepPoint> points = SweepDriver::grid(
        {"FIR"}, {"XENTIUM"}, {"WLO-SLP", "WLO-First"},
        {-20.0, -35.0, -50.0});

    // The cold reference runs each point through the uncached pipeline.
    kernels::BenchmarkKernel fir = kernels::make_benchmark_kernel("FIR");
    const KernelContext context(std::move(fir.kernel), fir.range_options);
    const TargetModel target = targets::by_name("XENTIUM");
    std::vector<FlowResult> reference;
    for (const SweepPoint& point : points) {
        FlowOptions options;
        options.accuracy_db = point.accuracy_db;
        reference.push_back(point.flow == "WLO-SLP"
                                ? run_wlo_slp_flow(context, target, options)
                                : run_wlo_first_flow(context, target, options));
    }

    ExecOptions memo;
    memo.threads = 1;
    SweepDriver warm(memo);
    const std::vector<SweepResult> first = warm.run(points);
    const std::vector<SweepResult> second = warm.run(points);

    const SweepCacheStats stats = warm.cache_stats();
    EXPECT_GT(stats.eval_hits, 0u);  // the repeat run hit the cache
    ASSERT_EQ(reference.size(), first.size());
    ASSERT_EQ(reference.size(), second.size());
    for (size_t i = 0; i < reference.size(); ++i) {
        expect_identical(reference[i], first[i].flow);
        expect_identical(first[i].flow, second[i].flow);
    }
}

// A flow's spec journal feeds only the sessions of its passes; a returned
// result, cold or restored from the stage memo, keeps none of it.
TEST(FlowEngine, SweepResultsKeepNoJournal) {
    const std::vector<SweepPoint> points = SweepDriver::grid(
        {"FIR", "DOT"}, {"XENTIUM"}, {"WLO-SLP", "WLO-First", "Float"},
        {-20.0, -40.0});
    ExecOptions options;
    options.threads = 1;
    SweepDriver driver(options);
    for (int run = 0; run < 2; ++run) {
        for (const SweepResult& result : driver.run(points)) {
            EXPECT_EQ(result.flow.spec.journal_size(), 0u)
                << result.point.kernel << " " << result.point.flow << " run "
                << run;
            EXPECT_EQ(result.flow.spec.open_checkpoints(), 0u);
        }
    }
    EXPECT_GT(driver.cache_stats().stage_hits, 0u);
}

// Points where the greedy selectors used to commit packs forming a
// dependence cycle of three or more packs (no pair of them cyclic), which
// lowering cannot schedule: each flow must run through lowering.
TEST(FlowEngine, GreedySelectionNeverClosesADependenceCycle) {
    struct Case {
        kernels::BenchmarkKernel bench;
        double db;
    };
    const std::vector<Case> cases{
        {frontend::load_kernel_file(SLPWLO_SOURCE_DIR
                                    "/kernels/stencil2d.slp"),
         -45.0},
        {frontend::generate_kernel(34), -35.0},
        {frontend::generate_kernel(67), -25.0},
    };
    for (const Case& c : cases) {
        const KernelContext context(c.bench.kernel, c.bench.range_options);
        FlowOptions options;
        options.accuracy_db = c.db;
        for (const char* name : {"XENTIUM", "VEX-4", "ST240", "VEX-1"}) {
            const TargetModel target = targets::by_name(name);
            for (const bool first : {true, false}) {
                const std::string where = c.bench.name + " on " + name +
                                          (first ? ", WLO-First" : ", WLO-SLP");
                try {
                    const FlowResult result =
                        first ? run_wlo_first_flow(context, target, options)
                              : run_wlo_slp_flow(context, target, options);
                    EXPECT_GT(result.simd_cycles, 0) << where;
                } catch (const std::exception& e) {
                    ADD_FAILURE() << where << ": " << e.what();
                }
            }
        }
    }
}

TEST(FlowEngine, EvaluationKeySeparatesSpecs) {
    FlowOptions options;
    options.accuracy_db = -20.0;
    const TargetModel xentium = targets::xentium();
    FlowResult a = run_wlo_slp_flow(ctx_fir(), xentium, options);
    const uint64_t key_a = evaluation_key(ctx_fir(), a);
    EXPECT_EQ(key_a, evaluation_key(ctx_fir(), a));  // stable

    FlowResult b = a;
    b.spec.set_wl(b.spec.nodes().front(), 24);
    EXPECT_NE(evaluation_key(ctx_fir(), b), key_a);

    EXPECT_NE(evaluation_key(ctx_fir(), a, /*float_variant=*/true), key_a);

    // Same name, different configuration must not alias: a doctored
    // XENTIUM and a different kernel both change the key.
    TargetModel doctored = xentium;
    doctored.simd_width_bits = 64;
    doctored.simd_element_wls = {32, 16};
    FlowResult c = a;
    c.target_fp = target_fingerprint(doctored);
    EXPECT_NE(evaluation_key(ctx_fir(), c), key_a);
    EXPECT_NE(ctx_fir().fingerprint(), ctx_conv().fingerprint());
    EXPECT_NE(target_fingerprint(xentium), target_fingerprint(doctored));
}

// --- determinism across thread counts ------------------------------------------

TEST(FlowEngine, SweepDeterministicAcrossThreadCounts) {
    const std::vector<SweepPoint> points = SweepDriver::grid(
        {"FIR", "IIR", "CONV"}, {"XENTIUM", "VEX-4"},
        {"WLO-SLP", "WLO-First"}, {-15.0, -40.0});

    ExecOptions serial_options;
    serial_options.threads = 1;
    SweepDriver serial(serial_options);
    const std::vector<SweepResult> serial_results = serial.run(points);

    ExecOptions parallel_options;
    parallel_options.threads = 4;
    SweepDriver parallel(parallel_options);
    const std::vector<SweepResult> parallel_results = parallel.run(points);

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (size_t i = 0; i < serial_results.size(); ++i) {
        EXPECT_EQ(serial_results[i].point.kernel,
                  parallel_results[i].point.kernel);
        expect_identical(serial_results[i].flow, parallel_results[i].flow);
    }
    EXPECT_EQ(sweep_to_json(serial_results), sweep_to_json(parallel_results));
}

TEST(SweepDriver, RunTimedPointByPointMatchesRun) {
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR"}, {"XENTIUM"}, {"WLO-SLP"}, {-20.0, -30.0});
    ExecOptions pair;
    pair.threads = 2;
    SweepDriver whole(pair);
    const std::string reference = sweep_to_json(whole.run(grid));

    // One point per call, single-threaded: the shape of a farm worker
    // fed one-slot chunks, as far from one pool run as it gets.
    ExecOptions single;
    single.threads = 1;
    SweepDriver driver(single);
    std::vector<SweepResult> results;
    for (const SweepPoint& point : grid) {
        std::vector<long long> micros;
        std::vector<SweepResult> one = driver.run_timed({point}, &micros);
        ASSERT_EQ(one.size(), 1u);
        ASSERT_EQ(micros.size(), 1u);
        EXPECT_GE(micros[0], 0);
        results.push_back(std::move(one[0]));
    }
    EXPECT_EQ(sweep_to_json(results), reference);
}

TEST(FlowEngine, SweepReportsConfigErrorsBeforeRunning) {
    SweepDriver driver;
    EXPECT_THROW(driver.run({{"FFT", "XENTIUM", "WLO-SLP", -20.0, {}, {}}}),
                 Error);
    EXPECT_THROW(driver.run({{"FIR", "TPU", "WLO-SLP", -20.0, {}, {}}}), Error);
    EXPECT_THROW(driver.run({{"FIR", "XENTIUM", "NO-SUCH", -20.0, {}, {}}}),
                 Error);
}

TEST(FlowEngine, SweepRunsDotThroughRegistry) {
    SweepDriver driver;
    const std::vector<SweepResult> results = driver.run(
        SweepDriver::grid({"DOT"}, {"VEX-4"}, {"WLO-SLP"}, {-25.0}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GT(results[0].flow.group_count, 0);
    EXPECT_LE(results[0].flow.analytic_noise_db, -25.0 + 1e-9);
    EXPECT_LT(results[0].flow.simd_cycles, results[0].flow.scalar_cycles);
}

// --- accuracy grid -------------------------------------------------------------

TEST(AccuracyGrid, PaperAndCorpusGridsAreTheirLiteralLists) {
    // These grids feed the pinned reports: not one value may move.
    EXPECT_EQ(accuracy_grid(-5.0, -70.0, 5.0),
              (std::vector<double>{-5, -10, -15, -20, -25, -30, -35, -40,
                                   -45, -50, -55, -60, -65, -70}));
    EXPECT_EQ(accuracy_grid(), accuracy_grid(-5.0, -70.0, 5.0));
    EXPECT_EQ(accuracy_grid(-10.0, -60.0, 10.0),
              (std::vector<double>{-10, -20, -30, -40, -50, -60}));
    EXPECT_EQ(accuracy_grid(-30.0, -30.0, 5.0), (std::vector<double>{-30}));
    EXPECT_TRUE(accuracy_grid(-30.0, -20.0, 5.0).empty());
    EXPECT_EQ(accuracy_grid(-5.0, -12.0, 5.0), (std::vector<double>{-5, -10}));
}

TEST(AccuracyGrid, FractionalStepsDoNotDrift) {
    // Repeated subtraction would end this grid at -9.9999999999999822: each
    // point must be exactly from - i*step and the endpoint exactly `to`.
    const std::vector<double> grid = accuracy_grid(-5.0, -10.0, 0.1);
    ASSERT_EQ(grid.size(), 51u);
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i], std::max(-5.0 - static_cast<double>(i) * 0.1,
                                    -10.0))
            << i;
    }
    EXPECT_EQ(grid.back(), -10.0);
    EXPECT_EQ(accuracy_grid(-1.0, -2.0, 0.1).back(), -2.0);
    EXPECT_EQ(accuracy_grid(-1.0, -2.0, 0.1).size(), 11u);
}

TEST(AccuracyGrid, RejectsArgumentsThatCannotTerminate) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(accuracy_grid(-5.0, -10.0, 0.0), Error);
    EXPECT_THROW(accuracy_grid(-5.0, -10.0, -1.0), Error);
    EXPECT_THROW(accuracy_grid(-5.0, -10.0, 1e-20), Error);
    EXPECT_THROW(accuracy_grid(-5.0, -10.0, 1e-12), Error);
    EXPECT_THROW(accuracy_grid(-5.0, -inf, 5.0), Error);
    EXPECT_THROW(accuracy_grid(inf, -10.0, 5.0), Error);
    EXPECT_THROW(accuracy_grid(-5.0, nan, 5.0), Error);
    EXPECT_THROW(accuracy_grid(-5.0, -10.0, inf), Error);
}

// --- thread pool ---------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 500; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, NestedSubmitsComplete) {
    ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&pool, &counter] {
            for (int j = 0; j < 10; ++j) {
                pool.submit([&counter] { counter.fetch_add(1); });
            }
        });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 200);
}

// A range runs every index exactly once, however it divides among the
// workers, also when it is shorter than the pool or empty.
TEST(ThreadPool, RunsEveryIndexOfARangeOnce) {
    ThreadPool pool(4);
    for (const size_t count : {0, 1, 3, 4, 5, 500}) {
        std::vector<std::atomic<int>> runs(count);
        pool.submit_range(count, [&runs](size_t i) { runs[i].fetch_add(1); });
        pool.wait_idle();
        for (size_t i = 0; i < count; ++i) {
            EXPECT_EQ(runs[i].load(), 1) << "index " << i << " of " << count;
        }
    }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
    ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    EXPECT_EQ(pool.thread_count(), 2);
}

// --- structured reports --------------------------------------------------------

TEST(FlowEngine, JsonEmissionIsWellFormed) {
    FlowOptions options;
    options.accuracy_db = -25.0;
    const FlowResult result =
        run_wlo_slp_flow(ctx_fir(), targets::xentium(), options);
    const std::string json = to_json(result);
    EXPECT_NE(json.find("\"flow\":\"WLO-SLP\""), std::string::npos);
    EXPECT_NE(json.find("\"target\":\"XENTIUM\""), std::string::npos);
    EXPECT_NE(json.find("\"wl_histogram\":{"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    // The accuracy-conflict counters are measurements: the measured report
    // carries them, the identity bytes do not.
    const ConflictProbeStats& counts = result.conflict_stats;
    EXPECT_GT(counts.filter_decided + counts.probes, 0);
    EXPECT_EQ(json.find("\"conflicts\""), std::string::npos);
    EXPECT_NE(to_json(result, /*include_measured=*/true)
                  .find("\"conflicts\":{\"filter_decided\":" +
                        std::to_string(counts.filter_decided) +
                        ",\"probes\":" + std::to_string(counts.probes) + "}"),
              std::string::npos);

    EXPECT_EQ(json_escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    EXPECT_EQ(json_number(-35.25), "-35.25");
    EXPECT_EQ(json_number(-1.0 / 0.0), "null");

    SweepDriver driver;
    const auto results = driver.run(
        SweepDriver::grid({"FIR"}, {"XENTIUM"}, {"Float"}, {0.0}));
    const std::string array = sweep_to_json(results);
    EXPECT_EQ(array.front(), '[');
    EXPECT_NE(array.find("\"flow\":\"Float\""), std::string::npos);
}

}  // namespace
}  // namespace slpwlo

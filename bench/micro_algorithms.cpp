// Micro-benchmarks (google-benchmark) of the optimization algorithms
// themselves: EVALACC throughput, candidate extraction, conflict detection,
// the full joint WLO, the Tabu baseline, and the VLIW timing model. These
// quantify why the analytical evaluator matters: the joint optimization
// issues tens of thousands of EVALACC calls per kernel.
#include <benchmark/benchmark.h>

#include "flow/sweep.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;

namespace {

/// Per-kernel contexts (range analysis, IWLs, gain calibration), built once
/// and shared by every benchmark.
const KernelContext& context_for(const std::string& kernel_name) {
    static SweepDriver driver;
    return driver.context(kernel_name);
}

void BM_EvalAcc(benchmark::State& state) {
    const KernelContext& ctx = context_for("FIR");
    ctx.ensure_evaluator();  // pay the lazy gain calibration outside the loop
    FixedPointSpec spec = ctx.initial_spec();
    for (const NodeRef node : spec.nodes()) spec.set_wl(node, 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctx.evaluator().noise_power(spec));
    }
}
BENCHMARK(BM_EvalAcc);

void BM_CandidateExtraction(benchmark::State& state) {
    const KernelContext& ctx = context_for("CONV");
    const TargetModel target = targets::vex4();
    const BlockId hot = blocks_by_priority(ctx.kernel()).front();
    for (auto _ : state) {
        PackedView view(ctx.kernel(), hot);
        benchmark::DoNotOptimize(extract_candidates(view, target));
    }
}
BENCHMARK(BM_CandidateExtraction);

void BM_ConflictDetection(benchmark::State& state) {
    const KernelContext& ctx = context_for("CONV");
    const TargetModel target = targets::vex4();
    const BlockId hot = blocks_by_priority(ctx.kernel()).front();
    PackedView view(ctx.kernel(), hot);
    const auto candidates = extract_candidates(view, target);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            detect_structural_conflicts(view, candidates));
    }
}
BENCHMARK(BM_ConflictDetection);

void BM_JointWloSlp(benchmark::State& state) {
    const KernelContext& ctx = context_for("FIR");
    const TargetModel target = targets::xentium();
    for (auto _ : state) {
        FlowOptions options;
        options.accuracy_db = -35.0;
        benchmark::DoNotOptimize(run_wlo_slp_flow(ctx, target, options));
    }
}
BENCHMARK(BM_JointWloSlp);

void BM_TabuWlo(benchmark::State& state) {
    const KernelContext& ctx = context_for("FIR");
    const TargetModel target = targets::xentium();
    for (auto _ : state) {
        FixedPointSpec spec = ctx.initial_spec();
        benchmark::DoNotOptimize(
            run_tabu_wlo(spec, ctx.evaluator(), target, -35.0));
    }
}
BENCHMARK(BM_TabuWlo);

void BM_LowerAndSchedule(benchmark::State& state) {
    const KernelContext& ctx = context_for("IIR");
    const TargetModel target = targets::st240();
    FlowOptions options;
    options.accuracy_db = -35.0;
    const FlowResult result = run_wlo_slp_flow(ctx, target, options);
    for (auto _ : state) {
        const MachineKernel machine =
            lower_kernel(ctx.kernel(), &result.spec, &result.groups, target,
                         LowerMode::FixedSimd);
        benchmark::DoNotOptimize(estimate_cycles(machine, target));
    }
}
BENCHMARK(BM_LowerAndSchedule);

void BM_GainCalibration(benchmark::State& state) {
    // The one-off per-kernel cost the analytical evaluator amortizes.
    auto bench = kernels::make_benchmark_kernel("CONV");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analyze_gains(bench.kernel));
    }
}
BENCHMARK(BM_GainCalibration);

}  // namespace

BENCHMARK_MAIN();

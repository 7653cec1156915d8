// The in-process workloads: paper, corpus and exact. One shape serves all
// three — set up, reference, cold repetitions each on a fresh SweepDriver
// (each followed by warm re-runs on fresh drivers preloaded from the cold
// run's cache snapshot), then, with --trace 1, the traced repetitions.
#include <algorithm>
#include <functional>
#include <numeric>

#include "dist/cache_snapshot.hpp"
#include "dist/shard_plan.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "kernels/kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace slpwlo;

namespace {

/// Warm re-runs after each cold repetition: at least this many, and for
/// at least this share of the cold repetition's wall (a warm run takes
/// milliseconds or less, so one per cold run would be a thin sample).
constexpr int kMinWarmPerCold = 3;
constexpr double kWarmShareOfCold = 0.1;

struct GridSetup {
    std::vector<SweepPoint> grid;
    /// Kernels drawn from the workload seed; the seed-independent quality
    /// metrics leave them out.
    std::set<std::string> generated;
    double compile_s = 0.0;  ///< time spent loading and compiling kernels
};

struct SweepWorkload {
    /// Builds the grid, registering any file-based kernels first.
    std::function<GridSetup()> setup;
    /// The speedup pair: scalar cycles of the first flow over SIMD cycles
    /// of the second, per kernel, target and constraint.
    std::string scalar_flow;
    std::string simd_flow;
};

void run_sweep_workload(const SweepWorkload& workload, const Args& args,
                        Result& result) {
    const int threads = available_cpus();
    ExecOptions parallel;
    parallel.threads = threads;
    ExecOptions serial;
    serial.threads = 1;

    // Set-up: everything before the first point can run.
    std::vector<double> setup_s, compile_s;
    const auto set_up = [&](GridSetup& out) {
        out = workload.setup();
        const SweepDriver driver(parallel);
        compile_s.push_back(out.compile_s);
    };
    GridSetup setup;
    sample_setup(setup_s, [&] { set_up(setup); });
    const std::vector<SweepPoint>& grid = setup.grid;
    const double points = static_cast<double>(grid.size());

    // The reference: a 1-thread sweep of the same grid, outside timing.
    SweepDriver reference_driver(serial);
    const SweepRun reference = run_sweep(reference_driver, grid);
    const std::vector<std::string> reference_rows = rows_of(reference);
    result.tally(grid.size(), reference.thrown);
    const auto check = [&](const SweepRun& run, const char* what) {
        const size_t mismatches = row_mismatches(reference_rows, rows_of(run));
        result.tally(grid.size(), mismatches);
        result.require(mismatches == 0,
                       std::string(what) + " rows equal the 1-thread rows");
    };

    // Untraced repetitions: cold on a fresh driver, then warm.
    std::vector<double> cold_s, warm_s, slowest_s, busy_ratio;
    SweepCacheStats warm_stats;
    repeat_for(args.trace ? args.seconds / 2 : args.seconds, [&] {
        GridSetup again;
        sample_setup(setup_s, [&] { set_up(again); });
        SweepDriver driver(parallel);
        const SweepRun cold = run_sweep(driver, grid);
        check(cold, "cold");
        cold_s.push_back(cold.wall_s);
        slowest_s.push_back(
            static_cast<double>(*std::max_element(cold.micros.begin(),
                                                  cold.micros.end())) * 1e-6);
        busy_ratio.push_back(
            static_cast<double>(std::accumulate(cold.micros.begin(),
                                                cold.micros.end(), 0LL)) *
            1e-6 / (threads * cold.wall_s));

        const dist::CacheSnapshot snapshot =
            dist::snapshot_cache(driver.eval_cache());
        const Clock::time_point warm_start = Clock::now();
        for (int i = 0; i < kMinWarmPerCold ||
                        seconds_since(warm_start) < kWarmShareOfCold * cold.wall_s;
             ++i) {
            SweepDriver warm_driver(parallel);
            dist::preload_cache(warm_driver.eval_cache(), snapshot);
            const SweepRun warm = run_sweep(warm_driver, grid);
            check(warm, "warm");
            warm_s.push_back(warm.wall_s);
            warm_stats = warm_driver.cache_stats();
        }
    });

    log_sample("cold", cold_s);
    log_sample("warm", warm_s);
    const SimCheck sim =
        check_simulation(reference_driver, reference, setup.generated);

    if (!args.trace) {
        result.set("points_per_s", points / median(cold_s));
        result.set("warm_points_per_s", points / median(warm_s));
        result.set("setup_s", median(setup_s));
        result.set("peak_rss_mb", peak_rss_mb());
        result.set("sim_violation_ratio", violation_ratio(sim));
        result.set("speedup_geomean",
                   speedup_geomean(reference, workload.scalar_flow,
                                   workload.simd_flow, setup.generated));
        result.set("proven_ratio", proven_ratio(reference));
        return;
    }

    const std::vector<double> traced_s = traced_phase(
        grid, reference_rows, args.seconds / 2,
        [&] {
            SweepDriver driver(parallel);
            const SweepRun run = run_sweep(driver, grid);
            check(run, "traced");
            return run.wall_s;
        },
        result);
    result.set("trace.overhead_ratio", median(cold_s) / median(traced_s));
    report_preparation(grid, result);
    report_counters(reference, result);
    const double eval_lookups =
        static_cast<double>(warm_stats.eval_hits + warm_stats.eval_misses);
    const double stage_lookups =
        static_cast<double>(warm_stats.stage_hits + warm_stats.stage_misses);
    result.set("flow.eval_lookups", eval_lookups);
    result.set("flow.eval_hit_ratio",
               eval_lookups > 0 ? warm_stats.eval_hits / eval_lookups : 0);
    result.set("flow.stage_lookups", stage_lookups);
    result.set("flow.stage_hit_ratio",
               stage_lookups > 0 ? warm_stats.stage_hits / stage_lookups : 0);
    result.set("flow.slowest_point_s", median(slowest_s));
    result.set("flow.thread_busy_ratio", median(busy_ratio));
    result.set("frontend.compile_s", median(compile_s));
    result.set("sim.check_s", sim.seconds);
    result.set("sim.generated_checked",
               static_cast<double>(sim.generated_checked));
    result.set("sim.generated_violations",
               static_cast<double>(sim.generated_violations));
}

// --- the grids ---------------------------------------------------------------------

GridSetup paper_setup() {
    const std::vector<std::string> targets = {"XENTIUM", "ST240", "VEX-1",
                                              "VEX-4"};
    GridSetup setup;
    setup.grid = SweepDriver::grid(kernels::paper_kernel_names(), targets,
                                   {"WLO-First", "WLO-SLP"},
                                   accuracy_grid(-5.0, -70.0, 5.0));
    for (const std::string& kernel : kernels::paper_kernel_names()) {
        for (const std::string& target : targets) {
            SweepPoint point;
            point.kernel = kernel;
            point.target = target;
            point.flow = "Float";
            setup.grid.push_back(std::move(point));
        }
    }
    return setup;
}

/// Generated kernels per kind (friendly and SLP-hostile) in the corpus
/// workload, drawn from the workload seed.
constexpr int kGeneratedPerKind = 5;
/// The size band (ops after unrolling) of the generated kernels the draw
/// keeps. Flow time grows steeply with kernel size — one 64-op draw costs
/// half as much as the whole checked-in corpus — and warm re-runs mostly
/// compile the embedded sources, so a wide band would make the figures
/// depend on the seed more than on the code.
constexpr size_t kMinGeneratedOps = 16;
constexpr size_t kMaxGeneratedOps = 24;

GridSetup corpus_setup(uint64_t seed) {
    GridSetup setup;
    const Clock::time_point start = Clock::now();
    std::vector<std::string> names = frontend::load_kernel_corpus("kernels");
    frontend::GenOptions hostile;
    hostile.slp_hostile = true;
    for (const frontend::GenOptions& options :
         {frontend::GenOptions{}, hostile}) {
        // Generator seeds seed*1000, seed*1000+1, ...: the first
        // kGeneratedPerKind kernels within the size band.
        int kept = 0;
        for (uint64_t draw = seed * 1000; kept < kGeneratedPerKind; ++draw) {
            const frontend::GeneratedKernel kernel =
                frontend::generate_kernel_source(draw, options);
            const std::string source_name = "<" + kernel.name + ">";
            const size_t ops =
                frontend::compile_benchmark_source(kernel.source, source_name)
                    .kernel.ops()
                    .size();
            if (ops < kMinGeneratedOps || ops > kMaxGeneratedOps) continue;
            names.push_back(
                frontend::register_kernel_source(kernel.source, source_name));
            setup.generated.insert(names.back());
            kept++;
        }
    }
    setup.compile_s = seconds_since(start);
    setup.grid = SweepDriver::grid(names, {"XENTIUM", "VEX-4"},
                                   {"WLO-First", "WLO-SLP"},
                                   accuracy_grid(-10.0, -60.0, 10.0));
    dist::embed_kernel_sources(setup.grid);
    return setup;
}

GridSetup exact_setup() {
    GridSetup setup;
    setup.grid = SweepDriver::grid(kernels::benchmark_kernel_names(),
                                   {"XENTIUM"}, {"WLO-Optimal", "SLP-Optimal"},
                                   {-30.0});
    return setup;
}

}  // namespace

void run_paper(const Args& args, Result& result) {
    run_sweep_workload({paper_setup, "WLO-First", "WLO-SLP"}, args, result);
}

void run_corpus(const Args& args, Result& result) {
    run_sweep_workload(
        {[seed = args.seed] { return corpus_setup(seed); }, "WLO-First",
         "WLO-SLP"},
        args, result);
}

void run_exact(const Args& args, Result& result) {
    run_sweep_workload({exact_setup, "WLO-Optimal", "SLP-Optimal"}, args,
                       result);
}

}  // namespace perfbench

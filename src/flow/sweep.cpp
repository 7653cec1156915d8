#include "flow/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <sstream>

#include "exec/compiled_evaluator.hpp"
#include "exec/jit_cache.hpp"
#include "exec/measured_cost.hpp"
#include "flow/report.hpp"
#include "frontend/kernel_file.hpp"
#include "support/diagnostics.hpp"
#include "support/thread_pool.hpp"
#include "target/target_model.hpp"

namespace slpwlo {

SweepDriver::SweepDriver(ExecOptions options)
    : options_(std::move(options)) {}

SweepDriver::~SweepDriver() = default;

std::vector<SweepPoint> SweepDriver::grid(
    const std::vector<std::string>& kernels,
    const std::vector<std::string>& targets,
    const std::vector<std::string>& flows,
    const std::vector<double>& constraints) {
    std::vector<SweepPoint> points;
    points.reserve(kernels.size() * targets.size() * flows.size() *
                   constraints.size());
    for (const std::string& kernel : kernels) {
        for (const std::string& target : targets) {
            for (const std::string& flow : flows) {
                for (const double a : constraints) {
                    points.push_back(SweepPoint{kernel, target, flow, a, {}, {}});
                }
            }
        }
    }
    return points;
}

std::vector<SweepPoint> SweepDriver::grid(
    const std::vector<std::string>& kernels,
    const std::vector<std::string>& targets,
    const std::vector<int>& simd_widths,
    const std::vector<std::string>& flows,
    const std::vector<double>& constraints) {
    std::vector<SweepPoint> points;
    points.reserve(kernels.size() * targets.size() * simd_widths.size() *
                   flows.size() * constraints.size());
    for (const std::string& target : targets) {
        const TargetModel base = targets::by_name(target);
        for (const int width : simd_widths) {
            // Width 0 keeps the base model; a positive width spawns the
            // derived variant once and shares it across the inner axes.
            const TargetModel model =
                width == 0 ? base : base.with_simd_width(width);
            for (const std::string& kernel : kernels) {
                for (const std::string& flow : flows) {
                    for (const double a : constraints) {
                        points.push_back(SweepPoint{kernel, model.name, flow,
                                                    a, {}, model});
                    }
                }
            }
        }
    }
    return points;
}

const KernelContext& SweepDriver::context(const std::string& kernel_name) {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    auto& slot = contexts_[kernel_name];
    if (!slot) {
        kernels::BenchmarkKernel bench =
            kernels::make_benchmark_kernel(kernel_name);
        slot = std::make_unique<KernelContext>(std::move(bench.kernel),
                                               bench.range_options);
    }
    return *slot;
}

std::vector<SweepResult> SweepDriver::run(
    const std::vector<SweepPoint>& points) {
    return run_timed(points, nullptr);
}

std::vector<SweepResult> SweepDriver::run_timed(
    const std::vector<SweepPoint>& points,
    std::vector<long long>* micros_out) {
    // Resolve the per-point ingredients up front so configuration errors
    // (unknown kernel / target / flow) surface before any thread spawns.
    struct Job {
        const KernelContext* context;
        TargetModel target;
        const FlowPipeline* pipeline;
        FlowOptions options;
    };
    std::vector<Job> jobs;
    jobs.reserve(points.size());
    for (const SweepPoint& point : points) {
        Job job;
        // A point carrying its kernel's DSL source (a manifest point for
        // a file-based kernel) registers it before the name resolves —
        // idempotent for identical content, an error for a name clash.
        // Registration memoizes by source bytes, so this serial prelude
        // compiles each distinct kernel once per process, not per point.
        if (point.kernel_source.has_value()) {
            frontend::register_kernel_source(*point.kernel_source,
                                             "<point " + point.kernel + ">");
        }
        job.context = &context(point.kernel);
        if (point.target_model.has_value()) {
            point.target_model->validate();
            job.target = *point.target_model;
        } else {
            job.target = targets::by_name(point.target);
        }
        job.options = point.options.value_or(options_.flow_options);
        job.options.accuracy_db = point.accuracy_db;
        job.pipeline = &FlowRegistry::instance().flow(point.flow);
        jobs.push_back(std::move(job));
    }

    std::vector<std::optional<FlowResult>> slots(points.size());
    std::vector<long long> micros(points.size(), 0);
    std::exception_ptr first_error;
    std::mutex error_mutex;

    if (!pool_) pool_ = std::make_unique<ThreadPool>(options_.threads);
    ThreadPool& pool = *pool_;
    pool.submit_range(jobs.size(), [&](size_t i) {
        try {
            const Job& job = jobs[i];
            const auto start = std::chrono::steady_clock::now();
            FlowResult result = job.pipeline->run(
                *job.context, job.target, job.options, &eval_cache_);
            // Observational timing and a simulation check of the final
            // spec. After the flow, so a stage- or eval-cached point
            // still measures and no measurement lands in a cache entry.
            // The noise check runs compiled when a host compiler is
            // usable and on the bit-identical tape otherwise, so this
            // is where the degradation path executes during a sweep.
            if (options_.measure && !job.pipeline->float_reference()) {
                const Kernel& kernel = job.context->kernel();
                result.measured_ns =
                    exec::measure_kernel_ns(kernel, result.spec);
                result.sim_noise_db =
                    exec::CompiledEvaluator(kernel).noise_power_db(
                        result.spec);
            }
            slots[i] = std::move(result);
            micros[i] = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
        }
    });
    pool.wait_idle();

    if (first_error) std::rethrow_exception(first_error);

    std::vector<SweepResult> results;
    results.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        SLPWLO_ASSERT(slots[i].has_value(), "sweep point produced no result");
        results.push_back(SweepResult{points[i], std::move(*slots[i])});
    }
    if (micros_out != nullptr) *micros_out = std::move(micros);
    return results;
}

SweepCacheStats SweepDriver::cache_stats() const {
    SweepCacheStats stats;
    stats.eval_hits = eval_cache_.hits();
    stats.eval_misses = eval_cache_.misses();
    stats.eval_entries = eval_cache_.size();
    stats.stage_hits = eval_cache_.stage_hits();
    stats.stage_misses = eval_cache_.stage_misses();
    stats.stage_entries = eval_cache_.stage_size();
    {
        std::lock_guard<std::mutex> lock(contexts_mutex_);
        stats.contexts = contexts_.size();
    }
    const exec::JitCacheStats jit = exec::jit_cache_stats();
    stats.jit_hits = jit.hits;
    stats.jit_builds = jit.builds;
    return stats;
}

std::vector<double> accuracy_grid(double from, double to, double step) {
    SLPWLO_CHECK(std::isfinite(from) && std::isfinite(to) &&
                     std::isfinite(step),
                 "accuracy_grid arguments must be finite");
    SLPWLO_CHECK(step > 0.0, "accuracy_grid step must be positive");
    SLPWLO_CHECK(from - step != from,
                 "accuracy_grid step is below the resolution of `from`");
    std::vector<double> grid;
    if (to > from) return grid;
    // Point i is from - i*step over a count fixed up front: repeated
    // subtraction drifts on fractional steps (-5 to -10 by 0.1 would end
    // at -9.9999999999999822). The tolerance keeps an endpoint that
    // rounding puts a hair past `to`, and the clamp makes it exactly `to`.
    constexpr double kMaxSteps = 1e6;
    const double steps = std::floor((from - to) / step + 1e-9);
    SLPWLO_CHECK(steps < kMaxSteps,
                 "accuracy_grid would have more than a million points");
    const size_t count = static_cast<size_t>(steps) + 1;
    grid.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        grid.push_back(std::max(from - static_cast<double>(i) * step, to));
    }
    return grid;
}

namespace {

std::string slp_options_to_json(const SlpOptions& slp) {
    std::ostringstream os;
    os << "{\"benefit_mode\":"
       << (slp.benefit_mode == BenefitMode::ReuseOverCost
               ? "\"reuse-over-cost\""
               : "\"savings-only\"")
       << ",\"min_benefit\":" << json_number(slp.min_benefit) << "}";
    return os.str();
}

/// The option fields a per-point override can vary (both flows' ablation
/// axes); emitted alongside the result so variant rows stay
/// distinguishable.
std::string options_to_json(const FlowOptions& options) {
    std::ostringstream os;
    os << "{\"quant_mode\":"
       << (options.quant_mode == QuantMode::Truncate ? "\"truncate\""
                                                     : "\"round\"")
       << ",\"wlo_slp\":{\"scaling_optim\":"
       << (options.wlo_slp.scaling_optim ? "true" : "false")
       << ",\"accuracy_conflicts\":"
       << (options.wlo_slp.accuracy_conflicts ? "true" : "false")
       << ",\"strict_feasibility\":"
       << (options.wlo_slp.strict_feasibility ? "true" : "false")
       << ",\"slp\":" << slp_options_to_json(options.wlo_slp.slp) << "}"
       << ",\"wlo_first\":{\"slp\":"
       << slp_options_to_json(options.wlo_first.slp)
       << ",\"tabu\":{\"max_iterations\":"
       << options.wlo_first.tabu.max_iterations
       << ",\"tenure\":" << options.wlo_first.tabu.tenure
       << ",\"stagnation_limit\":" << options.wlo_first.tabu.stagnation_limit
       << ",\"infeasibility_penalty\":"
       << json_number(options.wlo_first.tabu.infeasibility_penalty)
       << "}}"
       << ",\"solver\":{\"max_nodes\":" << options.solver_budget.max_nodes
       << "}}";
    return os.str();
}

}  // namespace

std::string sweep_result_to_json(const SweepResult& result) {
    // Splice the point's option overrides into the result object so
    // ablation variants with identical flow/kernel/target/constraint
    // stay distinguishable.
    std::string object = to_json(result.flow);
    if (result.point.options.has_value()) {
        object.back() = ',';
        object += "\"options\":" + options_to_json(*result.point.options) + "}";
    }
    return object;
}

std::string sweep_to_json(const std::vector<SweepResult>& results) {
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < results.size(); ++i) {
        if (i != 0) os << ",";
        os << "\n  " << sweep_result_to_json(results[i]);
    }
    os << "\n]\n";
    return os.str();
}

std::string cache_stats_to_json(const SweepCacheStats& stats) {
    std::ostringstream os;
    os << "{\"hits\":" << stats.eval_hits << ",\"misses\":" << stats.eval_misses
       << ",\"entries\":" << stats.eval_entries
       << ",\"stage_hits\":" << stats.stage_hits
       << ",\"stage_misses\":" << stats.stage_misses
       << ",\"stage_entries\":" << stats.stage_entries
       << ",\"contexts\":" << stats.contexts;
    // JIT traffic appears only when the compiled backend actually ran, so
    // tape sweeps keep their historical report bytes.
    if (stats.jit_hits != 0 || stats.jit_builds != 0) {
        os << ",\"jit_hits\":" << stats.jit_hits
           << ",\"jit_builds\":" << stats.jit_builds;
    }
    os << "}";
    return os.str();
}

std::string sweep_to_json(const std::vector<SweepResult>& results,
                          const SweepCacheStats& stats) {
    std::string array = sweep_to_json(results);
    // The plain array ends with "\n]\n"; keep its layout inside the
    // wrapper so the "results" payload stays byte-identical to the
    // standalone form (minus the trailing newline).
    array.pop_back();
    return "{\"results\":" + array +
           ",\"eval_cache\":" + cache_stats_to_json(stats) + "}\n";
}

}  // namespace slpwlo

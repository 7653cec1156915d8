#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "accuracy/sim_evaluator.hpp"
#include "kernels/kernels.hpp"
#include "pass_tracer.hpp"

namespace perfbench {

using namespace slpwlo;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
    if (values.empty()) throw std::logic_error("median of an empty sample");
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

void repeat_for(double seconds, const std::function<void()>& body) {
    const Clock::time_point start = Clock::now();
    do {
        body();
    } while (seconds_since(start) < seconds);
}

void log_sample(const std::string& what, const std::vector<double>& seconds) {
    if (seconds.empty()) return;
    std::fprintf(stderr, "perfbench: %-8s %4zu runs, median %.6f s, min %.6f s, "
                         "max %.6f s\n",
                 what.c_str(), seconds.size(), median(seconds),
                 *std::min_element(seconds.begin(), seconds.end()),
                 *std::max_element(seconds.begin(), seconds.end()));
}

void sample_setup(std::vector<double>& samples,
                  const std::function<void()>& setup) {
    repeat_for(0.02, [&] {
        const Clock::time_point start = Clock::now();
        setup();
        samples.push_back(seconds_since(start));
    });
}

// --- metric lists ---------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
    static const std::vector<MetricSpec> metrics = {
        {"points_per_s", "1/s"},         {"warm_points_per_s", "1/s"},
        {"setup_s", "s"},                {"peak_rss_mb", "MB"},
        {"sim_violation_ratio", "ratio"}, {"speedup_geomean", "ratio"},
        {"proven_ratio", "ratio"},
    };
    return metrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
    static const std::vector<MetricSpec> metrics = [] {
        // The per-pass triples come first, in traced_passes() order.
        std::vector<MetricSpec> out;
        for (const TracedPass& pass : traced_passes()) {
            out.push_back({pass.label + ".busy_s", "s"});
            out.push_back({pass.label + ".busy_s_1t", "s"});
            out.push_back({pass.label + ".calls", "count"});
        }
        const std::vector<MetricSpec> rest = {
            {"fixpoint.ranges_s", "s"},
            {"fixpoint.iwls_s", "s"},
            {"accuracy.calibration_s", "s"},
            {"slp.candidates_seen", "count"},
            {"slp.selected", "count"},
            {"slp.selected_ratio", "ratio"},
            {"core.tabu_iterations", "count"},
            {"solver.nodes", "count"},
            {"solver.solves", "count"},
            {"flow.eval_hit_ratio", "ratio"},
            {"flow.eval_lookups", "count"},
            {"flow.stage_hit_ratio", "ratio"},
            {"flow.stage_lookups", "count"},
            {"flow.slowest_point_s", "s"},
            {"flow.thread_busy_ratio", "ratio"},
            {"frontend.compile_s", "s"},
            {"dist.manifest_s", "s"},
            {"dist.manifest_bytes", "bytes"},
            {"dist.rows_bytes", "bytes"},
            {"farm.submit_s", "s"},
            {"farm.resubmit_s", "s"},
            {"farm.chunks", "count"},
            {"farm.reissues", "count"},
            {"farm.overhead_per_chunk_ms", "ms"},
            {"sim.check_s", "s"},
            {"sim.generated_checked", "count"},
            {"sim.generated_violations", "count"},
            {"trace.overhead_ratio", "ratio"},
        };
        out.insert(out.end(), rest.begin(), rest.end());
        return out;
    }();
    return metrics;
}

// --- result object -------------------------------------------------------------

namespace {

const std::vector<MetricSpec>& mode_metrics(bool trace) {
    return trace ? per_layer_metrics() : end_to_end_metrics();
}

}  // namespace

void Result::set(const std::string& name, double value) {
    const std::vector<MetricSpec>& metrics = mode_metrics(trace_);
    const bool known =
        std::any_of(metrics.begin(), metrics.end(),
                    [&](const MetricSpec& m) { return name == m.name; });
    if (!known) throw std::logic_error("metric `" + name + "` not in this mode");
    if (!std::isfinite(value)) {
        throw std::runtime_error("metric `" + name + "` is not finite");
    }
    values_[name] = value;
}

void Result::tally(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
}

void Result::require(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string Result::json() const {
    std::string metrics;
    for (const MetricSpec& m : mode_metrics(trace_)) {
        const auto it = values_.find(m.name);
        if (it == values_.end() && !trace_) {
            throw std::logic_error("end-to-end metric `" + m.name +
                                   "` was not measured");
        }
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      it == values_.end() ? 0.0 : it->second);
        if (!metrics.empty()) metrics += ", ";
        metrics += "\"" + m.name + "\": {\"value\": " + value +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = correct_ && failed_ == 0 && attempted_ > 0;
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
           metrics + "}}";
}

// --- process facts ---------------------------------------------------------------

int available_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return std::max(1, CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- sweeps and rows ----------------------------------------------------------------

SweepRun run_sweep(SweepDriver& driver, const std::vector<SweepPoint>& points) {
    SweepRun run;
    const Clock::time_point start = Clock::now();
    try {
        std::vector<SweepResult> results = driver.run_timed(points, &run.micros);
        run.results.reserve(results.size());
        for (SweepResult& r : results) run.results.emplace_back(std::move(r));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: sweep threw (%s); re-running point "
                             "by point\n", e.what());
        run.results.assign(points.size(), std::nullopt);
        run.micros.assign(points.size(), 0);
        for (size_t i = 0; i < points.size(); ++i) {
            try {
                std::vector<long long> micros;
                std::vector<SweepResult> one =
                    driver.run_timed({points[i]}, &micros);
                run.results[i] = std::move(one.front());
                run.micros[i] = micros.front();
            } catch (const std::exception&) {
                run.thrown++;
            }
        }
    }
    run.wall_s = seconds_since(start);
    return run;
}

std::vector<std::string> rows_of(const SweepRun& run) {
    std::vector<std::string> rows;
    rows.reserve(run.results.size());
    for (const std::optional<SweepResult>& r : run.results) {
        rows.push_back(r.has_value() ? sweep_result_to_json(*r) : "");
    }
    return rows;
}

std::vector<std::string> report_rows(const std::string& report) {
    // sweep_to_json lays a report out as "[\n  row,\n  row\n]\n".
    std::vector<std::string> rows;
    size_t pos = 0;
    while (pos < report.size()) {
        size_t end = report.find('\n', pos);
        if (end == std::string::npos) end = report.size();
        std::string line = report.substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind("  ", 0) != 0) continue;
        line.erase(0, 2);
        if (!line.empty() && line.back() == ',') line.pop_back();
        rows.push_back(std::move(line));
    }
    return rows;
}

size_t row_mismatches(const std::vector<std::string>& want,
                      const std::vector<std::string>& got) {
    const size_t n = std::max(want.size(), got.size());
    size_t mismatches = 0;
    for (size_t i = 0; i < n; ++i) {
        if (i >= want.size() || i >= got.size() || want[i] != got[i]) {
            mismatches++;
        }
    }
    return mismatches;
}

// --- checks and counters -------------------------------------------------------------

double speedup_geomean(const SweepRun& run, const std::string& scalar_flow,
                       const std::string& simd_flow,
                       const std::set<std::string>& generated) {
    using Key = std::tuple<std::string, std::string, double>;
    std::map<Key, long long> scalar;
    std::map<Key, long long> simd;
    for (const std::optional<SweepResult>& r : run.results) {
        if (!r.has_value() || generated.count(r->point.kernel) != 0) continue;
        const Key key{r->point.kernel, r->point.target, r->point.accuracy_db};
        if (r->point.flow == scalar_flow) scalar[key] = r->flow.scalar_cycles;
        if (r->point.flow == simd_flow) simd[key] = r->flow.simd_cycles;
    }
    double log_sum = 0.0;
    size_t pairs = 0;
    for (const auto& [key, scalar_cycles] : scalar) {
        const auto it = simd.find(key);
        if (it == simd.end() || scalar_cycles <= 0 || it->second <= 0) continue;
        log_sum += std::log(static_cast<double>(scalar_cycles) /
                            static_cast<double>(it->second));
        pairs++;
    }
    if (pairs == 0) throw std::runtime_error("no result pairs for the speedup");
    return std::exp(log_sum / static_cast<double>(pairs));
}

SimCheck check_simulation(SweepDriver& driver, const SweepRun& run,
                          const std::set<std::string>& generated) {
    SimCheck check;
    const Clock::time_point start = Clock::now();
    std::map<std::string, std::unique_ptr<SimulationEvaluator>> simulators;
    for (const std::optional<SweepResult>& r : run.results) {
        if (!r.has_value() || r->point.flow == "Float") continue;
        std::unique_ptr<SimulationEvaluator>& sim = simulators[r->point.kernel];
        if (!sim) {
            sim = std::make_unique<SimulationEvaluator>(
                driver.context(r->point.kernel).kernel());
        }
        const bool violated =
            sim->noise_power_db(r->flow.spec) > r->point.accuracy_db;
        if (generated.count(r->point.kernel) != 0) {
            check.generated_checked++;
            check.generated_violations += violated ? 1 : 0;
        } else {
            check.checked++;
            check.violations += violated ? 1 : 0;
        }
    }
    check.seconds = seconds_since(start);
    return check;
}

double violation_ratio(const SimCheck& check) {
    if (check.checked == 0) throw std::runtime_error("no result was simulated");
    return static_cast<double>(check.violations) /
           static_cast<double>(check.checked);
}

void report_counters(const SweepRun& run, Result& result) {
    double candidates = 0, selected = 0, tabu = 0, nodes = 0, solves = 0;
    for (const std::optional<SweepResult>& r : run.results) {
        if (!r.has_value()) continue;
        candidates += r->flow.slp_stats.candidates_seen;
        selected += r->flow.slp_stats.selected;
        tabu += r->flow.tabu_stats.iterations;
        nodes += static_cast<double>(r->flow.solver_stats.nodes);
        solves += static_cast<double>(r->flow.solver_stats.solves);
    }
    result.set("slp.candidates_seen", candidates);
    result.set("slp.selected", selected);
    result.set("slp.selected_ratio", candidates > 0 ? selected / candidates : 0);
    result.set("core.tabu_iterations", tabu);
    result.set("solver.nodes", nodes);
    result.set("solver.solves", solves);
}

double proven_ratio(const SweepRun& run) {
    size_t ran = 0;
    size_t proven = 0;
    for (const std::optional<SweepResult>& r : run.results) {
        if (!r.has_value() || !r->flow.solver_stats.ran) continue;
        ran++;
        if (r->flow.solver_stats.proven_optimal) proven++;
    }
    return ran == 0 ? 1.0
                    : static_cast<double>(proven) / static_cast<double>(ran);
}

void report_preparation(const std::vector<SweepPoint>& points,
                        Result& result) {
    double ranges_s = 0, iwls_s = 0, calibration_s = 0;
    std::set<std::string> seen;
    for (const SweepPoint& point : points) {
        if (!seen.insert(point.kernel).second) continue;
        kernels::BenchmarkKernel bench =
            kernels::make_benchmark_kernel(point.kernel);
        const KernelContext context(std::move(bench.kernel),
                                    bench.range_options);
        Clock::time_point start = Clock::now();
        context.ensure_ranges();
        ranges_s += seconds_since(start);
        start = Clock::now();
        context.ensure_iwls();
        iwls_s += seconds_since(start);
        start = Clock::now();
        context.ensure_evaluator();
        calibration_s += seconds_since(start);
    }
    result.set("fixpoint.ranges_s", ranges_s);
    result.set("fixpoint.iwls_s", iwls_s);
    result.set("accuracy.calibration_s", calibration_s);
}

std::vector<double> traced_phase(const std::vector<SweepPoint>& grid,
                                 const std::vector<std::string>& reference_rows,
                                 double seconds,
                                 const std::function<double()>& repetition,
                                 Result& result) {
    PassTracer tracer;

    ExecOptions serial;
    serial.threads = 1;
    SweepDriver driver(serial);
    const size_t mismatches =
        row_mismatches(reference_rows, rows_of(run_sweep(driver, grid)));
    result.tally(grid.size(), mismatches);
    result.require(mismatches == 0,
                   "traced 1-thread rows equal the untraced rows");
    const std::map<std::string, PassTotals> serial_totals = tracer.totals();

    std::vector<double> walls;
    std::map<std::string, std::vector<double>> busy;
    std::map<std::string, PassTotals> last;
    repeat_for(seconds, [&] {
        tracer.reset();
        walls.push_back(repetition());
        last = tracer.totals();
        for (const auto& [pass, totals] : last) {
            busy[pass].push_back(totals.busy_s);
        }
    });

    for (const TracedPass& pass : traced_passes()) {
        if (busy.count(pass.pass) == 0) continue;  // not in any flow
        result.set(pass.label + ".busy_s", median(busy[pass.pass]));
        result.set(pass.label + ".busy_s_1t",
                   serial_totals.at(pass.pass).busy_s);
        result.set(pass.label + ".calls",
                   static_cast<double>(last[pass.pass].calls));
    }
    return walls;
}

}  // namespace perfbench

// Shared machinery of the benchmark: the metric lists, the result object
// printed as the last stdout line, timing helpers, and the output checks
// every workload runs against its 1-thread in-process reference sweep.
//
// Everything here calls the library's public API only; nothing under
// src/ knows it is being measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flow/sweep.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> values);
/// Run `body` at least once and until `seconds` have passed.
void repeat_for(double seconds, const std::function<void()>& body);

/// One stderr line summarizing a sample of wall times.
void log_sample(const std::string& what, const std::vector<double>& seconds);

/// Time a burst of set-ups — runs of `setup` for at least 0.02 s —
/// appending one sample per run. Workloads take a burst before
/// the reference and another before every cold repetition, so the
/// median (setup_s) spans the whole run rather than its first moments.
void sample_setup(std::vector<double>& samples,
                  const std::function<void()>& setup);

/// Command line: --workload NAME --seed N --seconds S --trace 0|1.
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// One metric the benchmark reports: name and unit, fixed per mode.
struct MetricSpec {
    std::string name;
    std::string unit;
};

/// The end-to-end metrics (printed with --trace 0) and the per-layer
/// metrics (printed with --trace 1), in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// The result object: metric values plus the correctness tally. A point
/// is attempted each time a timed or checked sweep runs it; it fails when
/// it throws or its row differs from the reference row.
class Result {
public:
    explicit Result(bool trace) : trace_(trace) {}

    /// Record a metric; the name must be in the current mode's list.
    void set(const std::string& name, double value);
    void tally(size_t attempted, size_t failed);
    /// A whole-run identity check (traced vs untraced bytes, farm vs
    /// in-process bytes); a false `ok` makes the run incorrect.
    void require(bool ok, const std::string& what);

    /// The one-line JSON object. Every metric of the mode is present:
    /// an end-to-end metric left unset is an error, a per-layer metric
    /// left unset is a layer the workload does not exercise and reads 0.
    std::string json() const;

private:
    bool trace_;
    std::map<std::string, double> values_;
    size_t attempted_ = 0;
    size_t failed_ = 0;
    bool correct_ = true;
};

/// CPUs this process may run on (the `nproc` count).
int available_cpus();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// One sweep through SweepDriver::run_timed. A point that throws leaves
/// an empty slot: when the whole-grid call throws, the points are re-run
/// one by one so every thrown point is known.
struct SweepRun {
    std::vector<std::optional<slpwlo::SweepResult>> results;
    std::vector<long long> micros;  ///< per point; 0 for thrown points
    double wall_s = 0.0;
    size_t thrown = 0;
};
SweepRun run_sweep(slpwlo::SweepDriver& driver,
                   const std::vector<slpwlo::SweepPoint>& points);

/// The rows of a run (sweep_result_to_json per point; "" for a thrown
/// point, which never matches a reference row).
std::vector<std::string> rows_of(const SweepRun& run);
/// The rows of a sweep_to_json report text.
std::vector<std::string> report_rows(const std::string& report);
/// Rows of `got` that differ from `want`, counting missing rows.
size_t row_mismatches(const std::vector<std::string>& want,
                      const std::vector<std::string>& got);

/// Fig. 4's y-axis over a result set: the geometric mean, over every
/// (kernel, target, constraint) that has both flows, of the
/// `scalar_flow` result's scalar cycles over the `simd_flow` result's
/// SIMD cycles. Kernels in `generated` (drawn from the workload seed)
/// are left out, so the figure does not move with the seed.
double speedup_geomean(const SweepRun& run, const std::string& scalar_flow,
                       const std::string& simd_flow,
                       const std::set<std::string>& generated = {});

/// Tape-simulated noise of every fixed-point result against its
/// constraint, with SimulationEvaluator (independent of the analytic
/// model the optimizer used). `driver` supplies the kernels. Results of
/// kernels in `generated` are tallied apart.
struct SimCheck {
    size_t checked = 0;
    size_t violations = 0;
    size_t generated_checked = 0;
    size_t generated_violations = 0;
    double seconds = 0.0;
};
SimCheck check_simulation(slpwlo::SweepDriver& driver, const SweepRun& run,
                          const std::set<std::string>& generated = {});
/// The sim_violation_ratio of `check` (violations over checked results).
double violation_ratio(const SimCheck& check);

/// Deterministic optimizer counters summed over a result set, and the
/// share of exact-flow results proven optimal (1 when none ran).
void report_counters(const SweepRun& run, Result& result);
double proven_ratio(const SweepRun& run);

/// Per-kernel preparation timed standalone on a fresh
/// KernelContext per distinct kernel of `points` (ranges, IWLs, gain
/// calibration), reported as fixpoint.ranges_s / fixpoint.iwls_s /
/// accuracy.calibration_s.
void report_preparation(const std::vector<slpwlo::SweepPoint>& points,
                        Result& result);

/// The traced half of a --trace 1 run. Installs a PassTracer, runs `grid`
/// once on a traced 1-thread driver, then calls `repetition` (one traced
/// repetition at the workload's full parallelism, returning its wall
/// seconds) until `seconds` have passed. Every traced sweep's rows must
/// equal `reference_rows`, the untraced bytes. Reports `<pass>.busy_s`
/// (median over repetitions), `.busy_s_1t` and `.calls`; returns the
/// repetition walls.
std::vector<double> traced_phase(
    const std::vector<slpwlo::SweepPoint>& grid,
    const std::vector<std::string>& reference_rows, double seconds,
    const std::function<double()>& repetition, Result& result);

}  // namespace perfbench

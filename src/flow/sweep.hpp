// SweepDriver: {kernel x target x flow x accuracy-constraint} grids on a
// work-stealing thread pool, with deterministic result ordering and shared
// memoization.
//
// Every experiment harness in bench/ is a sweep: run some flows on some
// kernels for some targets across an accuracy grid and tabulate. The
// driver centralizes what each bench used to reimplement:
//
//  * per-kernel preparation (range analysis, IWLs, noise-gain calibration)
//    is computed once per kernel and shared across every sweep point that
//    touches it (KernelContext's lazy, call_once-guarded artifacts);
//  * the evaluation stage (lowering + VLIW scheduling + analytic noise) is
//    memoized in an EvalCache keyed by a content hash of the final spec and
//    groups, so sweep points that converge to the same specification — and
//    repeated sweeps over the same grid — pay for it once;
//  * points run concurrently on a work-stealing ThreadPool; results land
//    in pre-assigned slots, so `run(points)[i]` always corresponds to
//    `points[i]` and the output is bit-identical at any thread count.
//
// Points may carry per-point FlowOptions overrides (the ablation benches
// flip flags like scaling_optim per variant) and per-point TargetModel
// overrides (cross-ISA and SIMD-width design-space sweeps; evaluation
// memoization keys the model by content fingerprint, not name).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flow/pass.hpp"
#include "kernels/kernels.hpp"
#include "target/target_model.hpp"

namespace slpwlo {

class ThreadPool;

/// One point of a sweep grid. `kernel` names a benchmark-registry kernel,
/// `target` a TargetRegistry model (targets::by_name), `flow` a
/// FlowRegistry pipeline — the exact counterparts are flows of their own
/// (`SLP-Optimal`, `WLO-Optimal`), so the flow name alone picks heuristic
/// or exact search. Members without a default initializer carry `{}`, so
/// brace-initialized points may omit trailing members without
/// -Wmissing-field-initializers.
struct SweepPoint {
    std::string kernel;
    std::string target;
    std::string flow = "WLO-SLP";
    double accuracy_db = -40.0;
    /// Per-point option overrides (accuracy_db is still taken from the
    /// point); absent points use the sweep-wide defaults.
    std::optional<FlowOptions> options{};
    /// Per-point target override: when present the point runs against
    /// this exact model and `target` is only a label (it is not looked
    /// up). Evaluation memo keys use the model's content fingerprint,
    /// never its name, so same-name points with different models cannot
    /// share cache entries — and a renamed copy of a model still hits.
    std::optional<TargetModel> target_model{};
    /// DSL source of a file-based kernel, the kernel-side analogue of
    /// `target_model`: when present the driver registers it (idempotent
    /// by content) before resolving `kernel` through the KernelRegistry,
    /// so a manifest point runs on a worker that never loaded the `.slp`
    /// file. Built-in kernels leave it empty. Populated by
    /// dist::embed_kernel_sources; point fingerprints mix it in, so
    /// same-name kernels with different sources can never alias.
    std::optional<std::string> kernel_source{};
};

/// Execution options shared by every sweep entry point — the in-process
/// SweepDriver, the local `run` verb and the farm worker
/// (farm::run_farm_worker) all consume this one struct, so a thread
/// count means the same thing on every path. Only `flow_options` can
/// change an outcome; the rest shape how this process runs the sweep.
struct ExecOptions {
    /// Worker threads; <= 0 picks the hardware concurrency.
    int threads = 0;
    /// Sweep-wide flow options (accuracy_db is overridden per point).
    FlowOptions flow_options;
    /// After each fixed-point point's flow, inside its task and timer,
    /// time the compiled kernel body (FlowResult::measured_ns) and
    /// simulate the final spec through exec::CompiledEvaluator
    /// (FlowResult::sim_noise_db); Float reference points are skipped.
    /// A property of the process that runs the sweep: no manifest, memo
    /// key, point fingerprint or report byte can see it.
    bool measure = false;
};

struct SweepResult {
    SweepPoint point;
    FlowResult flow;
};

struct SweepCacheStats {
    size_t eval_hits = 0;
    size_t eval_misses = 0;
    size_t eval_entries = 0;
    /// Stage-memo table counters (warm sweeps skip Tabu/SLP on stage hits).
    size_t stage_hits = 0;
    size_t stage_misses = 0;
    size_t stage_entries = 0;
    size_t contexts = 0;
    /// Process-wide JitCache traffic (exec/jit_cache.hpp): shared objects
    /// reused from / added to the on-disk cache by compiled evaluation and
    /// measurement. Both zero unless the compiled backend ran.
    size_t jit_hits = 0;
    size_t jit_builds = 0;
};

class SweepDriver {
public:
    explicit SweepDriver(ExecOptions options = {});
    ~SweepDriver();

    /// Cartesian grid helper: every kernel x target x flow x constraint.
    static std::vector<SweepPoint> grid(
        const std::vector<std::string>& kernels,
        const std::vector<std::string>& targets,
        const std::vector<std::string>& flows,
        const std::vector<double>& constraints);

    /// Grid with a SIMD-width axis: every kernel x target x width x flow
    /// x constraint, where width 0 keeps the registered base model and a
    /// positive width derives `base.with_simd_width(width)` as the
    /// point's target override. Targets resolve (and derivation errors
    /// surface) while the grid is built; use
    /// TargetModel::can_derive_simd_width to pre-filter incompatible
    /// {target, width} pairs.
    static std::vector<SweepPoint> grid(
        const std::vector<std::string>& kernels,
        const std::vector<std::string>& targets,
        const std::vector<int>& simd_widths,
        const std::vector<std::string>& flows,
        const std::vector<double>& constraints);

    /// Run all points (concurrently) and return results in point order.
    /// Throws if any point failed; the first failure is rethrown. Same as
    /// run_timed(points, nullptr).
    std::vector<SweepResult> run(const std::vector<SweepPoint>& points);

    /// The one sweep loop behind run(), the `run` verb and the farm
    /// worker: run `points` concurrently, returning results in point
    /// order. When `micros_out` is non-null it receives one measured
    /// wall-clock duration (microseconds) per point, aligned with the
    /// results — measurements are for scheduling, never part of any
    /// report bytes.
    std::vector<SweepResult> run_timed(const std::vector<SweepPoint>& points,
                                       std::vector<long long>* micros_out);

    /// Shared per-kernel context (built on first use, then reused —
    /// including across run() calls).
    const KernelContext& context(const std::string& kernel_name);

    /// The shared evaluation cache — the export/import surface for warm
    /// starts (dist/cache_snapshot.hpp): preload it before run() to start
    /// warm, export_entries() after to warm another driver.
    EvalCache& eval_cache() { return eval_cache_; }
    const EvalCache& eval_cache() const { return eval_cache_; }

    SweepCacheStats cache_stats() const;

    const ExecOptions& options() const { return options_; }

private:
    ExecOptions options_;
    mutable std::mutex contexts_mutex_;
    std::map<std::string, std::unique_ptr<KernelContext>> contexts_;
    EvalCache eval_cache_;
    /// Created on first run(), reused across runs (run() itself is not
    /// re-entrant; callers serialize their own run() calls).
    std::unique_ptr<ThreadPool> pool_;
};

/// The accuracy grid of the paper's figures: `from` down to `to`
/// (inclusive) in steps of `step` dB; point i is exactly from - i*step.
/// Empty when `to` > `from`. Throws Error on a non-finite argument, a
/// non-positive step, a step too small to move `from`, or a grid of more
/// than a million points.
std::vector<double> accuracy_grid(double from = -5.0, double to = -70.0,
                                  double step = 5.0);

/// One sweep result as a single-line JSON object: the FlowResult object
/// (report.hpp's to_json) with the point's option overrides spliced in
/// when present. This is the row format shard result files carry — the
/// distributed merge path reassembles sweep_to_json output byte-for-byte
/// from these rows.
std::string sweep_result_to_json(const SweepResult& result);

/// Serialize sweep results as a JSON array (see report.hpp for the
/// per-result object schema).
std::string sweep_to_json(const std::vector<SweepResult>& results);

/// EvalCache counters as a JSON object:
/// {"hits":..,"misses":..,"entries":..,"stage_hits":..,"stage_misses":..,
///  "stage_entries":..,"contexts":..}.
std::string cache_stats_to_json(const SweepCacheStats& stats);

/// Full sweep report: {"results":[...],"eval_cache":{...}} — the results
/// array plus the evaluation-cache counters, so warm-start effectiveness
/// is visible in machine-readable output.
std::string sweep_to_json(const std::vector<SweepResult>& results,
                          const SweepCacheStats& stats);

}  // namespace slpwlo

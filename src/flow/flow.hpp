// End-to-end compilation flows (Fig. 3 and Fig. 5), built on the
// FlowEngine (flow/pass.hpp): each flow is a declarative sequence of
// passes registered in the FlowRegistry.
//
// KernelContext bundles the per-kernel preparation that is independent of
// target and constraint — range analysis, IWL determination, noise-gain
// calibration. Artifacts are computed lazily, exactly once, and shared:
// constraint sweeps (flow/sweep.hpp) pay for them once per kernel even
// when sweep points run concurrently (preparation is thread-safe).
//
// Three flows:
//  * run_wlo_slp_flow    — the paper's joint flow (Fig. 3): SLP-aware WLO +
//    accuracy-aware SLP + scaling optimization;
//  * run_wlo_first_flow  — the decoupled baseline (Fig. 5): Tabu WLO, then
//    plain SLP;
//  * float_cycles        — the original single-precision version (Fig. 6
//    reference).
//
// Each fixed-point flow reports both the scalar and the SIMD cycle counts
// of its result; the paper's speedups divide the WLO-First *scalar* cycles
// by each flow's SIMD cycles (Section V.A, equation 2).
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "accuracy/analytic_evaluator.hpp"
#include "core/wlo_first.hpp"
#include "fixpoint/iwl.hpp"
#include "lower/lowering.hpp"
#include "schedule/cycle_model.hpp"

namespace slpwlo {

/// Exact-search outcome of one flow run (zero / `ran == false` for the
/// heuristic flows). Deterministic under the node budget, but — like
/// measured_ns — excluded from identity bytes: default to_json omits it.
struct SolverStats {
    bool ran = false;
    /// Branch-and-bound nodes expanded, summed over all solves.
    long long nodes = 0;
    /// Number of exact solves (one for WLO-Optimal; one per extraction
    /// round per block for SLP-Optimal).
    long long solves = 0;
    /// Every solve exhausted its search space within budget.
    bool proven_optimal = false;
    /// Objective of the heuristic incumbent(s) the search started from
    /// (Tabu cost, or summed greedy pack benefit).
    double heuristic_objective = 0.0;
    /// Objective of the returned solution; never worse than
    /// heuristic_objective.
    double best_objective = 0.0;
    /// Improvement of the exact answer over the heuristic, in objective
    /// units, >= 0 (cost reduction for WLO-Optimal, benefit increase for
    /// SLP-Optimal).
    double gap = 0.0;
};

struct FlowOptions {
    /// Accuracy constraint in dB.
    double accuracy_db = -40.0;
    QuantMode quant_mode = QuantMode::Truncate;
    WloSlpOptions wlo_slp;      ///< accuracy_db is overridden
    WloFirstOptions wlo_first;  ///< accuracy_db is overridden
    /// Node budget of the exact flows (WLO-Optimal, SLP-Optimal). It
    /// changes which incumbent an out-of-budget search returns, so it is
    /// mixed into stage memo keys and serialized into shard manifests.
    solver::SolveBudget solver_budget;
};

class KernelContext {
public:
    explicit KernelContext(Kernel kernel, const RangeOptions& range = {},
                           const GainOptions& gains = {});

    const Kernel& kernel() const { return kernel_; }

    /// Value ranges (computed on first use, then shared).
    const RangeMap& ranges() const;

    /// Analytic evaluator; construction calibrates the noise gains once.
    const AnalyticEvaluator& evaluator() const;

    /// Fresh spec with IWLs determined (FWLs zero; flows set WLs).
    FixedPointSpec initial_spec(QuantMode mode = QuantMode::Truncate) const;

    // --- FlowEngine preparation hooks ------------------------------------------
    // Idempotent and thread-safe: each artifact is computed exactly once
    // (std::call_once) no matter how many sweep threads ask for it.
    void ensure_ranges() const;
    void ensure_iwls() const;      ///< implies ensure_ranges()
    void ensure_evaluator() const;

    /// Content hash of the kernel's full printed structure and the gain
    /// calibration options (not just the kernel name) — memo keys use it
    /// so same-name kernels with different configurations or calibrations
    /// cannot alias. Computed once, lazily.
    uint64_t fingerprint() const;

    /// Round-1 SLP plans of this kernel's evaluator on the target model
    /// of content fingerprint `target_fp` (core/accuracy_aware_slp.hpp):
    /// created on first use, shared by every sweep point, and kept as
    /// long as the context.
    SlpPlanCache& slp_plans(uint64_t target_fp) const;

private:
    Kernel kernel_;
    RangeOptions range_options_;
    GainOptions gain_options_;

    mutable std::once_flag ranges_once_;
    mutable std::once_flag iwls_once_;
    mutable std::once_flag evaluator_once_;
    mutable std::once_flag fingerprint_once_;
    mutable RangeMap ranges_;
    mutable std::unique_ptr<FixedPointSpec> spec_template_;
    mutable std::unique_ptr<AnalyticEvaluator> evaluator_;
    mutable uint64_t fingerprint_ = 0;
    mutable std::mutex slp_plans_mutex_;
    mutable std::map<uint64_t, std::unique_ptr<SlpPlanCache>> slp_plans_;
};

/// Like SweepPoint, members without a default initializer carry `{}` so
/// designated initializers may name only the leading fields.
struct FlowResult {
    std::string flow_name;
    std::string kernel_name;
    std::string target_name;
    /// Content fingerprint of the resolved target model (name-free; see
    /// target_fingerprint in flow/pass.hpp) — identifies the exact model
    /// the point ran against even when names collide or derive variants.
    uint64_t target_fp = 0;
    double accuracy_db = 0.0;

    FixedPointSpec spec;  ///< the final fixed-point specification
    std::vector<BlockGroups> groups{};

    long long scalar_cycles = 0;  ///< fixed-point code, no SIMD
    long long simd_cycles = 0;    ///< fixed-point code with the groups
    double analytic_noise_db = 0.0;

    SlpStats slp_stats{};
    ScalingStats scaling_stats{};  ///< WLO-SLP only
    TabuStats tabu_stats{};        ///< WLO-First / WLO-Optimal only
    SolverStats solver_stats{};    ///< WLO-Optimal / SLP-Optimal only
    /// How WLO-SLP / SLP-Optimal answered accuracy-conflict pairs. Like
    /// measured_ns, a measurement of this run's work, not an outcome: it
    /// is left out of SlpStats, the stage memo and every identity
    /// fingerprint, and is zero when a stage-memo hit skipped the work.
    ConflictProbeStats conflict_stats{};
    int group_count = 0;

    /// Median wall time of one compiled kernel execution in nanoseconds
    /// (exec/measured_cost.hpp); 0 unless the sweep ran with
    /// ExecOptions::measure (flow/sweep.hpp) and the compiled backend was
    /// usable. Like per-slot micros, this is a measurement, not an
    /// outcome: it is excluded from every identity fingerprint and from
    /// default to_json bytes.
    long long measured_ns = 0;
    /// Simulation-verified noise of the final spec through
    /// exec::CompiledEvaluator (native when a host compiler is usable,
    /// the bit-identical tape otherwise); 0 unless the sweep ran with
    /// ExecOptions::measure. A sim-vs-analytic cross-check that also runs
    /// the compiled backend's degradation path during real sweeps.
    /// Observational, like measured_ns.
    double sim_noise_db = 0.0;
};

FlowResult run_wlo_slp_flow(const KernelContext& context,
                            const TargetModel& target,
                            const FlowOptions& options);

FlowResult run_wlo_first_flow(const KernelContext& context,
                              const TargetModel& target,
                              const FlowOptions& options);

/// Cycles of the original single-precision floating-point version.
long long float_cycles(const KernelContext& context,
                       const TargetModel& target);

}  // namespace slpwlo

// The SLP-aware word-length optimization algorithm (Fig. 1a) — the paper's
// headline contribution, joining float-to-fixed-point WLO with SLP
// extraction:
//
//   1. every node starts at the maximum WL supported by the target
//      (minimum SLP, maximum accuracy);
//   2. basic blocks are visited in priority order (their contribution to
//      execution time — we use static frequency weight, equivalent to
//      profiling for these single-hot-loop kernels);
//   3. per block, accuracy-aware SLP extraction (Fig. 1c) runs in rounds,
//      each selection committing equation (1) WL reductions, rewriting the
//      packed view to allow group widening;
//   4. finally, scaling optimization (Fig. 1b) equalizes per-lane shift
//      amounts across superword reuses.
//
// Output: the jointly determined fixed-point specification (spec is mutated
// in place) and the selected SIMD groups per block.
#pragma once

#include "core/accuracy_aware_slp.hpp"
#include "core/scaling_optim.hpp"

namespace slpwlo {

struct WloSlpOptions {
    /// Accuracy constraint in dB (maximum output noise power).
    double accuracy_db = -40.0;
    /// Run Fig. 1b after extraction (off for ablation A1).
    bool scaling_optim = true;
    /// Fig. 1c accuracy-conflict detection (off for ablation A2).
    bool accuracy_conflicts = true;
    /// Strict per-selection feasibility recheck (off for ablation A2).
    bool strict_feasibility = true;
    SlpOptions slp;
    /// `SLP-Optimal`: exact per-round pack selection (see
    /// AccuracySlpConfig::exact_selection).
    bool exact_selection = false;
    solver::SolveBudget solver_budget;
};

struct BlockGroups {
    BlockId block;
    std::vector<SimdGroup> groups;
};

struct WloSlpResult {
    std::vector<BlockGroups> block_groups;
    SlpStats slp_stats;
    ScalingStats scaling_stats;
    /// Exact-selection statistics, populated when
    /// WloSlpOptions::exact_selection is on (zero solves otherwise).
    solver::PackSelectStats solver_stats;
    /// How the accuracy-conflict hook answered its pairs (a measurement).
    ConflictProbeStats conflict_stats;

    /// Total number of SIMD groups selected.
    int group_count() const;
};

/// Blocks ordered by descending execution-frequency priority (ties by id).
std::vector<BlockId> blocks_by_priority(const Kernel& kernel);

/// `plans`, when non-null, holds the round-1 plans of `evaluator` on
/// `target` (SlpPlanCache); the result is the same with or without it.
WloSlpResult run_slp_aware_wlo(const Kernel& kernel, FixedPointSpec& spec,
                               const AccuracyEvaluator& evaluator,
                               const TargetModel& target,
                               const WloSlpOptions& options,
                               SlpPlanCache* plans = nullptr);

}  // namespace slpwlo

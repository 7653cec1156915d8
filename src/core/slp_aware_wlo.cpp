#include "core/slp_aware_wlo.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace slpwlo {

int WloSlpResult::group_count() const {
    int count = 0;
    for (const BlockGroups& bg : block_groups) {
        count += static_cast<int>(bg.groups.size());
    }
    return count;
}

std::vector<BlockId> blocks_by_priority(const Kernel& kernel) {
    std::vector<BlockId> blocks = kernel.blocks_in_order();
    std::stable_sort(blocks.begin(), blocks.end(),
                     [&kernel](BlockId a, BlockId b) {
                         return kernel.block_frequency(a) >
                                kernel.block_frequency(b);
                     });
    return blocks;
}

WloSlpResult run_slp_aware_wlo(const Kernel& kernel, FixedPointSpec& spec,
                               const AccuracyEvaluator& evaluator,
                               const TargetModel& target,
                               const WloSlpOptions& options,
                               SlpPlanCache* plans) {
    SLPWLO_ASSERT(&spec.kernel() == &kernel,
                  "spec belongs to a different kernel");

    // Fig. 1a lines 1-3: initialize every node to the maximum supported WL.
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, target.max_wl());
    }
    SLPWLO_CHECK(
        !evaluator.violates(spec, options.accuracy_db),
        "accuracy constraint " + std::to_string(options.accuracy_db) +
            " dB is infeasible even at maximum word lengths on target " +
            target.name);

    AccuracySlpConfig slp_config;
    slp_config.accuracy_db = options.accuracy_db;
    slp_config.accuracy_conflicts = options.accuracy_conflicts;
    slp_config.strict_feasibility = options.strict_feasibility;
    slp_config.slp = options.slp;
    slp_config.plans = plans;

    WloSlpResult result;
    slp_config.conflict_stats = &result.conflict_stats;
    slp_config.exact_selection = options.exact_selection;
    slp_config.solver_budget = options.solver_budget;
    if (options.exact_selection) {
        slp_config.solver_stats = &result.solver_stats;
    }
    // Fig. 1a line 4: visit blocks in priority order so the accuracy
    // budget is spent on the hottest code first.
    for (const BlockId block : blocks_by_priority(kernel)) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        std::vector<SimdGroup> groups = accuracy_aware_slp(
            view, spec, evaluator, target, slp_config, &result.slp_stats);
        if (options.scaling_optim && !groups.empty()) {
            result.scaling_stats += optimize_scalings(
                view, groups, spec, evaluator, options.accuracy_db);
        }
        if (!groups.empty()) {
            result.block_groups.push_back(
                BlockGroups{block, std::move(groups)});
        }
    }

    SLPWLO_ASSERT(spec.open_checkpoints() == 0,
                  "unbalanced spec checkpoints after WLO");
    return result;
}

}  // namespace slpwlo

#include "core/wlo_first.hpp"

namespace slpwlo {

int WloFirstResult::group_count() const {
    int count = 0;
    for (const BlockGroups& bg : block_groups) {
        count += static_cast<int>(bg.groups.size());
    }
    return count;
}

std::vector<BlockGroups> extract_plain_slp_blocks(
    const Kernel& kernel, const TargetModel& target,
    const FixedPointSpec& spec, const SlpOptions& options, SlpStats* stats) {
    std::vector<BlockGroups> block_groups;
    for (const BlockId block : blocks_by_priority(kernel)) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        std::vector<SimdGroup> groups =
            extract_slp_plain(view, target, spec, options, stats);
        if (!groups.empty()) {
            block_groups.push_back(BlockGroups{block, std::move(groups)});
        }
    }
    return block_groups;
}

WloFirstResult run_wlo_first(const Kernel& kernel, FixedPointSpec& spec,
                             const AccuracyEvaluator& evaluator,
                             const TargetModel& target,
                             const WloFirstOptions& options) {
    WloFirstResult result;

    // Stage 1: word-length optimization, SLP-blind.
    result.tabu_stats = run_tabu_wlo(spec, evaluator, target,
                                     options.accuracy_db, options.tabu);

    // Stage 2: plain SLP extraction on the fixed word lengths.
    result.block_groups = extract_plain_slp_blocks(
        kernel, target, spec, options.slp, &result.slp_stats);
    return result;
}

}  // namespace slpwlo

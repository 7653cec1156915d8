// The WLO-First baseline flow (Fig. 5): float-to-fixed-point conversion
// with Tabu-search WLO performed *first* and independently, followed by
// plain SLP extraction that must live with whatever word lengths WLO chose.
//
// This is the decoupled state of the art the paper compares against
// (Menard'06 cost model + Nguyen'11 Tabu WLO + Liu'12 SLP). There is no
// accuracy awareness in the extractor and no scaling optimization — the
// mismatches WLO created stay in the generated code as per-lane scalings
// and pack/unpack overhead.
#pragma once

#include "core/slp_aware_wlo.hpp"
#include "core/tabu_wlo.hpp"

namespace slpwlo {

struct WloFirstOptions {
    double accuracy_db = -40.0;
    TabuOptions tabu;
    SlpOptions slp;
};

struct WloFirstResult {
    std::vector<BlockGroups> block_groups;
    TabuStats tabu_stats;
    SlpStats slp_stats;

    int group_count() const;
};

WloFirstResult run_wlo_first(const Kernel& kernel, FixedPointSpec& spec,
                             const AccuracyEvaluator& evaluator,
                             const TargetModel& target,
                             const WloFirstOptions& options);

/// Stage 2 of the WLO-First flow in isolation: plain SLP extraction over
/// all blocks in priority order (shared by run_wlo_first and the
/// FlowEngine's plain-slp pass).
std::vector<BlockGroups> extract_plain_slp_blocks(
    const Kernel& kernel, const TargetModel& target,
    const FixedPointSpec& spec, const SlpOptions& options,
    SlpStats* stats = nullptr);

}  // namespace slpwlo

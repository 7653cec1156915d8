#include "slp/benefit.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace slpwlo {

double benefit_score(const Economics& econ, BenefitMode mode) {
    switch (mode) {
        case BenefitMode::ReuseOverCost:
            return (1.0 + econ.reuse) /
                   (1.0 + econ.pack_cost + econ.unpack_cost);
        case BenefitMode::SavingsOnly:
            return 2.0 * econ.saved_ops - (econ.pack_cost + econ.unpack_cost);
    }
    return 0.0;
}

std::vector<Candidate> select_candidates(
    const PackedView& view, std::vector<Candidate> candidates,
    const ConflictSet& conflicts, const TargetModel& target, BenefitMode mode,
    double min_benefit, const TrySelect& try_select, int* rejected_count) {
    // Each candidate is estimated against the candidates its selection
    // could coexist with: the alive non-conflicting ones plus the
    // selections already committed this round. Reuse promised by a
    // candidate that selecting it would eliminate is not real. The index
    // scores that pool from the current alive/committed state without
    // materializing it.
    const CandidateIndex index(view, candidates, target);
    CandidateIndex::Pool pool(candidates.size(), &conflicts);
    std::vector<char>& alive = pool.alive;

    std::vector<Candidate> selected;
    int alive_count = static_cast<int>(candidates.size());

    while (alive_count > 0) {
        double best_score = 0.0;
        double best_saved = 0.0;
        size_t best = candidates.size();
        for (size_t i = 0; i < candidates.size(); ++i) {
            if (!alive[i]) continue;
            const Economics econ = index.evaluate(i, pool);
            const double score = benefit_score(econ, mode);
            const bool better =
                best == candidates.size() || score > best_score ||
                (score == best_score && econ.saved_ops > best_saved);
            if (better) {
                best = i;
                best_score = score;
                best_saved = econ.saved_ops;
            }
        }
        SLPWLO_ASSERT(best < candidates.size(), "no candidate selected");
        if (best_score < min_benefit) break;  // only unprofitable ones left

        alive[best] = 0;
        alive_count--;

        if (try_select && !try_select(candidates[best])) {
            if (rejected_count != nullptr) (*rejected_count)++;
            continue;
        }
        pool.commit_rank[best] = static_cast<int>(selected.size());
        selected.push_back(candidates[best]);

        // Eliminate everything in conflict with the selection.
        for (size_t i = 0; i < candidates.size(); ++i) {
            if (alive[i] && conflicts.conflict(best, i)) {
                alive[i] = 0;
                alive_count--;
            }
        }
    }
    return selected;
}

}  // namespace slpwlo

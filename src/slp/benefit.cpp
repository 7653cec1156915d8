#include "slp/benefit.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

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

namespace {

void set_bit(uint64_t* row, size_t bit) {
    row[bit / 64] |= uint64_t{1} << (bit % 64);
}

bool test_bit(const uint64_t* row, size_t bit) {
    return (row[bit / 64] >> (bit % 64)) & 1u;
}

/// Rejects a candidate whose commit would close a dependence cycle with
/// the packs committed earlier in the round and the view's fused nodes.
/// Pairwise structural conflicts see 2-cycles between two candidates
/// only; three or more packs can still form a cycle, which lowering could
/// not schedule.
///
/// Committing a candidate contracts its members into one node, which
/// closes a cycle exactly when one member already reaches another in the
/// graph with every committed pack contracted. The view's dependence rows
/// are transitive through scalar nodes (a scalar ancestor's own ancestors
/// are in the row already), so the ancestor closure of the members only
/// needs to follow fused view nodes and the members of committed packs.
class CycleGuard {
public:
    explicit CycleGuard(const PackedView& view)
        : view_(view),
          words_(view.dep_words()),
          expandable_(words_, 0),
          pack_of_(static_cast<size_t>(view.size()), -1),
          reach_(words_),
          expanded_(words_) {
        for (int node = 0; node < view.size(); ++node) {
            if (view.width(node) >= 2) {
                set_bit(expandable_.data(), static_cast<size_t>(node));
            }
        }
    }

    bool closes_cycle(const Candidate& candidate) {
        std::fill(reach_.begin(), reach_.end(), 0);
        std::fill(expanded_.begin(), expanded_.end(), 0);
        for (const int member : candidate.nodes) merge(member);
        for (bool grew = true; grew;) {
            grew = false;
            for (size_t w = 0; w < words_; ++w) {
                uint64_t pending = reach_[w] & expandable_[w] & ~expanded_[w];
                for (; pending != 0; pending &= pending - 1) {
                    const size_t node =
                        w * 64 + static_cast<size_t>(std::countr_zero(pending));
                    set_bit(expanded_.data(), node);
                    merge(static_cast<int>(node));
                    if (pack_of_[node] >= 0) {
                        for (const int member :
                             packs_[static_cast<size_t>(pack_of_[node])]) {
                            set_bit(reach_.data(), static_cast<size_t>(member));
                        }
                    }
                    grew = true;
                }
            }
        }
        for (const int member : candidate.nodes) {
            if (test_bit(reach_.data(), static_cast<size_t>(member))) {
                return true;
            }
        }
        return false;
    }

    void commit(const Candidate& candidate) {
        for (const int member : candidate.nodes) {
            pack_of_[static_cast<size_t>(member)] =
                static_cast<int>(packs_.size());
            set_bit(expandable_.data(), static_cast<size_t>(member));
        }
        packs_.push_back(candidate.nodes);
    }

private:
    /// reach |= the node's dependence row.
    void merge(int node) {
        const uint64_t* row = view_.dep_row(node);
        for (size_t w = 0; w < words_; ++w) reach_[w] |= row[w];
    }

    const PackedView& view_;
    size_t words_;
    /// Nodes whose ancestors a row does not already hold: fused view
    /// nodes and the members of committed packs.
    std::vector<uint64_t> expandable_;
    std::vector<int> pack_of_;  ///< per view node: its committed pack
    std::vector<std::vector<int>> packs_;
    std::vector<uint64_t> reach_;     ///< closes_cycle scratch
    std::vector<uint64_t> expanded_;  ///< closes_cycle scratch
};

}  // namespace

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
    CycleGuard cycles(view);

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

        // The cycle check comes first: try_select commits the candidate's
        // word lengths when it accepts.
        if (cycles.closes_cycle(candidates[best]) ||
            (try_select && !try_select(candidates[best]))) {
            if (rejected_count != nullptr) (*rejected_count)++;
            continue;
        }
        pool.commit_rank[best] = static_cast<int>(selected.size());
        selected.push_back(candidates[best]);
        cycles.commit(candidates[best]);

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

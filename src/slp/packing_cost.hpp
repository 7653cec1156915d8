// Candidate economics: superword reuse and packing/unpacking cost
// (the Liu-style benefit inputs, Section II.A / III.B).
//
// For a candidate (the tentative fusion of two view nodes), we analyze:
//  * memory adjacency — contiguous loads/stores become one vector access,
//    anything else needs per-lane packing/extraction;
//  * operand superwords — an operand vector is free when another candidate
//    (or an already-formed group) produces exactly those lanes in order,
//    cheap when it is a splat, and otherwise costs pack operations;
//  * result use — a result consumed lane-by-lane by scalar code costs
//    extraction; consumed by a matching candidate it is a reuse.
#pragma once

#include <vector>

#include "slp/conflict.hpp"

namespace slpwlo {

struct Economics {
    /// Superword reuses enabled by selecting this candidate (operand vectors
    /// produced by other candidates/groups + consumers that can take the
    /// result as a superword).
    double reuse = 0.0;
    /// ALU ops to assemble operand vectors that are not reusable.
    double pack_cost = 0.0;
    /// ALU ops to extract lanes consumed by scalar code.
    double unpack_cost = 0.0;
    /// Instruction issues saved by fusing (one per fusion).
    double saved_ops = 0.0;
};

/// The fused lane list of a candidate: lanes(a) followed by lanes(b).
std::vector<OpId> fused_lanes(const PackedView& view, const Candidate& c);

/// True if the lanes are loads/stores of consecutive elements (ascending,
/// constant step 1) of one array.
bool lanes_memory_adjacent(const PackedView& view,
                           const std::vector<OpId>& lanes);

/// In-block defining ops of each lane's operand `slot`; empty if any lane's
/// operand is live-in to the block.
std::vector<OpId> operand_defs(const PackedView& view,
                               const std::vector<OpId>& lanes, int slot);

/// A selection round's candidates, indexed once so that scoring a
/// candidate against any pool costs O(its relations) instead of a scan of
/// the pool: per candidate, its fused lanes, the pool-independent
/// economics terms, and two relation lists — the usable candidates that
/// produce each operand superword (direct or reversed, in index order)
/// and the candidates that consume its result as a superword (with the
/// number of operand slots that match).
class CandidateIndex {
public:
    CandidateIndex(const PackedView& view,
                   const std::vector<Candidate>& candidates,
                   const TargetModel& target);

    /// Which candidates a score may lean on. Candidate j is in candidate
    /// i's pool when it is alive and does not conflict with i, or when it
    /// was committed earlier in the round. A producer is taken from the
    /// alive part first (lowest index), then from the committed part
    /// (earliest commit), then from the view's existing groups.
    struct Pool {
        std::vector<char> alive;
        /// Commit order within the round; -1 while not committed.
        std::vector<int> commit_rank;
        /// Null: no conflicts.
        const ConflictSet* conflicts = nullptr;

        /// Every candidate alive, none committed.
        Pool(size_t size, const ConflictSet* conflicts_)
            : alive(size, 1), commit_rank(size, -1), conflicts(conflicts_) {}
    };

    /// Economics of candidate i against `pool`. A candidate is never in
    /// its own pool.
    Economics evaluate(size_t i, const Pool& pool) const;

private:
    enum class Match : uint8_t { No, Direct, Reversed };

    struct Producer {
        uint32_t candidate;
        Match match;
    };
    struct Consumer {
        uint32_t candidate;
        int slots;  ///< operand slots of the consumer fed by these lanes
    };
    struct Slot {
        /// acc = acc + p: always a reuse, no producer needed.
        bool self_accumulation = false;
        std::vector<Producer> producers;
        /// The first existing view group producing the operand.
        Match group = Match::No;
        /// Terms when nothing produces the operand: adjacent loads, a
        /// splat or lane-by-lane packing.
        double fallback_reuse = 0.0;
        double fallback_pack = 0.0;
    };
    struct Entry {
        double saved_ops = 0.0;
        double gather_pack = 0.0;  ///< non-adjacent memory access
        std::vector<Slot> slots;
        bool produces_value = false;  ///< not a store
        bool self_consumed = false;   ///< consumes its own result
        double unpack_if_unconsumed = 0.0;
        std::vector<Consumer> consumers;
    };

    std::vector<Entry> entries_;
};

/// Economics of candidate `c` when every candidate in `available` (other
/// than c itself) is in its pool, in order.
Economics evaluate_candidate(const PackedView& view,
                             const std::vector<Candidate>& available,
                             const Candidate& c, const TargetModel& target);

}  // namespace slpwlo

// The SLP extraction engine and the plain (accuracy-blind) extractor used
// by the WLO-First baseline.
//
// The engine implements the round structure shared by both extractors:
// extract candidates (pairs, through virtual widths when needed, plus
// k-lane run seeds on pair-cliff targets) -> filter -> detect conflicts
// -> iterative selection -> fuse selections into wider nodes -> repeat
// while groups form (Fig. 1a lines 6-14 + Fig. 1c). After the rounds,
// nodes stranded at a virtual width are split back to scalars, so only
// target-realizable groups ever leave the engine.
// The accuracy-aware behaviour of the paper's core algorithm is injected
// through SlpHooks by src/core/accuracy_aware_slp.
#pragma once

#include <functional>

#include "fixpoint/spec.hpp"
#include "slp/benefit.hpp"

namespace slpwlo {

struct SlpStats {
    int rounds = 0;
    int candidates_seen = 0;
    int invalid_candidates = 0;   ///< removed by the validity hook (accuracy)
    int structural_conflicts = 0;
    int extra_conflicts = 0;      ///< added by the conflict hook (accuracy)
    int selected = 0;
    int rejected_at_select = 0;   ///< vetoed by the selection hook
    /// Nodes stranded at a virtual (unrealizable) width at the end of
    /// extraction and split back to scalars.
    int devirtualized = 0;

    SlpStats& operator+=(const SlpStats& other);
};

struct SlpHooks {
    /// Fig. 1c lines 6-12: may a candidate be implemented at all?
    std::function<bool(const Candidate&)> candidate_valid;
    /// Fig. 1c lines 14-25: once per round, add the extra (accuracy)
    /// conflicts among the round's valid `candidates` to `conflicts`,
    /// which holds the structural ones. Only pairs not already in
    /// conflict are candidates for an extra one. Returns how many pairs
    /// it added.
    std::function<int(const std::vector<Candidate>& candidates,
                      ConflictSet& conflicts)>
        add_conflicts;
    /// Fig. 1c line 34 (+ strict feasibility): commit the candidate's WL
    /// reduction; returning false drops it.
    std::function<bool(const Candidate&)> try_select;
    /// When set, replaces the greedy per-round selection entirely (the
    /// `SLP-Optimal` flow plugs the exact solver in here): receives the
    /// round's valid candidates and the full conflict set (structural +
    /// extra) and returns the selected subset with every selection's WL
    /// commitment already applied. The int* accumulates selection-time
    /// rejections, like select_candidates' rejected_count.
    std::function<std::vector<Candidate>(std::vector<Candidate>,
                                         const ConflictSet&, int*)>
        select_round;
    /// Called when a round starts (spec checkpointing).
    std::function<void()> round_begin;
    /// Called with the round's selection before fusing; may filter it
    /// (demoting stranded candidates) and adjust the spec accordingly.
    std::function<std::vector<Candidate>(std::vector<Candidate>)> round_finish;
};

struct SlpOptions {
    /// Safety bound on widening rounds (each round at least doubles group
    /// width, so 6 covers any realistic SIMD).
    int max_rounds = 6;
    BenefitMode benefit_mode = BenefitMode::ReuseOverCost;
    /// Profitability floor: stop selecting once the best remaining
    /// candidate's benefit drops below this (0 reproduces the paper's
    /// filter-free behaviour, see the CONV discussion in Section V.D).
    double min_benefit = 0.75;
};

/// Run extraction rounds on `view`, which is left in its final packed state
/// (callers can inspect it for scaling optimization).
std::vector<SimdGroup> extract_slp(PackedView& view, const TargetModel& target,
                                   const SlpOptions& options,
                                   const SlpHooks& hooks = {},
                                   SlpStats* stats = nullptr);

/// The WLO-First baseline extractor: plain Liu-style SLP whose only
/// word-length awareness is the legality rule that all elements of a group
/// carry the same WL and fit a supported SIMD configuration. It never
/// consults an accuracy evaluator and never changes the spec.
std::vector<SimdGroup> extract_slp_plain(PackedView& view,
                                         const TargetModel& target,
                                         const FixedPointSpec& spec,
                                         const SlpOptions& options = {},
                                         SlpStats* stats = nullptr);

}  // namespace slpwlo

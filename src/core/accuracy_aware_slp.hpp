// Accuracy-aware SLP extraction (Fig. 1c) — the first half of the paper's
// contribution.
//
// On top of the structural Liu-style extraction (src/slp), this version:
//  * eliminates candidates that cannot be implemented as SIMD without
//    violating the accuracy constraint, even with every other node at its
//    current (widest) WL (lines 6-12);
//  * declares two candidates in conflict when their combined WL reductions
//    violate the constraint (lines 14-25) — they cannot coexist;
//  * commits equation (1) on every selection: all elements of a selected
//    group drop to the largest WL m with m * Nelem <= SIMD width (SETMAXWL);
//  * optionally (strict_feasibility, on by default) re-checks the
//    constraint on top of all previously committed selections before
//    accepting a group. The paper's pairwise conflicts are necessary but
//    not sufficient when many small noise contributions accumulate; see
//    DESIGN.md "Key design decisions".
#pragma once

#include <memory>

#include "accuracy/evaluator.hpp"
#include "slp/plain_extractor.hpp"
#include "solver/pack_select.hpp"

namespace slpwlo {

/// How the accuracy-conflict hook (Fig. 1c lines 14-25) reached its
/// answers. Measurements, not outcomes: every answer is the one a probe of
/// the pair's merged spec gives, whichever way it was reached.
struct ConflictProbeStats {
    /// Pairs of change lists the closed-form filter decided without an
    /// evaluation (once per round, however many candidate pairs share
    /// the two lists).
    long long filter_decided = 0;
    /// Evaluations of a pair's merged spec (memo misses).
    long long probes = 0;

    ConflictProbeStats& operator+=(const ConflictProbeStats& other) {
        filter_decided += other.filter_decided;
        probes += other.probes;
        return *this;
    }
};

class SlpPlanCache;

struct AccuracySlpConfig {
    /// Accuracy constraint: maximum tolerable output noise power in dB.
    double accuracy_db = -40.0;
    /// Enable the accuracy-conflict detection of Fig. 1c lines 14-25.
    bool accuracy_conflicts = true;
    /// Re-check feasibility at selection time (see header comment).
    bool strict_feasibility = true;
    SlpOptions slp;
    /// `SLP-Optimal`: replace the greedy per-round selection with the
    /// exact solver (solver/pack_select.hpp) under `solver_budget`,
    /// seeded with the greedy answer. Cumulative accuracy feasibility is
    /// enforced inside the search through the same equation-(1)
    /// machinery the greedy hooks use.
    bool exact_selection = false;
    solver::SolveBudget solver_budget;
    /// When non-null, exact-selection statistics accumulate here (one
    /// solve per round).
    solver::PackSelectStats* solver_stats = nullptr;
    /// When non-null, the conflict hook's counters accumulate here.
    ConflictProbeStats* conflict_stats = nullptr;
    /// When non-null, round 1 of an unfused view is taken from (or first
    /// recorded into) this cache of round-1 plans; see SlpPlanCache.
    SlpPlanCache* plans = nullptr;
};

/// Round-1 plans of one evaluator and one target model, shared by every
/// constraint of a sweep (DESIGN.md §10, "The round-1 plan"). Round 1 of
/// a block starts from an unfused view, so its candidates, their
/// equation-(1) change lists, each candidate's own noise power and each
/// pair's merged-state answer depend on the block and the round-base
/// spec alone; the constraint enters only through comparisons. A plan
/// records them once per (block, base formats, quantization mode), the
/// formats compared exactly, and each point thresholds its own
/// constraint against it, reaching the answers its own probes would.
/// Only additive sessions (EvalSession::noise_split) plan. Thread-safe;
/// plans live as long as the cache.
class SlpPlanCache {
public:
    SlpPlanCache();
    ~SlpPlanCache();
    SlpPlanCache(const SlpPlanCache&) = delete;
    SlpPlanCache& operator=(const SlpPlanCache&) = delete;

    /// Plans recorded so far.
    size_t size() const;

private:
    friend class AccuracySlpHooks;
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Equation (1): reduce the WL of every node carrying a lane of `lanes` to
/// the element width a group of `group_width` lanes executes at once
/// realized (for a virtual width, the realization configuration's element
/// width; never increasing a WL that is already smaller).
void set_group_max_wl(FixedPointSpec& spec, const std::vector<OpId>& lanes,
                      int group_width, const TargetModel& target);

/// The hook set accuracy_aware_slp drives the extraction engine with,
/// bound to one block view, the spec being optimized and one incremental
/// evaluation session on it. Not copyable: the hooks refer to this
/// object's round state. `hooks` is a plain member, so a caller may swap
/// one hook for its own (the tests swap in a probe-per-pair reference).
///
/// The conflict hook answers most pairs without evaluating them. Every
/// candidate's equation-(1) change list — the sorted (node, new WL) pairs
/// it changes from the round-base spec — is computed once per round, and
/// candidates with equal lists share one answer per partner list. For a
/// pair of distinct lists, in order:
///  * when the session is additive (EvalSession::noise_split), each list's
///    change of V and M and the sorted set of noise terms it touches are
///    known; two lists touching disjoint term sets add up exactly, so the
///    pair's noise follows in O(1), and the pair is decided when that
///    value clears the constraint by more than a rounding-error bound
///    (DESIGN.md §10);
///  * otherwise the pair's spec state is the two lists min-merged. A
///    merged list equal to one side's own list is that candidate's own
///    state, which the validity hook already accepted on the same base,
///    so it cannot violate; any other state is probed once and the answer
///    reused for every pair reaching it.
/// Equal spec states give equal noise bits, so the answers are those of a
/// probe per pair. With a plan cache, round 1 of an unfused view reads
/// validity, classes and the pairs' answers from the block's plan instead
/// (see SlpPlanCache); later rounds run as above.
class AccuracySlpHooks {
public:
    AccuracySlpHooks(const PackedView& view, FixedPointSpec& spec,
                     const AccuracyEvaluator& evaluator,
                     const TargetModel& target,
                     const AccuracySlpConfig& config);
    ~AccuracySlpHooks();
    AccuracySlpHooks(const AccuracySlpHooks&) = delete;
    AccuracySlpHooks& operator=(const AccuracySlpHooks&) = delete;

    /// Pass to extract_slp, then call finish().
    SlpHooks hooks;

    /// Commit the WL changes of a round the engine left open (the last
    /// one, when it ended without a selection).
    void finish();

private:
    struct State;
    std::unique_ptr<State> state_;
};

/// Run accuracy-aware extraction on one block view. `spec` is mutated: the
/// selected groups' nodes end up at their equation-(1) word lengths.
std::vector<SimdGroup> accuracy_aware_slp(PackedView& view,
                                          FixedPointSpec& spec,
                                          const AccuracyEvaluator& evaluator,
                                          const TargetModel& target,
                                          const AccuracySlpConfig& config,
                                          SlpStats* stats = nullptr);

}  // namespace slpwlo

#include "core/accuracy_aware_slp.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/diagnostics.hpp"

namespace slpwlo {

void set_group_max_wl(FixedPointSpec& spec, const std::vector<OpId>& lanes,
                      int group_width, const TargetModel& target) {
    // A virtual-width group commits the WL of its *realization*
    // configuration — the element width its lanes will execute at once
    // the group has grown into an implementable size.
    const auto m = target.realized_element_wl(group_width);
    SLPWLO_ASSERT(m.has_value(),
                  "set_group_max_wl on an unrealizable group size");
    for (const OpId lane : lanes) {
        const NodeRef node = spec.node_of(lane);
        const int wl = std::min(spec.format(node).wl(), *m);
        spec.set_wl(node, wl);
    }
}

namespace {

/// One entry of an equation-(1) change list: a node (vars and arrays
/// interleaved by id) and the WL it moves to.
struct WlChange {
    uint32_t node;
    int32_t wl;

    friend bool operator==(const WlChange&, const WlChange&) = default;
};

using ChangeList = std::vector<WlChange>;

struct ChangeListHash {
    size_t operator()(const ChangeList& list) const {
        uint64_t h = 1469598103934665603ull;
        for (const WlChange& c : list) {
            h = (h ^ c.node) * 1099511628211ull;
            h = (h ^ static_cast<uint32_t>(c.wl)) * 1099511628211ull;
        }
        return static_cast<size_t>(h);
    }
};

}  // namespace

struct AccuracySlpHooks::State {
    const PackedView& view;
    FixedPointSpec& spec;
    const TargetModel& target;
    const AccuracySlpConfig& config;
    /// One incremental session for the whole extraction: the hooks probe
    /// small WL perturbations thousands of times, and the journal-tracking
    /// session re-evaluates each probe in O(changed nodes).
    std::unique_ptr<EvalSession> eval;

    /// Open across a round, so the round's selections can be replayed.
    FixedPointSpec::Checkpoint round_cp = 0;
    bool round_open = false;
    /// Exact selection: the solver's revertible equation-(1) fixes.
    std::vector<FixedPointSpec::Checkpoint> fix_stack{};

    /// Conflict memo of the current round (see the class comment).
    std::vector<ChangeList> changes{};
    std::vector<char> has_changes{};
    std::unordered_map<ChangeList, bool, ChangeListHash> memo{};
    ChangeList merged{};  ///< scratch key

    void apply_eq1(const Candidate& c) {
        const std::vector<OpId> lanes = fused_lanes(view, c);
        set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()), target);
    }

    bool violates() { return eval->violates(config.accuracy_db); }

    /// Candidate i's equation-(1) change list against the round-base spec
    /// (the spec is at the round base while conflicts are detected).
    const ChangeList& changes_of(const std::vector<Candidate>& candidates,
                                 size_t i) {
        if (changes.size() != candidates.size()) {
            changes.assign(candidates.size(), {});
            has_changes.assign(candidates.size(), 0);
        }
        ChangeList& list = changes[i];
        if (has_changes[i]) return list;
        has_changes[i] = 1;
        const std::vector<OpId> lanes = fused_lanes(view, candidates[i]);
        const auto m =
            target.realized_element_wl(static_cast<int>(lanes.size()));
        SLPWLO_ASSERT(m.has_value(),
                      "set_group_max_wl on an unrealizable group size");
        for (const OpId lane : lanes) {
            const NodeRef node = spec.node_of(lane);
            const int wl = spec.format(node).wl();
            if (*m >= wl) continue;  // no-op
            list.push_back(
                {static_cast<uint32_t>(node.id) * 2 +
                     (node.kind == NodeRef::Kind::Array ? 1u : 0u),
                 static_cast<int32_t>(*m)});
        }
        std::sort(list.begin(), list.end(),
                  [](const WlChange& x, const WlChange& y) {
                      return x.node < y.node;
                  });
        // Lanes sharing a node (an array's loads) move it identically.
        list.erase(std::unique(list.begin(), list.end()), list.end());
        return list;
    }

    bool extra_conflict(const std::vector<Candidate>& candidates, size_t i,
                        size_t j) {
        const ChangeList& a = changes_of(candidates, i);
        const ChangeList& b = changes_of(candidates, j);
        // Min-merge: applying both lists leaves each node at the smaller
        // of the two WLs.
        merged.clear();
        bool is_a = true;
        bool is_b = true;
        size_t x = 0, y = 0;
        while (x < a.size() || y < b.size()) {
            if (y == b.size() || (x < a.size() && a[x].node < b[y].node)) {
                merged.push_back(a[x++]);
                is_b = false;
            } else if (x == a.size() || b[y].node < a[x].node) {
                merged.push_back(b[y++]);
                is_a = false;
            } else {
                if (a[x].wl < b[y].wl) is_b = false;
                if (b[y].wl < a[x].wl) is_a = false;
                merged.push_back(a[x].wl < b[y].wl ? a[x] : b[y]);
                ++x;
                ++y;
            }
        }
        // One candidate's own state: it passed the validity hook.
        if (is_a || is_b) return false;
        const auto hit = memo.find(merged);
        if (hit != memo.end()) return hit->second;
        const auto cp = spec.checkpoint();
        apply_eq1(candidates[i]);
        apply_eq1(candidates[j]);
        const bool violated = violates();
        spec.revert(cp);
        memo.emplace(merged, violated);
        return violated;
    }
};

AccuracySlpHooks::AccuracySlpHooks(const PackedView& view,
                                   FixedPointSpec& spec,
                                   const AccuracyEvaluator& evaluator,
                                   const TargetModel& target,
                                   const AccuracySlpConfig& config)
    : state_(std::make_unique<State>(
          State{view, spec, target, config, evaluator.open_session(spec)})) {
    State& st = *state_;

    // Fig. 1c lines 6-12: a candidate whose own WL reduction (with all
    // other nodes untouched) violates the constraint can never be
    // implemented as a SIMD instruction.
    hooks.candidate_valid = [&st](const Candidate& c) {
        const auto cp = st.spec.checkpoint();
        st.apply_eq1(c);
        const bool ok = !st.violates();
        st.spec.revert(cp);
        return ok;
    };
    // Fig. 1c lines 14-25: candidates that cannot coexist are in conflict.
    if (config.accuracy_conflicts) {
        hooks.extra_conflict = [&st](const std::vector<Candidate>& candidates,
                                     size_t i, size_t j) {
            return st.extra_conflict(candidates, i, j);
        };
    }
    // Fig. 1c line 34 (SETMAXWL on selection), plus the strict feasibility
    // re-check on top of everything committed so far.
    hooks.try_select = [&st](const Candidate& c) {
        const auto cp = st.spec.checkpoint();
        st.apply_eq1(c);
        if (st.config.strict_feasibility && st.violates()) {
            st.spec.revert(cp);
            return false;
        }
        st.spec.commit(cp);
        return true;
    };

    // `SLP-Optimal`: exact per-round selection. fix/unfix bracket the
    // equation-(1) commitment revertibly for the branch-and-bound search;
    // the winning selection is then replayed through the regular selection
    // hook. Noise is monotone in every WL, so a set that was feasible
    // inside the search is feasible at every replay prefix — the replay
    // cannot veto.
    if (config.exact_selection) {
        hooks.select_round = [this, &st](std::vector<Candidate> candidates,
                                         const ConflictSet& conflicts,
                                         int* rejected) {
            const AccuracySlpConfig& config = st.config;
            solver::PackSelectOptions options;
            options.benefit_mode = config.slp.benefit_mode;
            options.min_benefit = config.slp.min_benefit;
            options.budget = config.solver_budget;
            const solver::PackFix fix = [&st](const Candidate& c) {
                const auto cp = st.spec.checkpoint();
                st.apply_eq1(c);
                if (st.config.strict_feasibility && st.violates()) {
                    st.spec.revert(cp);
                    return false;
                }
                st.fix_stack.push_back(cp);
                return true;
            };
            const solver::PackUnfix unfix = [&st](const Candidate&) {
                SLPWLO_ASSERT(!st.fix_stack.empty(),
                              "solver unfix without a matching fix");
                st.spec.revert(st.fix_stack.back());
                st.fix_stack.pop_back();
            };
            const solver::PackSelectResult result =
                solver::select_packs_exact(st.view, candidates, conflicts,
                                           st.target, options, fix, unfix,
                                           rejected);
            if (config.solver_stats != nullptr) {
                config.solver_stats->nodes += result.solve.nodes;
                config.solver_stats->solves++;
                config.solver_stats->proven_optimal &=
                    result.solve.proven_optimal;
                config.solver_stats->heuristic_objective +=
                    result.greedy_objective;
                config.solver_stats->best_objective +=
                    result.solve.best_objective;
            }
            for (const Candidate& c : result.selected) {
                SLPWLO_CHECK(hooks.try_select(c),
                             "exact selection failed its feasibility replay");
            }
            return result.selected;
        };
    }

    // Stranded-load demotion. Greedy selection can commit a load-group
    // widening (and its equation-(1) WL drop on the arrays) before the
    // consuming arithmetic widening gets rejected by the cumulative
    // accuracy check; the narrow load vectors would then feed wider
    // consumers through expensive lane traffic for no gain. At the end of
    // each round, unselect load groups no surviving candidate consumes as
    // a superword and replay the round's WL commitments without them.
    hooks.round_begin = [&st] {
        if (st.round_open) st.spec.commit(st.round_cp);
        st.round_cp = st.spec.checkpoint();
        st.round_open = true;
        st.changes.clear();
        st.has_changes.clear();
        st.memo.clear();
    };
    hooks.round_finish = [&st](std::vector<Candidate> selection) {
        const PackedView& view = st.view;
        FixedPointSpec& spec = st.spec;
        auto consumed_as_superword = [&](const Candidate& load) {
            const std::vector<OpId> lanes = fused_lanes(view, load);
            const std::vector<OpId> reversed(lanes.rbegin(), lanes.rend());
            for (const Candidate& s : selection) {
                if (s == load) continue;
                const std::vector<OpId> sl = fused_lanes(view, s);
                const int slots = view.kernel().op(sl.front()).num_args();
                for (int slot = 0; slot < slots; ++slot) {
                    const std::vector<OpId> defs =
                        operand_defs(view, sl, slot);
                    if (defs == lanes || defs == reversed) return true;
                }
            }
            return false;
        };

        std::vector<Candidate> survivors;
        bool demoted = false;
        for (const Candidate& c : selection) {
            if (view.kind(c.nodes.front()) == OpKind::Load &&
                !consumed_as_superword(c)) {
                demoted = true;
                continue;
            }
            survivors.push_back(c);
        }
        if (!st.round_open) return survivors;
        if (!demoted) {
            spec.commit(st.round_cp);
            st.round_open = false;
            return survivors;
        }
        // Replay: undo every WL commitment of the round, then re-apply
        // equation (1) for the survivors under the same feasibility rule.
        spec.revert(st.round_cp);
        st.round_open = false;
        std::vector<Candidate> confirmed;
        for (const Candidate& c : survivors) {
            const auto cp = spec.checkpoint();
            st.apply_eq1(c);
            if (st.config.strict_feasibility && st.violates()) {
                spec.revert(cp);
                continue;
            }
            spec.commit(cp);
            confirmed.push_back(c);
        }
        return confirmed;
    };
}

AccuracySlpHooks::~AccuracySlpHooks() = default;

void AccuracySlpHooks::finish() {
    if (state_->round_open) {
        state_->spec.commit(state_->round_cp);
        state_->round_open = false;
    }
}

std::vector<SimdGroup> accuracy_aware_slp(PackedView& view,
                                          FixedPointSpec& spec,
                                          const AccuracyEvaluator& evaluator,
                                          const TargetModel& target,
                                          const AccuracySlpConfig& config,
                                          SlpStats* stats) {
    AccuracySlpHooks accuracy(view, spec, evaluator, target, config);
    std::vector<SimdGroup> groups =
        extract_slp(view, target, config.slp, accuracy.hooks, stats);
    accuracy.finish();
    return groups;
}

}  // namespace slpwlo

#include "core/accuracy_aware_slp.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
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

uint32_t change_key(NodeRef node) {
    return static_cast<uint32_t>(node.id) * 2 +
           (node.kind == NodeRef::Kind::Array ? 1u : 0u);
}

NodeRef change_node(const WlChange& change) {
    return {(change.node & 1u) != 0 ? NodeRef::Kind::Array
                                    : NodeRef::Kind::Var,
            static_cast<int32_t>(change.node / 2)};
}

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

/// True when two ascending index lists share no element.
bool disjoint(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
    size_t x = 0, y = 0;
    while (x < a.size() && y < b.size()) {
        if (a[x] == b[y]) return false;
        if (a[x] < b[y]) {
            ++x;
        } else {
            ++y;
        }
    }
    return true;
}

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

    /// One distinct equation-(1) change list of the current round, against
    /// the round-base spec. Candidates with equal lists reach equal spec
    /// states in every pair, so the hook works per class of candidates.
    struct ChangeClass {
        /// Sorted by node.
        ChangeList changes{};
        /// Closed-form filter inputs (additive sessions only): the
        /// ascending noise terms the change touches, a 64-bit signature
        /// of them (bit t % 64 per term t), the change's effect on V and
        /// M, and the absolute sums bounding that effect's rounding.
        std::vector<uint32_t> terms{};
        uint64_t signature = 0;
        double d_variance = 0.0;
        double d_mean = 0.0;
        double abs_variance = 0.0;
        double abs_mean = 0.0;
    };
    std::vector<ChangeClass> classes{};
    /// Per candidate of the round: its class.
    std::vector<uint32_t> class_of{};
    /// Per pair of distinct classes (the upper triangle, row-major; see
    /// answer_index): -1 until answered, else the answer. A round's
    /// candidate pairs repeat class pairs often enough that this cache
    /// saves about an eighth of a corpus sweep over the filter and memo
    /// alone.
    std::vector<int8_t> answers{};
    /// Merged-state memo of the current round (see the class comment).
    std::unordered_map<ChangeList, bool, ChangeListHash> memo{};
    ChangeList scratch{};  ///< change-list and merge-key scratch

    /// The filter: the round base's split; `additive` says whether the
    /// session offers one at all.
    bool additive = false;
    NoiseSplit base{};
    /// Noise powers bracketing the constraint.
    PowerBracket bracket{config.accuracy_db};

    void apply_eq1(const Candidate& c) {
        const std::vector<OpId> lanes = fused_lanes(view, c);
        set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()), target);
    }

    /// Move each node of `changes` to its WL: a class's own change list
    /// reaches the state apply_eq1 reaches for its candidates, and a
    /// min-merged pair of lists the state of applying both.
    void apply_changes(const ChangeList& changes) {
        for (const WlChange& change : changes) {
            spec.set_wl(change_node(change), change.wl);
        }
    }

    /// Whether the spec with `changes` applied violates the constraint;
    /// the spec and the session's cache are left as they were.
    bool probe(const ChangeList& changes) {
        eval->begin_probe();
        const auto cp = spec.checkpoint();
        apply_changes(changes);
        const bool violated = violates();
        spec.revert(cp);
        eval->end_probe();
        return violated;
    }

    bool violates() { return eval->violates(config.accuracy_db); }

    void begin_round() { memo.clear(); }

    /// Sort the round's candidates into change classes, on its first pair
    /// (the spec is at the round base while conflicts are detected).
    void classify(const std::vector<Candidate>& candidates) {
        additive = bracket.valid && eval->noise_split(&base);
        classes.clear();
        class_of.clear();
        std::unordered_map<ChangeList, uint32_t, ChangeListHash> ids;
        for (const Candidate& c : candidates) {
            scratch.clear();
            const std::vector<OpId> lanes = fused_lanes(view, c);
            const auto m =
                target.realized_element_wl(static_cast<int>(lanes.size()));
            SLPWLO_ASSERT(m.has_value(),
                          "set_group_max_wl on an unrealizable group size");
            for (const OpId lane : lanes) {
                const NodeRef node = spec.node_of(lane);
                const int wl = spec.format(node).wl();
                if (*m >= wl) continue;  // no-op
                scratch.push_back({change_key(node), static_cast<int32_t>(*m)});
            }
            std::sort(scratch.begin(), scratch.end(),
                      [](const WlChange& x, const WlChange& y) {
                          return x.node < y.node;
                      });
            // Lanes sharing a node (an array's loads) move it identically.
            scratch.erase(std::unique(scratch.begin(), scratch.end()),
                          scratch.end());
            const auto [it, fresh] = ids.try_emplace(
                scratch, static_cast<uint32_t>(classes.size()));
            if (fresh) {
                classes.push_back({scratch});
                if (additive) measure_delta(classes.back());
            }
            class_of.push_back(it->second);
        }
        answers.assign(classes.size() * (classes.size() - 1) / 2, -1);
    }

    /// The class's effect on V and M: each touched term after equation
    /// (1) minus the same term at the round base.
    void measure_delta(ChangeClass& cls) {
        for (const WlChange& change : cls.changes) {
            for (const uint32_t t : eval->terms_of(change_node(change))) {
                cls.terms.push_back(t);
            }
        }
        if (cls.terms.empty()) return;
        std::sort(cls.terms.begin(), cls.terms.end());
        cls.terms.erase(std::unique(cls.terms.begin(), cls.terms.end()),
                        cls.terms.end());
        std::vector<NoiseTerm> before;
        before.reserve(cls.terms.size());
        for (const uint32_t t : cls.terms) {
            before.push_back(eval->term(t));
            cls.signature |= uint64_t{1} << (t % 64);
        }
        // term() reads the spec directly; the window only lets the
        // session skip the journal entries of the apply and the revert.
        eval->begin_probe();
        const auto cp = spec.checkpoint();
        apply_changes(cls.changes);
        for (size_t k = 0; k < cls.terms.size(); ++k) {
            const NoiseTerm after = eval->term(cls.terms[k]);
            cls.d_variance += after.variance - before[k].variance;
            cls.d_mean += after.mean - before[k].mean;
            cls.abs_variance +=
                std::fabs(after.variance) + std::fabs(before[k].variance);
            cls.abs_mean += std::fabs(after.mean) + std::fabs(before[k].mean);
        }
        spec.revert(cp);
        eval->end_probe();
    }

    /// The closed-form filter. Classes touching disjoint term sets add up
    /// exactly in real arithmetic, so the pair's V and M are the base's
    /// plus both deltas. The value computed here and the one a probe
    /// would compute each lie within half of `margin` of that exact value
    /// (DESIGN.md §10), so a value clearing the constraint by more than
    /// `margin` is the probe's answer. Anything else is left undecided.
    std::optional<bool> filter(const ChangeClass& a,
                               const ChangeClass& b) const {
        if ((a.signature & b.signature) != 0 && !disjoint(a.terms, b.terms)) {
            return std::nullopt;
        }
        const double v = base.variance + a.d_variance + b.d_variance;
        const double m = base.mean + a.d_mean + b.d_mean;
        const double power = v + m * m;
        const double abs_v =
            base.abs_variance + a.abs_variance + b.abs_variance;
        const double abs_m = base.abs_mean + a.abs_mean + b.abs_mean;
        const size_t k = base.terms + a.terms.size() + b.terms.size() + 5;
        const double margin = split_margin(rounding_gamma(k), abs_v, abs_m);
        if (power - margin >= bracket.hi) return true;
        if (power + margin <= bracket.lo) return false;
        return std::nullopt;
    }

    /// Fig. 1c lines 14-25 for one round: every pair of candidates not
    /// already in conflict, in index order, answered per pair of classes.
    int add_conflicts(const std::vector<Candidate>& candidates,
                      ConflictSet& conflicts) {
        const size_t n = candidates.size();
        bool classified = false;
        int added = 0;
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = i + 1; j < n; ++j) {
                if (conflicts.conflict(i, j)) continue;
                if (!classified) {
                    classify(candidates);
                    classified = true;
                }
                const uint32_t ci = class_of[i];
                const uint32_t cj = class_of[j];
                // Equal lists: the pair's state is either candidate's
                // own, which passed the validity hook on the same base.
                if (ci == cj) continue;
                int8_t& answer = answers[answer_index(ci, cj)];
                if (answer < 0) answer = classes_conflict(ci, cj);
                if (answer != 0) {
                    conflicts.add(i, j);
                    added++;
                }
            }
        }
        return added;
    }

    /// Slot of the pair {a, b}, a != b, in the upper triangle: rows
    /// 0..lo-1 hold K-1, K-2, ... slots, then hi's place in row lo.
    size_t answer_index(uint32_t a, uint32_t b) const {
        const size_t lo = std::min(a, b);
        const size_t hi = std::max(a, b);
        const size_t k = classes.size();
        return lo * (2 * k - lo - 1) / 2 + (hi - lo - 1);
    }

    /// The answer for a pair of distinct classes.
    bool classes_conflict(uint32_t ci, uint32_t cj) {
        const ChangeClass& ca = classes[ci];
        const ChangeClass& cb = classes[cj];
        if (additive) {
            if (const std::optional<bool> decided = filter(ca, cb)) {
                if (config.conflict_stats != nullptr) {
                    config.conflict_stats->filter_decided++;
                }
                return *decided;
            }
        }
        const ChangeList& a = ca.changes;
        const ChangeList& b = cb.changes;
        // Min-merge: applying both lists leaves each node at the smaller
        // of the two WLs.
        ChangeList& merged = scratch;
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
        const bool violated = probe(merged);
        if (config.conflict_stats != nullptr) config.conflict_stats->probes++;
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
        st.eval->begin_probe();
        const auto cp = st.spec.checkpoint();
        st.apply_eq1(c);
        const bool ok = !st.violates();
        st.spec.revert(cp);
        st.eval->end_probe();
        return ok;
    };
    // Fig. 1c lines 14-25: candidates that cannot coexist are in conflict.
    if (config.accuracy_conflicts) {
        hooks.add_conflicts = [&st](const std::vector<Candidate>& candidates,
                                    ConflictSet& conflicts) {
            return st.add_conflicts(candidates, conflicts);
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
        st.begin_round();
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

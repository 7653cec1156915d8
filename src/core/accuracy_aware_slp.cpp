#include "core/accuracy_aware_slp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
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

/// One distinct equation-(1) change list of a round, against the
/// round-base spec. Candidates with equal lists reach equal spec states
/// in every pair, so the conflict hook works per class of candidates.
struct ChangeClass {
    /// Sorted by node.
    ChangeList changes{};
    /// Closed-form filter inputs (additive sessions only): the ascending
    /// noise terms the change touches, a 64-bit signature of them (bit
    /// t % 64 per term t), the change's effect on V and M, and the
    /// absolute sums bounding that effect's rounding.
    std::vector<uint32_t> terms{};
    uint64_t signature = 0;
    double d_variance = 0.0;
    double d_mean = 0.0;
    double abs_variance = 0.0;
    double abs_mean = 0.0;
};

/// Slot of the pair {a, b}, a != b, of `k` classes in the upper triangle:
/// rows 0..lo-1 hold k-1, k-2, ... slots, then hi's place in row lo.
size_t pair_index(uint32_t a, uint32_t b, size_t k) {
    const size_t lo = std::min(a, b);
    const size_t hi = std::max(a, b);
    return lo * (2 * k - lo - 1) / 2 + (hi - lo - 1);
}

/// Min-merge two change lists into `merged`: applying both leaves each
/// node at the smaller of the two WLs. True when the merge is one side's
/// own list, i.e. that candidate's own state.
bool min_merge(const ChangeList& a, const ChangeList& b, ChangeList& merged) {
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
    return is_a || is_b;
}

/// The closed-form noise power of two classes applied together, minus
/// and plus its rounding margin; only for classes touching disjoint term
/// sets. Classes touching disjoint term sets add up exactly in real
/// arithmetic, so the pair's V and M are the base's plus both deltas. The
/// value computed here and the one a probe would compute each lie within
/// half of the margin of that exact value (DESIGN.md §10), so a value
/// clearing a threshold by more than the margin is the probe's answer.
struct ClosedForm {
    double lo = 0.0;
    double hi = 0.0;
};

std::optional<ClosedForm> closed_form(const NoiseSplit& base,
                                      const ChangeClass& a,
                                      const ChangeClass& b) {
    if ((a.signature & b.signature) != 0 && !disjoint(a.terms, b.terms)) {
        return std::nullopt;
    }
    const double v = base.variance + a.d_variance + b.d_variance;
    const double m = base.mean + a.d_mean + b.d_mean;
    const double power = v + m * m;
    const double abs_v = base.abs_variance + a.abs_variance + b.abs_variance;
    const double abs_m = base.abs_mean + a.abs_mean + b.abs_mean;
    const size_t k = base.terms + a.terms.size() + b.terms.size() + 5;
    const double margin = split_margin(rounding_gamma(k), abs_v, abs_m);
    return ClosedForm{power - margin, power + margin};
}

}  // namespace

/// Round 1 of one block from one base spec, for every constraint at once
/// (see SlpPlanCache). Immutable once built.
struct SlpRoundPlan {
    /// How a pair of distinct classes is answered at a constraint.
    enum class Answer : uint8_t {
        Unused,    ///< every candidate pair of the two is structurally in
                   ///< conflict
        Own,       ///< the merged state is one class's own: never conflicts
        Interval,  ///< disjoint terms: [lo, hi] brackets the merged power
        Exact,     ///< overlapping terms: lo = hi = the merged state's dB
    };
    struct Pair {
        Answer answer = Answer::Unused;
        double lo = 0.0;
        double hi = 0.0;
    };

    /// The round's candidates, in extract_candidates order, and the class
    /// of each.
    std::vector<Candidate> candidates;
    std::vector<uint32_t> class_of;
    /// The change classes over all candidates, with their filter inputs.
    std::vector<ChangeClass> classes;
    /// Per class, the noise of its own state in dB (power_to_db of its
    /// power): its candidates are valid at `db` unless noise_db > db.
    std::vector<double> noise_db;
    /// The base spec's split.
    NoiseSplit base;
    /// Per pair of distinct classes (pair_index).
    std::vector<Pair> pairs;
};

struct SlpPlanCache::Impl {
    struct Entry {
        int32_t block = -1;
        QuantMode quant_mode = QuantMode::Truncate;
        std::vector<FixedFormat> formats;
        std::once_flag built;
        std::unique_ptr<const SlpRoundPlan> plan;
    };

    std::mutex mutex;
    const AccuracyEvaluator* evaluator = nullptr;
    std::vector<std::unique_ptr<Entry>> entries;

    /// The entry of `block` from `spec`'s current formats, created empty
    /// on first request.
    Entry& entry(const AccuracyEvaluator& with, BlockId block,
                 const FixedPointSpec& spec) {
        std::vector<FixedFormat> formats;
        formats.reserve(spec.nodes().size());
        for (const NodeRef node : spec.nodes()) {
            formats.push_back(spec.format(node));
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (evaluator == nullptr) evaluator = &with;
        SLPWLO_ASSERT(evaluator == &with,
                      "an SLP plan cache serves a single evaluator");
        for (const std::unique_ptr<Entry>& e : entries) {
            if (e->block == block.value &&
                e->quant_mode == spec.quant_mode() && e->formats == formats) {
                return *e;
            }
        }
        entries.push_back(std::make_unique<Entry>());
        Entry& e = *entries.back();
        e.block = block.value;
        e.quant_mode = spec.quant_mode();
        e.formats = std::move(formats);
        return e;
    }
};

SlpPlanCache::SlpPlanCache() : impl_(std::make_unique<Impl>()) {}
SlpPlanCache::~SlpPlanCache() = default;

size_t SlpPlanCache::size() const {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->entries.size();
}

struct AccuracySlpHooks::State {
    const PackedView& view;
    FixedPointSpec& spec;
    const AccuracyEvaluator& evaluator;
    const TargetModel& target;
    const AccuracySlpConfig& config;
    /// One incremental session for the whole extraction: the hooks probe
    /// small WL perturbations thousands of times, and the journal-tracking
    /// session re-evaluates each probe in O(changed nodes).
    std::unique_ptr<EvalSession> eval;

    /// Open across a round, so the round's selections can be replayed.
    FixedPointSpec::Checkpoint round_cp = 0;
    bool round_open = false;
    int rounds_begun = 0;
    /// Exact selection: the solver's revertible equation-(1) fixes.
    std::vector<FixedPointSpec::Checkpoint> fix_stack{};

    /// The current round's change classes (see ChangeClass), when the
    /// round has no plan.
    std::vector<ChangeClass> classes{};
    /// Per candidate of the round: its class (a local number in a round
    /// with a plan).
    std::vector<uint32_t> class_of{};
    /// Per pair of distinct classes (pair_index): -1 until answered, else
    /// the answer. A round's candidate pairs repeat class pairs often
    /// enough that this cache saves about an eighth of a corpus sweep
    /// over the filter and memo alone.
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

    /// Round 1's plan, while the engine's round is the plan's: the
    /// validity hook walks the plan's candidates in step with the
    /// engine's and records the plan index of each valid one.
    const SlpRoundPlan* plan = nullptr;
    size_t plan_cursor = 0;
    std::vector<uint32_t> plan_valid{};
    /// The conflict loop's rows (see add_conflicts): per plan class its
    /// local number and per local class its plan class (planned rounds),
    /// and per class bit rows over the round's candidates of its members
    /// and of its sure and open partners.
    std::vector<uint32_t> local_of{};
    std::vector<uint32_t> plan_class{};
    std::vector<uint64_t> members{};
    std::vector<uint64_t> sure{};
    std::vector<uint64_t> open{};

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

    /// The noise power of the spec with `changes` applied; the spec and
    /// the session's cache are left as they were.
    double probe_power(const ChangeList& changes) {
        eval->begin_probe();
        const auto cp = spec.checkpoint();
        apply_changes(changes);
        const double power = eval->noise_power();
        spec.revert(cp);
        eval->end_probe();
        if (config.conflict_stats != nullptr) config.conflict_stats->probes++;
        return power;
    }

    void count_filter_decided() {
        if (config.conflict_stats != nullptr) {
            config.conflict_stats->filter_decided++;
        }
    }

    bool violates() { return eval->violates(config.accuracy_db); }

    void begin_round() {
        memo.clear();
        plan = rounds_begun++ == 0 ? round_one_plan() : nullptr;
        plan_cursor = 0;
        plan_valid.clear();
    }

    /// The plan of this round 1, when a cache is offered and the view is
    /// unfused (node i is op i of the block); built on the cache's first
    /// request for this block and base. Null for a session without the
    /// additive split.
    const SlpRoundPlan* round_one_plan() {
        if (config.plans == nullptr) return nullptr;
        const std::vector<OpId>& ops = view.kernel().block(view.block()).ops;
        if (static_cast<size_t>(view.size()) != ops.size()) return nullptr;
        for (size_t i = 0; i < ops.size(); ++i) {
            const std::vector<OpId>& lanes =
                view.node(static_cast<int>(i)).lanes;
            if (lanes.size() != 1 || lanes.front() != ops[i]) return nullptr;
        }
        SlpPlanCache::Impl::Entry& entry =
            config.plans->impl_->entry(evaluator, view.block(), spec);
        std::call_once(entry.built, [&] { entry.plan = build_plan(); });
        return entry.plan.get();
    }

    /// Round 1 of the view from the spec's current state, for every
    /// constraint: the candidates and their classes, each class's own
    /// noise, and an answer for every pair of classes that some
    /// structurally free candidate pair reaches. Its evaluations count as
    /// this point's probes.
    std::unique_ptr<const SlpRoundPlan> build_plan() {
        auto out = std::make_unique<SlpRoundPlan>();
        SlpRoundPlan& p = *out;
        if (!eval->noise_split(&p.base)) return nullptr;
        p.candidates = extract_candidates(view, target);
        classify(p.candidates, p.classes, p.class_of, true);
        p.noise_db.reserve(p.classes.size());
        for (const ChangeClass& cls : p.classes) {
            p.noise_db.push_back(power_to_db(probe_power(cls.changes)));
        }
        const size_t k = p.classes.size();
        p.pairs.resize(k * (k - 1) / 2);
        const ConflictSet structural =
            detect_structural_conflicts(view, p.candidates);
        const size_t n = p.candidates.size();
        for (size_t i = 0; i < n; ++i) {
            for (size_t j = i + 1; j < n; ++j) {
                const uint32_t ci = p.class_of[i];
                const uint32_t cj = p.class_of[j];
                if (ci == cj || structural.conflict(i, j)) continue;
                SlpRoundPlan::Pair& pair = p.pairs[pair_index(ci, cj, k)];
                if (pair.answer != SlpRoundPlan::Answer::Unused) continue;
                const ChangeClass& a = p.classes[ci];
                const ChangeClass& b = p.classes[cj];
                if (min_merge(a.changes, b.changes, scratch)) {
                    pair.answer = SlpRoundPlan::Answer::Own;
                } else if (const auto bounds = closed_form(p.base, a, b)) {
                    pair = {SlpRoundPlan::Answer::Interval, bounds->lo,
                            bounds->hi};
                } else {
                    const double db = power_to_db(probe_power(scratch));
                    pair = {SlpRoundPlan::Answer::Exact, db, db};
                }
            }
        }
        return out;
    }

    /// Sort `candidates` into change classes against the spec's current
    /// state (the round base), measuring each class's delta when
    /// `measure` is set.
    void classify(const std::vector<Candidate>& candidates,
                  std::vector<ChangeClass>& into,
                  std::vector<uint32_t>& class_ids, bool measure) {
        into.clear();
        class_ids.clear();
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
                scratch, static_cast<uint32_t>(into.size()));
            if (fresh) {
                into.push_back({scratch});
                if (measure) measure_delta(into.back());
            }
            class_ids.push_back(it->second);
        }
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

    /// Fig. 1c lines 6-12 for one candidate: in round 1 with a plan, the
    /// plan's power for the candidate's class; otherwise a probe.
    bool candidate_valid(const Candidate& c) {
        if (plan != nullptr) {
            if (plan_cursor < plan->candidates.size() &&
                plan->candidates[plan_cursor] == c) {
                const size_t k = plan_cursor++;
                const bool ok =
                    !(plan->noise_db[plan->class_of[k]] > config.accuracy_db);
                if (ok) plan_valid.push_back(static_cast<uint32_t>(k));
                return ok;
            }
            plan = nullptr;  // not the plan's round after all
        }
        eval->begin_probe();
        const auto cp = spec.checkpoint();
        apply_eq1(c);
        const bool ok = !violates();
        spec.revert(cp);
        eval->end_probe();
        return ok;
    }

    /// True when `candidates` are exactly the plan's valid candidates.
    bool plan_serves(const std::vector<Candidate>& candidates) const {
        if (plan == nullptr || plan_cursor != plan->candidates.size() ||
            plan_valid.size() != candidates.size()) {
            return false;
        }
        for (size_t k = 0; k < candidates.size(); ++k) {
            if (!(plan->candidates[plan_valid[k]] == candidates[k])) {
                return false;
            }
        }
        return true;
    }

    /// Fig. 1c lines 14-25 for one round: every pair of candidates not
    /// already in conflict, answered per pair of their change classes.
    /// The pairs are walked in index order, a word of j at a time, and
    /// each class pair is answered on its first pair, so every probe is
    /// the one a candidate-pair loop would make. Per round, the classes
    /// are the plan's in round 1 with a plan and are sorted out afresh
    /// otherwise; each class's row in `sure` holds the candidates of the
    /// classes it surely conflicts with, and its row in `open` those of
    /// the classes whose answer takes a probe.
    int add_conflicts(const std::vector<Candidate>& candidates,
                      ConflictSet& conflicts) {
        const bool planned = plan_serves(candidates);
        const size_t n = candidates.size();
        const size_t words = conflicts.words();
        // The bits of candidates j < n in the last word.
        const uint64_t tail =
            n % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (n % 64)) - 1;
        bool prepared = false;
        int added = 0;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t* row = conflicts.row(i);
            for (size_t w = i / 64; w < words; ++w) {
                // Candidates i < j < n not yet in conflict with i.
                uint64_t free = ~row[w];
                if (w == i / 64) free &= ~uint64_t{0} << (i % 64) << 1;
                if (w + 1 == words) free &= tail;
                if (free == 0) continue;
                if (!prepared) {
                    if (planned) {
                        prepare_planned(words);
                    } else {
                        prepare_per_point(candidates, words);
                    }
                    prepared = true;
                }
                const size_t x = class_of[i];
                uint64_t hits = sure[x * words + w] & free;
                for (uint64_t bits = open[x * words + w] & free; bits != 0;
                     bits &= bits - 1) {
                    const size_t j =
                        w * 64 + static_cast<size_t>(std::countr_zero(bits));
                    if (open_conflict(planned, x, class_of[j])) {
                        hits |= bits & -bits;
                    }
                }
                for (; hits != 0; hits &= hits - 1) {
                    conflicts.add(i, w * 64 + static_cast<size_t>(
                                                  std::countr_zero(hits)));
                    added++;
                }
            }
        }
        return added;
    }

    /// Start the rows of `count` classes from class_of: each class's
    /// members, empty `sure` and `open` rows, and no pair answered yet.
    void set_members(size_t count, size_t words) {
        members.assign(count * words, 0);
        for (size_t i = 0; i < class_of.size(); ++i) {
            members[class_of[i] * words + i / 64] |= uint64_t{1} << (i % 64);
        }
        sure.assign(count * words, 0);
        open.assign(count * words, 0);
        answers.assign(count * (count - 1) / 2, -1);
    }

    /// Without a plan, every pair of distinct classes is open: answered
    /// by classes_conflict (filter, merge, memo, probe).
    void prepare_per_point(const std::vector<Candidate>& candidates,
                           size_t words) {
        additive = bracket.valid && eval->noise_split(&base);
        classify(candidates, classes, class_of, additive);
        set_members(classes.size(), words);
        for (size_t k = 0; k < open.size(); ++k) open[k] = ~members[k];
    }

    /// With the plan: the plan's classes among the valid candidates,
    /// numbered in order of first appearance, and each pair of them
    /// answered from the plan where this constraint's comparison decides
    /// it. Only an Interval the bracket cannot decide stays open.
    void prepare_planned(size_t words) {
        const SlpRoundPlan& p = *plan;
        constexpr uint32_t kAbsent = ~uint32_t{0};
        local_of.assign(p.classes.size(), kAbsent);
        plan_class.clear();
        class_of.clear();
        for (const uint32_t k : plan_valid) {
            uint32_t& local = local_of[p.class_of[k]];
            if (local == kAbsent) {
                local = static_cast<uint32_t>(plan_class.size());
                plan_class.push_back(p.class_of[k]);
            }
            class_of.push_back(local);
        }
        const size_t count = plan_class.size();
        set_members(count, words);
        const auto join = [&](std::vector<uint64_t>& to, size_t x, size_t y) {
            for (size_t w = 0; w < words; ++w) {
                to[x * words + w] |= members[y * words + w];
                to[y * words + w] |= members[x * words + w];
            }
        };
        for (size_t x = 0; x < count; ++x) {
            for (size_t y = x + 1; y < count; ++y) {
                const SlpRoundPlan::Pair& pair = p.pairs[pair_index(
                    plan_class[x], plan_class[y], p.classes.size())];
                switch (pair.answer) {
                    case SlpRoundPlan::Answer::Unused:
                    case SlpRoundPlan::Answer::Own:
                        break;
                    case SlpRoundPlan::Answer::Exact:
                        if (pair.lo > config.accuracy_db) join(sure, x, y);
                        break;
                    case SlpRoundPlan::Answer::Interval:
                        if (bracket.valid && pair.lo >= bracket.hi) {
                            count_filter_decided();
                            join(sure, x, y);
                        } else if (bracket.valid && pair.hi <= bracket.lo) {
                            count_filter_decided();
                        } else {
                            join(open, x, y);
                        }
                        break;
                }
            }
        }
    }

    /// The answer for an open pair of classes x != y, asked once.
    bool open_conflict(bool planned, size_t x, size_t y) {
        int8_t& answer = answers[pair_index(static_cast<uint32_t>(x),
                                            static_cast<uint32_t>(y),
                                            planned ? plan_class.size()
                                                    : classes.size())];
        if (answer < 0) {
            if (planned) {
                min_merge(plan->classes[plan_class[x]].changes,
                          plan->classes[plan_class[y]].changes, scratch);
                answer = merged_conflict();
            } else {
                answer = classes_conflict(static_cast<uint32_t>(x),
                                          static_cast<uint32_t>(y));
            }
        }
        return answer != 0;
    }

    /// The answer for a pair of distinct classes.
    bool classes_conflict(uint32_t ci, uint32_t cj) {
        const ChangeClass& ca = classes[ci];
        const ChangeClass& cb = classes[cj];
        if (additive) {
            if (const auto bounds = closed_form(base, ca, cb)) {
                if (bounds->lo >= bracket.hi || bounds->hi <= bracket.lo) {
                    count_filter_decided();
                    return bounds->lo >= bracket.hi;
                }
            }
        }
        // One candidate's own state: it passed the validity hook.
        if (min_merge(ca.changes, cb.changes, scratch)) return false;
        return merged_conflict();
    }

    /// Whether the merged state in `scratch` violates the constraint,
    /// through the round's memo.
    bool merged_conflict() {
        const auto hit = memo.find(scratch);
        if (hit != memo.end()) return hit->second;
        // The comparison violates() makes.
        const bool violated =
            power_to_db(probe_power(scratch)) > config.accuracy_db;
        memo.emplace(scratch, violated);
        return violated;
    }
};

AccuracySlpHooks::AccuracySlpHooks(const PackedView& view,
                                   FixedPointSpec& spec,
                                   const AccuracyEvaluator& evaluator,
                                   const TargetModel& target,
                                   const AccuracySlpConfig& config)
    : state_(std::make_unique<State>(
          State{view, spec, evaluator, target, config,
                evaluator.open_session(spec)})) {
    State& st = *state_;

    // Fig. 1c lines 6-12: a candidate whose own WL reduction (with all
    // other nodes untouched) violates the constraint can never be
    // implemented as a SIMD instruction.
    hooks.candidate_valid = [&st](const Candidate& c) {
        return st.candidate_valid(c);
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

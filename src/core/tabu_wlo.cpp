#include "core/tabu_wlo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

/// Bounds on power_to_db(p) for every p within margin / 2 of `power`
/// (power > margin > 0), from one logarithm at `power`. ln(1 + x) <= x
/// bounds the change of 10 log10 over the interval by
/// (10 / ln 10) margin / (power - margin). power_to_db errs by less than
/// 10 log10(1 + 2^-40) ~ 4e-12 dB at any double (PowerBracket's guard),
/// so twice that covers it at both ends, and the rest the roundings here.
std::pair<double, double> db_bounds(double power, double margin) {
    const double db = power_to_db(power);
    const double reach = 4.3429448190325185 * margin / (power - margin) *
                             (1.0 + 0x1p-30) +
                         1e-11;
    return {db - reach, db + reach};
}

/// The ±1 neighbourhood in closed form (DESIGN.md §10, "Tabu
/// neighbourhood screen"). Move 2i steps node i down the WL menu and move
/// 2i + 1 steps it up. For every move the screen keeps the value each
/// noise term of the node would take after it, and the current value of
/// every term; a move's change to V and M is the sum of the differences.
/// It keeps each move's change to the cost as well. Only a commit changes
/// the spec between iterations, and it invalidates the moves of the
/// committed node and the terms its neighbours share with it, nothing
/// else: a term depends on its own nodes' formats alone, and no two nodes
/// share a cost term.
class MoveScreen {
public:
    struct Delta {
        double d_variance = 0.0;
        double d_mean = 0.0;
        double abs_variance = 0.0;
        double abs_mean = 0.0;
        double d_cost = 0.0;
        double abs_cost = 0.0;
    };

    MoveScreen(FixedPointSpec& spec, EvalSession& eval, WlCostSession& costs,
               const std::vector<int>& wls, std::vector<int> menu,
               size_t terms)
        : spec_(spec),
          eval_(eval),
          costs_(costs),
          nodes_(spec.nodes()),
          wls_(wls),
          menu_(std::move(menu)),
          current_(terms),
          first_(nodes_.size() + 1, 0),
          user_start_(terms + 1, 0),
          deltas_(2 * nodes_.size()) {
        size_t max_terms = 0;
        size_t max_cost_terms = 0;
        for (size_t i = 0; i < nodes_.size(); ++i) {
            const size_t n = eval_.terms_of(nodes_[i]).size();
            first_[i + 1] = first_[i] + n;
            max_terms = std::max(max_terms, n);
            max_cost_terms =
                std::max(max_cost_terms, costs_.terms_of(nodes_[i]).size());
            for (const uint32_t t : eval_.terms_of(nodes_[i])) {
                ++user_start_[t + 1];
            }
        }
        after_.resize(2 * first_.back());
        for (size_t t = 0; t < terms; ++t) {
            user_start_[t + 1] += user_start_[t];
        }
        users_.resize(user_start_.back());
        std::vector<uint32_t> fill(user_start_.begin(), user_start_.end() - 1);
        for (size_t i = 0; i < nodes_.size(); ++i) {
            const std::span<const uint32_t> own = eval_.terms_of(nodes_[i]);
            for (size_t q = 0; q < own.size(); ++q) {
                users_[fill[own[q]]++] = {static_cast<uint32_t>(i),
                                          static_cast<uint32_t>(q)};
            }
        }
        // Every sum the bounds compare is at most this many roundings
        // deep: the n-term base, a move's terms, and a few more.
        noise_gamma_ = rounding_gamma(terms + max_terms + 5);
        cost_gamma_ = rounding_gamma(costs_.split().terms + max_cost_terms + 5);

        for (size_t t = 0; t < terms; ++t) {
            current_[t] = eval_.term(static_cast<uint32_t>(t));
        }
        begin_probe();
        for (size_t i = 0; i < nodes_.size(); ++i) {
            for (const int side : {0, 1}) measure(i, side);
            measure_cost(i);
            resum(i);
        }
        end_probe();
    }

    /// Node i's current menu index.
    int menu(size_t i) const { return menu_[i]; }

    double noise_gamma() const { return noise_gamma_; }
    double cost_gamma() const { return cost_gamma_; }

    /// The move's deltas against the current spec (valid moves only).
    const Delta& delta(size_t move) const { return deltas_[move]; }

    /// Node j moved from menu index `from` (its WL was `old_wl`) to `to`,
    /// already applied to the spec: bring every move it invalidated up to
    /// date.
    void commit(size_t j, int old_wl, int from, int to) {
        // The search starts at the maximum WL, itself on the menu, and
        // moves along the menu only.
        SLPWLO_ASSERT(wls_[static_cast<size_t>(from)] == old_wl,
                      "Tabu WL off the target's menu");
        menu_[j] = to;
        const int side = to > from ? 1 : 0;
        const std::span<const uint32_t> own = eval_.terms_of(nodes_[j]);
        begin_probe();
        // The reverse move returns the node to the WL the current terms
        // were taken at, and the committed move's terms are now current:
        // both are known without evaluating anything.
        for (size_t q = 0; q < own.size(); ++q) {
            NoiseTerm& now = current_[own[q]];
            after(j, 1 - side, q) = now;
            now = after(j, side, q);
        }
        measure(j, side);
        measure_cost(j);
        resum(j);

        // The neighbours' terms shared with j, grouped by node.
        pending_.clear();
        for (const uint32_t t : own) {
            for (uint32_t u = user_start_[t]; u < user_start_[t + 1]; ++u) {
                if (users_[u].node != j) pending_.push_back(users_[u]);
            }
        }
        std::sort(pending_.begin(), pending_.end(),
                  [](const User& a, const User& b) { return a.node < b.node; });
        for (size_t g = 0; g < pending_.size();) {
            const size_t i = pending_[g].node;
            size_t end = g;
            while (end < pending_.size() && pending_[end].node == i) ++end;
            const NodeRef node = nodes_[i];
            const std::span<const uint32_t> terms = eval_.terms_of(node);
            const int current = spec_.format(node).wl();
            for (const int s : {0, 1}) {
                const int ni = target(i, s);
                if (!valid(ni)) continue;
                spec_.set_wl(node, wls_[static_cast<size_t>(ni)]);
                for (size_t p = g; p < end; ++p) {
                    after(i, s, pending_[p].position) =
                        eval_.term(terms[pending_[p].position]);
                }
                spec_.set_wl(node, current);
            }
            resum(i);
            g = end;
        }
        end_probe();
    }

private:
    /// A term's dependent node and the term's position among its terms.
    struct User {
        uint32_t node;
        uint32_t position;
    };

    /// Terms are read with the pure term() queries while moves are set
    /// and restored, so the sessions' windows only skip the set and the
    /// restore in their journals.
    void begin_probe() {
        eval_.begin_probe();
        costs_.begin_probe();
    }
    void end_probe() {
        eval_.end_probe();
        costs_.end_probe();
    }

    NoiseTerm& after(size_t i, int side, size_t q) {
        const size_t n = first_[i + 1] - first_[i];
        return after_[2 * first_[i] + static_cast<size_t>(side) * n + q];
    }

    /// The menu index move (i, side) goes to; out of range: no such move.
    int target(size_t i, int side) const {
        return menu_[i] + (side == 1 ? 1 : -1);
    }
    bool valid(int index) const {
        return index >= 0 && index < static_cast<int>(wls_.size());
    }

    /// Every term of node i after move (i, side), by setting the move
    /// (inside the probe windows).
    void measure(size_t i, int side) {
        const int ni = target(i, side);
        if (!valid(ni)) return;
        const NodeRef node = nodes_[i];
        const int current = spec_.format(node).wl();
        const std::span<const uint32_t> terms = eval_.terms_of(node);
        spec_.set_wl(node, wls_[static_cast<size_t>(ni)]);
        for (size_t q = 0; q < terms.size(); ++q) {
            after(i, side, q) = eval_.term(terms[q]);
        }
        spec_.set_wl(node, current);
    }

    /// Both moves' change to node i's cost terms.
    void measure_cost(size_t i) {
        const std::span<const uint32_t> terms = costs_.terms_of(nodes_[i]);
        for (const int side : {0, 1}) {
            const int ni = target(i, side);
            if (!valid(ni)) continue;
            const int wl = wls_[static_cast<size_t>(ni)];
            Delta& d = deltas_[2 * i + static_cast<size_t>(side)];
            d.d_cost = 0.0;
            d.abs_cost = 0.0;
            for (const uint32_t t : terms) {
                const double before = costs_.term(t);
                const double after = costs_.term(t, wl);
                d.d_cost += after - before;
                d.abs_cost += std::fabs(after) + std::fabs(before);
            }
        }
    }

    /// Re-sum node i's moves' changes to V and M from the kept terms.
    void resum(size_t i) {
        const std::span<const uint32_t> terms = eval_.terms_of(nodes_[i]);
        for (const int side : {0, 1}) {
            if (!valid(target(i, side))) continue;
            Delta& d = deltas_[2 * i + static_cast<size_t>(side)];
            d.d_variance = 0.0;
            d.d_mean = 0.0;
            d.abs_variance = 0.0;
            d.abs_mean = 0.0;
            for (size_t q = 0; q < terms.size(); ++q) {
                const NoiseTerm& a = after(i, side, q);
                const NoiseTerm& b = current_[terms[q]];
                d.d_variance += a.variance - b.variance;
                d.d_mean += a.mean - b.mean;
                d.abs_variance += std::fabs(a.variance) + std::fabs(b.variance);
                d.abs_mean += std::fabs(a.mean) + std::fabs(b.mean);
            }
        }
    }

    FixedPointSpec& spec_;
    EvalSession& eval_;
    WlCostSession& costs_;
    const std::vector<NodeRef>& nodes_;
    const std::vector<int>& wls_;
    std::vector<int> menu_;           ///< per node: its menu index
    std::vector<NoiseTerm> current_;  ///< per term: its current value
    std::vector<size_t> first_;       ///< per node: its first term slot
    std::vector<NoiseTerm> after_;    ///< per move and term of its node
    std::vector<uint32_t> user_start_;
    std::vector<User> users_;  ///< per term (CSR): the nodes it depends on
    std::vector<Delta> deltas_;
    double noise_gamma_ = 0.0;
    double cost_gamma_ = 0.0;
    std::vector<User> pending_;  ///< commit scratch
};

}  // namespace

TabuStats run_tabu_wlo(FixedPointSpec& spec, const AccuracyEvaluator& evaluator,
                       const TargetModel& target, double accuracy_db,
                       const TabuOptions& options,
                       std::vector<TabuMove>* moves) {
    const WlCostModel cost_model(spec.kernel(), target);

    // Start from the all-maximum spec (always feasible if anything is).
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, target.max_wl());
    }

    // Sessions make the candidate evaluation incremental: each single-node
    // move recomputes only the noise sites / cost terms that read the moved
    // node, returning exactly the doubles a full re-evaluation would.
    const std::unique_ptr<EvalSession> eval = evaluator.open_session(spec);
    const std::unique_ptr<WlCostSession> costs = cost_model.open_session(spec);

    SLPWLO_CHECK(!eval->violates(accuracy_db),
                 "accuracy constraint " + std::to_string(accuracy_db) +
                     " dB is infeasible even at maximum word lengths");

    std::vector<int> wls = target.scalar_wls;
    std::sort(wls.begin(), wls.end());  // ascending

    const auto& nodes = spec.nodes();

    // O(1) WL-value -> menu-index lookup (WLs are small positive ints).
    std::vector<int> wl_lut(static_cast<size_t>(wls.back()) + 1,
                            static_cast<int>(wls.size()) - 1);
    for (size_t i = 0; i < wls.size(); ++i) {
        wl_lut[static_cast<size_t>(wls[i])] = static_cast<int>(i);
    }
    auto wl_index = [&](int wl) {
        if (wl < 0 || wl > wls.back()) return static_cast<int>(wls.size()) - 1;
        return wl_lut[static_cast<size_t>(wl)];
    };

    // With a non-negative penalty the objective is monotone in cost and
    // noise_db and never below cost; the screen's score bounds rest on
    // that.
    auto objective = [&](bool feasible, double cost, double noise_db) {
        if (feasible) return cost;
        return cost + options.infeasibility_penalty *
                          std::max(0.0, noise_db - accuracy_db) *
                          cost_model.max_cost() / 100.0;
    };

    TabuStats stats;
    stats.initial_cost = costs->cost();
    stats.best_cost = stats.initial_cost;
    stats.feasible = true;

    // Best feasible snapshot.
    std::vector<FixedFormat> best_formats(nodes.size());
    auto snapshot = [&] {
        for (size_t i = 0; i < nodes.size(); ++i) {
            best_formats[i] = spec.format(nodes[i]);
        }
    };
    snapshot();

    // tabu[node * #wls + wl_index] = iteration until which moving `node` to
    // that WL is forbidden (prevents immediate reversals). -1 = never.
    std::vector<int> tabu(nodes.size() * wls.size(), -1);

    // The screen needs the additive split; without it every move is
    // undecided and probed, as in a full scan of the neighbourhood.
    const PowerBracket bracket(accuracy_db);
    NoiseSplit noise;
    std::optional<MoveScreen> screen;
    if (bracket.valid && options.infeasibility_penalty >= 0.0 &&
        cost_model.max_cost() >= 0.0 && eval->noise_split(&noise)) {
        std::vector<int> menu;
        for (const NodeRef node : nodes) {
            menu.push_back(wl_index(spec.format(node).wl()));
        }
        screen.emplace(spec, *eval, *costs, wls, std::move(menu),
                       noise.terms);
    }
    // Per move, what the screen decided: probe it in full, evaluate only
    // its cost (it is feasible), or skip it (it cannot be the choice).
    enum class Verdict : char { Probe, CostOnly, Skip };
    std::vector<Verdict> verdict(2 * nodes.size(), Verdict::Probe);
    std::vector<double> score_lo(2 * nodes.size(), 0.0);
    struct Infeasible {
        size_t move;
        double cost_lo, cost_hi, power, margin;
    };
    std::vector<Infeasible> infeasible;

    int stagnation = 0;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
        stats.iterations = iter + 1;

        if (screen) {
            // Bound each move's feasibility, aspiration and score from the
            // exact base split and its deltas. An undecided move is
            // probed; a decided admissible one only if its score lower
            // bound does not exceed the least upper bound among the
            // decided admissible moves.
            eval->noise_split(&noise);
            const CostSplit cost = costs->split();
            double least_upper = std::numeric_limits<double>::infinity();
            infeasible.clear();
            for (size_t i = 0; i < nodes.size(); ++i) {
                const int ci = screen->menu(i);
                for (const int side : {0, 1}) {
                    const int ni = ci + (side == 1 ? 1 : -1);
                    if (ni < 0 || ni >= static_cast<int>(wls.size())) continue;
                    const size_t k = 2 * i + static_cast<size_t>(side);
                    const MoveScreen::Delta& d = screen->delta(k);
                    verdict[k] = Verdict::Probe;
                    score_lo[k] = -std::numeric_limits<double>::infinity();

                    const double v = noise.variance + d.d_variance;
                    const double m = noise.mean + d.d_mean;
                    const double power = v + m * m;
                    const double margin = split_margin(
                        screen->noise_gamma(),
                        noise.abs_variance + d.abs_variance,
                        noise.abs_mean + d.abs_mean);
                    bool feasible;
                    if (power + margin <= bracket.lo) {
                        feasible = true;
                        verdict[k] = Verdict::CostOnly;
                    } else if (power - margin >= bracket.hi) {
                        feasible = false;
                    } else {
                        continue;
                    }
                    const double c = cost.cost + d.d_cost;
                    const double c_margin = split_margin(
                        screen->cost_gamma(), cost.abs_cost + d.abs_cost, 0.0);
                    const double c_lo = c - c_margin;
                    const double c_hi = c + c_margin;

                    if (tabu[i * wls.size() + static_cast<size_t>(ni)] > iter) {
                        // Aspiration: feasible && cost < best_cost.
                        if (!feasible || c_lo >= stats.best_cost) {
                            verdict[k] = Verdict::Skip;
                            continue;
                        }
                        if (!(c_hi < stats.best_cost)) continue;
                    }
                    score_lo[k] = c_lo;
                    if (feasible) {
                        least_upper = std::min(least_upper, c_hi);
                    } else {
                        infeasible.push_back({k, c_lo, c_hi, power, margin});
                    }
                }
            }
            // An infeasible move's penalty bounds take a logarithm. One
            // whose cost alone exceeds the least upper bound so far can
            // neither lower it nor be the choice, and needs none.
            for (const Infeasible& f : infeasible) {
                if (f.cost_lo > least_upper) continue;
                const auto [db_lo, db_hi] = db_bounds(f.power, f.margin);
                score_lo[f.move] = objective(false, f.cost_lo, db_lo);
                least_upper = std::min(least_upper,
                                       objective(false, f.cost_hi, db_hi));
            }
            for (size_t k = 0; k < verdict.size(); ++k) {
                if (score_lo[k] > least_upper) verdict[k] = Verdict::Skip;
            }
        }

        struct Move {
            size_t node_index = 0;
            int wl = 0;
            double score = 0.0;
            double cost = 0.0;
            bool feasible = false;
        };
        std::optional<Move> best_move;

        for (size_t i = 0; i < nodes.size(); ++i) {
            const int current = spec.format(nodes[i]).wl();
            const int ci = wl_index(current);
            for (const int delta : {-1, +1}) {
                const int ni = ci + delta;
                if (ni < 0 || ni >= static_cast<int>(wls.size())) continue;
                const Verdict screened =
                    screen ? verdict[2 * i + (delta > 0 ? 1 : 0)]
                           : Verdict::Probe;
                if (screened == Verdict::Skip) continue;
                const int candidate_wl = wls[static_cast<size_t>(ni)];

                double noise_db = 0.0;
                bool feasible = true;
                double cost;
                if (screened == Verdict::CostOnly) {
                    // Known feasible: it scores its cost, and its noise
                    // is not asked for.
                    cost = costs->preview_move(nodes[i], candidate_wl);
                } else {
                    // One probe window on each session: the restore below
                    // puts their cached terms back by copy instead of a
                    // second refresh pass (see EvalSession::begin_probe).
                    eval->begin_probe();
                    costs->begin_probe();
                    spec.set_wl(nodes[i], candidate_wl);
                    noise_db = eval->noise_power_db();
                    feasible = noise_db <= accuracy_db;
                    cost = costs->cost();
                    spec.set_wl(nodes[i], current);
                    eval->end_probe();
                    costs->end_probe();
                }

                const double score = objective(feasible, cost, noise_db);
                const int until =
                    tabu[i * wls.size() + static_cast<size_t>(ni)];
                const bool is_tabu = until > iter;
                // Aspiration: a tabu move that beats the global best is
                // always admissible.
                if (is_tabu && !(feasible && cost < stats.best_cost)) {
                    continue;
                }
                if (!best_move || score < best_move->score) {
                    best_move = Move{i, candidate_wl, score, cost, feasible};
                }
            }
        }
        if (!best_move) break;

        const size_t j = best_move->node_index;
        const int old_wl = spec.format(nodes[j]).wl();
        spec.set_wl(nodes[j], best_move->wl);
        tabu[j * wls.size() + static_cast<size_t>(wl_index(old_wl))] =
            iter + options.tenure;
        if (moves != nullptr) moves->push_back({j, best_move->wl});
        if (screen) {
            screen->commit(j, old_wl, wl_index(old_wl),
                           wl_index(best_move->wl));
        }

        if (best_move->feasible && best_move->cost < stats.best_cost) {
            stats.best_cost = best_move->cost;
            stats.improvements++;
            snapshot();
            stagnation = 0;
        } else {
            stagnation++;
            if (stagnation > options.stagnation_limit) break;
        }
    }

    // Restore the best feasible spec found.
    for (size_t i = 0; i < nodes.size(); ++i) {
        spec.set_format(nodes[i], best_formats[i]);
    }
    stats.feasible = !eval->violates(accuracy_db);
    return stats;
}

}  // namespace slpwlo

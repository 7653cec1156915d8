#include "solver/wlo_exact.hpp"

#include <algorithm>

namespace slpwlo::solver {

namespace {

/// DFS state over the per-node WL assignment space. The spec always
/// reflects the current partial assignment with every unassigned node at
/// the maximum WL, so session queries *are* the bound computations.
class WloSearch {
public:
    WloSearch(FixedPointSpec& spec, EvalSession& eval, WlCostSession& costs,
              double accuracy_db, const WloExactOptions& options,
              std::vector<int> wls)
        : spec_(spec),
          eval_(eval),
          costs_(costs),
          accuracy_db_(accuracy_db),
          options_(options),
          wls_(std::move(wls)) {
        const auto& nodes = spec_.nodes();
        const double max_cost = costs_.cost();
        // Per-node maximum saving relative to all-max, from root probes.
        // Separability makes these constants of the whole search: an
        // op's cost depends only on its own node's WL.
        std::vector<double> max_saving(nodes.size(), 0.0);
        for (size_t i = 0; i < nodes.size(); ++i) {
            for (const int wl : wls_) {
                max_saving[i] = std::max(
                    max_saving[i], max_cost - costs_.preview_move(nodes[i], wl));
            }
        }
        // Branch on the biggest potential saving first (ties by node
        // index): decisions that matter most happen high in the tree,
        // which is where pruning pays.
        order_.resize(nodes.size());
        for (size_t i = 0; i < nodes.size(); ++i) {
            order_[i] = static_cast<int>(i);
        }
        std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
            return max_saving[static_cast<size_t>(a)] >
                   max_saving[static_cast<size_t>(b)];
        });
        remaining_saving_.assign(nodes.size() + 1, 0.0);
        for (size_t k = nodes.size(); k-- > 0;) {
            remaining_saving_[k] =
                remaining_saving_[k + 1] +
                max_saving[static_cast<size_t>(order_[k])];
        }
        best_formats_.resize(nodes.size());
    }

    void seed(double incumbent_cost,
              const std::vector<FixedFormat>& incumbent_formats) {
        best_cost_ = incumbent_cost;
        best_formats_ = incumbent_formats;
        has_best_ = true;
    }

    SolveStats run() {
        descend(0);
        // Leave the spec at the best assignment found (the Tabu seed
        // when the search improved nothing).
        const auto& nodes = spec_.nodes();
        for (size_t i = 0; i < nodes.size(); ++i) {
            spec_.set_format(nodes[i], best_formats_[i]);
        }
        SolveStats stats;
        stats.nodes = nodes_;
        stats.proven_optimal = !out_of_budget_;
        stats.has_incumbent = has_best_;
        stats.best_objective = best_cost_;
        return stats;
    }

private:
    bool spend_node() {
        if (++nodes_ > options_.budget.max_nodes) {
            out_of_budget_ = true;
            return false;
        }
        return true;
    }

    void descend(size_t depth) {
        if (out_of_budget_) return;
        const auto& nodes = spec_.nodes();
        if (depth == nodes.size()) {
            // Every node assigned; feasibility was checked when the last
            // assignment was made.
            const double cost = costs_.cost();
            if (!has_best_ || cost < best_cost_ - options_.eps) {
                best_cost_ = cost;
                has_best_ = true;
                for (size_t i = 0; i < nodes.size(); ++i) {
                    best_formats_[i] = spec_.format(nodes[i]);
                }
            }
            return;
        }
        const NodeRef node = nodes[static_cast<size_t>(order_[depth])];
        const int max_wl = spec_.format(node).wl();
        // Cheapest WL first. Cost is monotone in the WL (storage
        // rounding never shrinks with more bits), so once a child's
        // bound cannot beat the incumbent no wider sibling can either —
        // the loop breaks instead of continuing. Feasibility runs the
        // other way (wider is quieter), so an infeasible child only
        // skips itself.
        for (const int wl : wls_) {
            if (out_of_budget_) break;
            if (!spend_node()) break;
            eval_.commit_move(node, wl);
            const double bound = costs_.cost() - remaining_saving_[depth + 1];
            if (has_best_ && bound >= best_cost_ - options_.eps) break;
            if (!eval_.violates(accuracy_db_)) descend(depth + 1);
        }
        // Restore the all-max convention for this node on backtrack.
        eval_.commit_move(node, max_wl);
    }

    FixedPointSpec& spec_;
    EvalSession& eval_;
    WlCostSession& costs_;
    const double accuracy_db_;
    const WloExactOptions& options_;
    std::vector<int> wls_;

    std::vector<int> order_;
    std::vector<double> remaining_saving_;

    std::vector<FixedFormat> best_formats_;
    double best_cost_ = 0.0;
    bool has_best_ = false;

    long long nodes_ = 0;
    bool out_of_budget_ = false;
};

}  // namespace

WloExactResult run_wlo_exact(FixedPointSpec& spec,
                             const AccuracyEvaluator& evaluator,
                             const TargetModel& target, double accuracy_db,
                             const WloExactOptions& options) {
    WloExactResult result;
    // The heuristic first: its best feasible spec is the incumbent and
    // its cost is the baseline the gap is measured against.
    result.tabu =
        run_tabu_wlo(spec, evaluator, target, accuracy_db, options.tabu);
    result.heuristic_cost = result.tabu.best_cost;

    const auto& nodes = spec.nodes();
    std::vector<FixedFormat> incumbent(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        incumbent[i] = spec.format(nodes[i]);
    }

    // Root of the exact search: everything back at the maximum WL (the
    // Tabu run already proved this root feasible).
    for (const NodeRef node : nodes) {
        spec.set_wl(node, target.max_wl());
    }
    const WlCostModel cost_model(spec.kernel(), target);
    const std::unique_ptr<EvalSession> eval = evaluator.open_session(spec);
    const std::unique_ptr<WlCostSession> costs = cost_model.open_session(spec);

    std::vector<int> wls = target.scalar_wls;
    std::sort(wls.begin(), wls.end());  // ascending: cheapest child first

    WloSearch search(spec, *eval, *costs, accuracy_db, options,
                     std::move(wls));
    search.seed(result.heuristic_cost, incumbent);
    result.solve = search.run();
    result.best_cost = result.solve.best_objective;
    return result;
}

}  // namespace slpwlo::solver

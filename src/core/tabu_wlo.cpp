#include "core/tabu_wlo.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace slpwlo {

TabuStats run_tabu_wlo(FixedPointSpec& spec, const AccuracyEvaluator& evaluator,
                       const TargetModel& target, double accuracy_db,
                       const TabuOptions& options) {
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

    int stagnation = 0;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
        stats.iterations = iter + 1;

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
                const int candidate_wl = wls[static_cast<size_t>(ni)];

                // One probe window on each session: the restore below
                // puts their cached terms back by copy instead of a
                // second refresh pass (see EvalSession::begin_probe).
                eval->begin_probe();
                costs->begin_move(nodes[i]);
                spec.set_wl(nodes[i], candidate_wl);
                const double noise_db = eval->noise_power_db();
                const bool feasible = noise_db <= accuracy_db;
                const double cost = costs->cost();
                spec.set_wl(nodes[i], current);
                eval->end_probe();
                costs->end_move();

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

        const int old_wl = spec.format(nodes[best_move->node_index]).wl();
        spec.set_wl(nodes[best_move->node_index], best_move->wl);
        tabu[best_move->node_index * wls.size() +
             static_cast<size_t>(wl_index(old_wl))] = iter + options.tenure;

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

// Tabu-search word-length optimization (the Nguyen'11 algorithm used as the
// paper's WLO baseline, Section V.A).
//
// State: one WL per node, drawn from the target's supported scalar set.
// Moves: change a single node's WL to an adjacent supported value.
// The search starts from the all-maximum (feasible) spec, walks the
// neighborhood guided by the WlCostModel with an infeasibility penalty,
// keeps a tabu list on (node, previous WL) reversals with aspiration, and
// returns the best feasible spec found.
//
// Each iteration picks the admissible move of lowest score, then lowest
// node index. Only the moves that can still be that choice are evaluated
// exactly: by a set, probe and restore, or by the exact cost alone for a
// move known to be feasible. With an additive evaluation session, every
// move keeps its closed-form change to the noise split and to the cost,
// recomputed only when the committed node is its own or shares a noise
// term with it. From those, a rounding margin bounds the move's
// feasibility, aspiration and score. A move whose score lower bound
// exceeds the least upper bound among the decided admissible moves cannot
// win and is skipped (DESIGN.md §10, "Tabu neighbourhood screen"). The
// chosen moves, the stats and the final spec are bit-identical to a full
// scan of the neighbourhood; a session without the split screens nothing.
#pragma once

#include <vector>

#include "accuracy/evaluator.hpp"
#include "core/wl_cost_model.hpp"

namespace slpwlo {

struct TabuOptions {
    int max_iterations = 250;
    /// Iterations a reversal move stays forbidden.
    int tenure = 8;
    /// Stop after this many non-improving iterations.
    int stagnation_limit = 60;
    /// Cost penalty per dB of constraint violation (guides the search back
    /// to feasibility while allowing it to pass through infeasible specs).
    double infeasibility_penalty = 0.35;
};

struct TabuStats {
    int iterations = 0;
    int improvements = 0;
    double initial_cost = 0.0;
    double best_cost = 0.0;
    bool feasible = false;
};

/// One committed move: a node, by its index in spec.nodes(), and the WL it
/// moved to.
struct TabuMove {
    size_t node_index = 0;
    int wl = 0;

    friend bool operator==(const TabuMove&, const TabuMove&) = default;
};

/// Optimize `spec` in place (all nodes are first reset to the maximum WL).
/// When `moves` is given, each iteration's committed move is appended.
TabuStats run_tabu_wlo(FixedPointSpec& spec, const AccuracyEvaluator& evaluator,
                       const TargetModel& target, double accuracy_db,
                       const TabuOptions& options = {},
                       std::vector<TabuMove>* moves = nullptr);

}  // namespace slpwlo

// A small home-grown 0/1 ILP branch-and-bound core.
//
// The optimal flows (`WLO-Optimal`, `SLP-Optimal`) need exact answers to
// two combinatorial questions the paper solves heuristically: which SLP
// packs to select (goSLP poses this as an ILP) and which word length to
// give every node (Tabu search in the paper). Both are small enough that
// a dependency-free solver beats shipping one: the models have tens of
// variables, the constraints are pairwise exclusions, and the objective
// is separable — so an LP relaxation buys little over the LP-free bound
// implemented here (constraint propagation plus incumbent pruning).
//
// Determinism is a hard contract, not an aspiration: the sweep layer
// byte-compares reports across thread counts and worker farms, so the
// same problem and the same budget must expand the same tree and return
// the same incumbent everywhere. Everything that orders the search —
// branch variable order, value order, tie-breaks — is fixed up front,
// and the budget counts *nodes*, never milliseconds (see SolveBudget).
//
// Scope: binary variables, linear `<=` constraints with non-negative
// coefficients and right-hand sides (which covers the pairwise-exclusion
// models we build: x_i + x_j <= 1), maximize or minimize. A free
// variable is *available* while setting it to 1 keeps every
// constraint's remaining slack non-negative; two variables *exclude*
// each other when some constraint holds both with coeff_i + coeff_j >
// rhs. Pack selection is thus maximum-weight independent set on the
// exclusion graph, and the bound is the standard one for that problem:
//
//   bound(partial) = value(fixed vars)
//                  + greedy weighted clique cover of still-available vars
//
// The available free variables are walked in branch order (weight
// descending); each joins the first open clique whose every member it
// excludes, or opens a new one. Only each clique's first — heaviest —
// member is counted. With non-negative coefficients this is a valid
// relaxation: a completion sets at most one variable per clique and
// never an unavailable one. The bound only decides which subtrees are
// pruned, and a subtree is pruned only when none of its leaves could
// beat the incumbent by more than eps; so for a search that finishes
// within budget, any valid bound makes the same incumbent updates in
// the same order and returns the same assignment — only the node count
// differs.
//
// An `on_fix` hook lets the caller veto x_i = 1 with state the model
// cannot express linearly (the accuracy-coupled pack selection applies
// equation 1 to a scratch spec and checks the constraint); `on_unfix`
// undoes it on backtrack. A vetoed fix prunes exactly that branch, so
// the search stays exact *with respect to the hook*: the solver proves
// optimality over the solutions the hook admits.
#pragma once

#include <functional>
#include <vector>

#include "support/diagnostics.hpp"

namespace slpwlo::solver {

/// Search budget shared by every exact solver in this subsystem.
struct SolveBudget {
    /// Maximum number of branch-and-bound nodes to expand (a node is one
    /// value assignment tried at one variable). When the budget runs out
    /// the solver returns the best incumbent found so far — anytime
    /// behavior — with `proven_optimal` false. Deterministic: the same
    /// budget expands the same tree on every machine. The default is far
    /// above what every registry kernel needs to prove optimality on the
    /// shipped targets (CONV's pack selection, the ceiling, takes ~2.5k
    /// nodes). The budget is part of `stage_memo_key`, so lowering it
    /// changes every optimal-flow memo key.
    long long max_nodes = 8000000;
};

/// Statistics of one exact solve, reported per flow (flow/report.cpp)
/// and summed across the per-round solves of `SLP-Optimal`.
struct SolveStats {
    /// Nodes expanded (value assignments tried).
    long long nodes = 0;
    /// True when the search space was exhausted within budget: the
    /// incumbent is optimal (within `BnbOptions::eps`), not just best
    /// found so far.
    bool proven_optimal = false;
    /// True when any feasible solution is known (seeded or found).
    bool has_incumbent = false;
    /// Objective of the incumbent (meaningful when has_incumbent).
    double best_objective = 0.0;
};

/// One linear constraint: sum of coeff * x(var) <= rhs, all coefficients
/// and rhs non-negative.
struct BnbConstraint {
    std::vector<std::pair<int, double>> terms;
    double rhs = 0.0;
};

/// A 0/1 ILP: optimize sum weights[i] * x[i] subject to the constraints.
struct BnbProblem {
    enum class Sense { Maximize, Minimize };
    Sense sense = Sense::Maximize;
    std::vector<double> weights;
    std::vector<BnbConstraint> constraints;
};

struct BnbOptions {
    SolveBudget budget;
    /// Floating-point slack for bound comparisons: a branch is pruned
    /// only when its bound cannot beat the incumbent by more than eps,
    /// and "proven optimal" means optimal within eps. Keeps optimality
    /// claims sound in the presence of accumulated rounding.
    double eps = 1e-9;
};

/// Caller-state coupling hooks (both empty by default). `on_fix(i)` runs
/// when the search sets x_i = 1; returning false vetoes the branch (the
/// solver treats x_i = 1 as infeasible *here* and does not call
/// `on_unfix`). `on_unfix(i)` undoes a successful fix on backtrack.
/// Fixes and unfixes nest strictly LIFO.
struct BnbHooks {
    std::function<bool(int)> on_fix;
    std::function<void(int)> on_unfix;
};

struct BnbResult {
    /// Incumbent assignment, one 0/1 per variable (all zero when no
    /// incumbent exists — check stats.has_incumbent).
    std::vector<char> assignment;
    SolveStats stats;
};

/// Solves the problem by depth-first branch and bound. `initial`, when
/// given, seeds the incumbent (it must satisfy the linear constraints;
/// its objective is recomputed here). The variable order is fixed up
/// front — favorable weight magnitude descending, index ascending on
/// ties — and the favorable value is tried first, so the greedy-looking
/// solution is reached early and the budget is spent tightening it.
BnbResult solve_bnb(const BnbProblem& problem, const BnbOptions& options = {},
                    const BnbHooks& hooks = {},
                    const std::vector<char>* initial = nullptr);

}  // namespace slpwlo::solver

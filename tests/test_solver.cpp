// Tests for the exact-optimization subsystem (src/solver): the 0/1 ILP
// branch-and-bound core against brute force, exact word-length
// optimization against an exhaustive oracle, the optimal flows
// (WLO-Optimal, SLP-Optimal) and their gap invariants, and the
// heuristic/optimal sweep axis (spelling errors, memo isolation,
// resolution to the exact flows).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "accuracy/analytic_evaluator.hpp"
#include "core/wl_cost_model.hpp"
#include "flow/flow.hpp"
#include "flow/pass.hpp"
#include "flow/report.hpp"
#include "flow/sweep.hpp"
#include "solver/bnb.hpp"
#include "solver/wlo_exact.hpp"
#include "support/diagnostics.hpp"
#include "target/target_model.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using namespace slpwlo::solver;
using ::slpwlo::testing::cached_evaluator;
using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::small_fir;

// --- branch-and-bound core -----------------------------------------------------

TEST(Bnb, SolvesPairwiseExclusionModelExactly) {
    // The shape every solver model in this repo has: pairwise exclusions.
    // Optimum: pick 5 over 4, 3 over 2, and the free 1.
    BnbProblem problem;
    problem.weights = {5.0, 4.0, 3.0, 2.0, 1.0};
    problem.constraints.push_back(BnbConstraint{{{0, 1.0}, {1, 1.0}}, 1.0});
    problem.constraints.push_back(BnbConstraint{{{2, 1.0}, {3, 1.0}}, 1.0});
    const BnbResult result = solve_bnb(problem);
    EXPECT_TRUE(result.stats.proven_optimal);
    ASSERT_TRUE(result.stats.has_incumbent);
    EXPECT_DOUBLE_EQ(result.stats.best_objective, 9.0);
    EXPECT_EQ(result.assignment, (std::vector<char>{1, 0, 1, 0, 1}));
}

TEST(Bnb, MinimizeSenseSelectsNegativeWeights) {
    BnbProblem problem;
    problem.sense = BnbProblem::Sense::Minimize;
    problem.weights = {2.0, -3.0, 1.0, -0.5};
    const BnbResult result = solve_bnb(problem);
    EXPECT_TRUE(result.stats.proven_optimal);
    EXPECT_DOUBLE_EQ(result.stats.best_objective, -3.5);
    EXPECT_EQ(result.assignment, (std::vector<char>{0, 1, 0, 1}));
}

/// Exhaustive reference: best objective over all 2^n assignments that
/// satisfy every constraint.
double brute_force(const BnbProblem& problem) {
    const size_t n = problem.weights.size();
    const bool maximize = problem.sense == BnbProblem::Sense::Maximize;
    double best = maximize ? -std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::infinity();
    for (size_t mask = 0; mask < (size_t(1) << n); ++mask) {
        bool feasible = true;
        for (const BnbConstraint& c : problem.constraints) {
            double lhs = 0.0;
            for (const auto& [var, coeff] : c.terms) {
                if ((mask >> var) & 1) lhs += coeff;
            }
            if (lhs > c.rhs + 1e-12) {
                feasible = false;
                break;
            }
        }
        if (!feasible) continue;
        double value = 0.0;
        for (size_t i = 0; i < n; ++i) {
            if ((mask >> i) & 1) value += problem.weights[i];
        }
        best = maximize ? std::max(best, value) : std::min(best, value);
    }
    return best;
}

/// Fixed LCG shared by the randomized instances below: the same stream
/// on every machine.
class Lcg {
public:
    explicit Lcg(uint64_t seed) : state_(seed) {}
    uint64_t operator()() {
        state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
        return state_ >> 33;
    }

private:
    uint64_t state_;
};

bool satisfies(const BnbProblem& problem, const std::vector<char>& x) {
    for (const BnbConstraint& c : problem.constraints) {
        double lhs = 0.0;
        for (const auto& [var, coeff] : c.terms) {
            if (x[static_cast<size_t>(var)]) lhs += coeff;
        }
        if (lhs > c.rhs + 1e-12) return false;
    }
    return true;
}

double objective(const BnbProblem& problem, const std::vector<char>& x) {
    double value = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        if (x[i]) value += problem.weights[i];
    }
    return value;
}

/// Random instance: mixed-sign weights, pairwise exclusions with
/// probability 1/3 (sparse) or 2/3 (dense), plus a few constraints of
/// three or four terms whose quarter-step coefficients make some pairs
/// exclusive and others not. Quarter steps keep every objective exact in
/// binary, so ties are real ties.
BnbProblem random_instance(Lcg& next, size_t n, BnbProblem::Sense sense,
                           bool dense) {
    BnbProblem problem;
    problem.sense = sense;
    for (size_t i = 0; i < n; ++i) {
        problem.weights.push_back(
            (static_cast<double>(next() % 41) - 20.0) / 4.0);
    }
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
            if ((next() % 3 == 0) != dense) {
                problem.constraints.push_back(BnbConstraint{
                    {{static_cast<int>(i), 1.0}, {static_cast<int>(j), 1.0}},
                    1.0});
            }
        }
    }
    for (int k = 0; k < 3 && n >= 4; ++k) {
        BnbConstraint c;
        const size_t terms = 3 + next() % 2;
        const size_t first = next() % n;
        for (size_t t = 0; t < terms; ++t) {
            c.terms.emplace_back(static_cast<int>((first + t) % n),
                                 static_cast<double>(1 + next() % 4) / 4.0);
        }
        c.rhs = static_cast<double>(4 + next() % 5) / 4.0;
        problem.constraints.push_back(c);
    }
    return problem;
}

TEST(Bnb, MatchesBruteForceOnMixedSignInstances) {
    // Deterministic pseudo-random instances up to 16 variables, sparse
    // and dense exclusion graphs, both senses.
    Lcg next(0x5eed);
    for (int trial = 0; trial < 32; ++trial) {
        const size_t n = 2 + next() % 15;  // 2..16 variables
        const BnbProblem problem = random_instance(
            next, n,
            trial % 2 == 0 ? BnbProblem::Sense::Maximize
                           : BnbProblem::Sense::Minimize,
            /*dense=*/trial % 4 >= 2);
        const BnbResult result = solve_bnb(problem);
        EXPECT_TRUE(result.stats.proven_optimal) << "trial " << trial;
        ASSERT_TRUE(result.stats.has_incumbent) << "trial " << trial;
        EXPECT_TRUE(satisfies(problem, result.assignment))
            << "trial " << trial;
        EXPECT_DOUBLE_EQ(objective(problem, result.assignment),
                         result.stats.best_objective)
            << "trial " << trial;
        EXPECT_NEAR(result.stats.best_objective, brute_force(problem), 1e-9)
            << "trial " << trial;

        // Determinism: the same problem expands the same tree.
        const BnbResult replay = solve_bnb(problem);
        EXPECT_EQ(replay.stats.nodes, result.stats.nodes);
        EXPECT_EQ(replay.assignment, result.assignment);
    }
}

TEST(Bnb, BudgetExhaustionKeepsSeededIncumbentUnproven) {
    BnbProblem problem;
    for (int i = 0; i < 24; ++i) {
        problem.weights.push_back(1.0 + 0.01 * i);
    }
    BnbOptions options;
    options.budget.max_nodes = 3;
    std::vector<char> seed(24, 0);
    seed[0] = 1;
    const BnbResult result = solve_bnb(problem, options, {}, &seed);
    EXPECT_FALSE(result.stats.proven_optimal);
    ASSERT_TRUE(result.stats.has_incumbent);
    // Anytime contract: never worse than the seed, never past the budget.
    EXPECT_GE(result.stats.best_objective, 1.0 - 1e-12);
    EXPECT_LE(result.stats.nodes, 3);
}

TEST(Bnb, HookVetoExcludesBranchAndUnfixNestsLifo) {
    BnbProblem problem;
    problem.weights = {5.0, 3.0, 2.0};
    std::vector<int> stack;
    BnbHooks hooks;
    hooks.on_fix = [&stack](int var) {
        if (var == 0) return false;  // veto the heaviest variable outright
        stack.push_back(var);
        return true;
    };
    hooks.on_unfix = [&stack](int var) {
        ASSERT_FALSE(stack.empty());
        EXPECT_EQ(stack.back(), var);
        stack.pop_back();
    };
    const BnbResult result = solve_bnb(problem, {}, hooks);
    // Exact with respect to the hook: optimal over admitted solutions.
    EXPECT_TRUE(result.stats.proven_optimal);
    EXPECT_DOUBLE_EQ(result.stats.best_objective, 5.0);
    EXPECT_EQ(result.assignment, (std::vector<char>{0, 1, 1}));
    EXPECT_TRUE(stack.empty());  // every fix was unwound
}

TEST(Bnb, MultiTermConstraintExcludesOnlyPairsThatOverflow) {
    // 0.6 + 0.6 > 1: the two variables exclude each other, so the bound
    // at the root is the heavier weight alone and the greedy seed is
    // proven without a single node.
    {
        BnbProblem problem;
        problem.weights = {3.0, 2.0};
        problem.constraints.push_back(
            BnbConstraint{{{0, 0.6}, {1, 0.6}}, 1.0});
        const std::vector<char> seed = {1, 0};
        const BnbResult result = solve_bnb(problem, {}, {}, &seed);
        EXPECT_TRUE(result.stats.proven_optimal);
        EXPECT_EQ(result.stats.nodes, 0);
        EXPECT_EQ(result.assignment, seed);
    }
    // Three unit terms under rhs 2: any two fit, so no pair excludes.
    // Were they treated as one clique, the bound (3) would prune the
    // root against the seed (4) and the optimum (5) would be missed.
    {
        BnbProblem problem;
        problem.weights = {3.0, 2.0, 1.0};
        problem.constraints.push_back(
            BnbConstraint{{{0, 1.0}, {1, 1.0}, {2, 1.0}}, 2.0});
        const std::vector<char> seed = {1, 0, 1};
        const BnbResult result = solve_bnb(problem, {}, {}, &seed);
        EXPECT_TRUE(result.stats.proven_optimal);
        EXPECT_DOUBLE_EQ(result.stats.best_objective, 5.0);
        EXPECT_EQ(result.assignment, (std::vector<char>{1, 1, 0}));
    }
}

TEST(Bnb, RejectsConstraintNamingAVariableTwice) {
    // 0.5 + 0.75 > 1, yet each term alone fits: the model must merge
    // such terms itself.
    BnbProblem problem;
    problem.weights = {1.0};
    problem.constraints.push_back(BnbConstraint{{{0, 0.5}, {0, 0.75}}, 1.0});
    EXPECT_THROW(solve_bnb(problem), Error);
}

TEST(Bnb, HookVetoesStayExactOnDenseConflictGraphs) {
    // The hook enforces what the model cannot see: a cap on how many
    // variables are set, and a few forbidden pairs. Both depend only on
    // the set of fixed variables, so the oracle can enumerate them.
    Lcg next(0x4007);
    for (int trial = 0; trial < 24; ++trial) {
        const size_t n = 4 + next() % 11;  // 4..14 variables
        const BnbProblem problem = random_instance(
            next, n, BnbProblem::Sense::Maximize, /*dense=*/true);
        const size_t cap = 1 + next() % 3;
        std::vector<std::pair<int, int>> forbidden;
        for (int k = 0; k < 4; ++k) {
            forbidden.emplace_back(static_cast<int>(next() % n),
                                   static_cast<int>(next() % n));
        }
        const auto admitted = [&](const std::vector<char>& x) {
            size_t set = 0;
            for (const char v : x) set += v ? 1 : 0;
            if (set > cap) return false;
            for (const auto& [a, b] : forbidden) {
                if (a != b && x[static_cast<size_t>(a)] &&
                    x[static_cast<size_t>(b)]) {
                    return false;
                }
            }
            return true;
        };

        std::vector<int> stack;
        std::vector<char> fixed(n, 0);
        BnbHooks hooks;
        hooks.on_fix = [&](int var) {
            fixed[static_cast<size_t>(var)] = 1;
            if (!admitted(fixed)) {
                fixed[static_cast<size_t>(var)] = 0;
                return false;
            }
            stack.push_back(var);
            return true;
        };
        hooks.on_unfix = [&](int var) {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back(), var);
            stack.pop_back();
            fixed[static_cast<size_t>(var)] = 0;
        };
        const BnbResult result = solve_bnb(problem, {}, hooks);
        EXPECT_TRUE(stack.empty()) << "trial " << trial;

        double oracle = 0.0;  // the all-zero assignment is admitted
        for (size_t mask = 0; mask < (size_t(1) << n); ++mask) {
            std::vector<char> x(n, 0);
            for (size_t i = 0; i < n; ++i) x[i] = (mask >> i) & 1;
            if (satisfies(problem, x) && admitted(x)) {
                oracle = std::max(oracle, objective(problem, x));
            }
        }
        EXPECT_TRUE(result.stats.proven_optimal) << "trial " << trial;
        EXPECT_TRUE(admitted(result.assignment)) << "trial " << trial;
        EXPECT_NEAR(result.stats.best_objective, oracle, 1e-9)
            << "trial " << trial;
    }
}

/// The first optimal leaf in the solver's own branch order: variables
/// with a favorable weight, weight magnitude descending (index ascending
/// on ties), x = 1 tried before x = 0; every other variable stays 0.
/// Leaves in that depth-first order are the position masks counted down
/// from all-ones, with the first branch position as the top bit.
std::vector<char> first_optimum_in_branch_order(const BnbProblem& problem) {
    const double sign =
        problem.sense == BnbProblem::Sense::Minimize ? -1.0 : 1.0;
    std::vector<int> order;
    for (size_t i = 0; i < problem.weights.size(); ++i) {
        if (sign * problem.weights[i] > 0.0) {
            order.push_back(static_cast<int>(i));
        }
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return sign * problem.weights[static_cast<size_t>(a)] >
               sign * problem.weights[static_cast<size_t>(b)];
    });
    const size_t depth = order.size();
    std::vector<char> first;
    double best = 0.0;
    for (size_t mask = (size_t(1) << depth); mask-- > 0;) {
        std::vector<char> x(problem.weights.size(), 0);
        for (size_t k = 0; k < depth; ++k) {
            x[static_cast<size_t>(order[k])] = (mask >> (depth - 1 - k)) & 1;
        }
        if (!satisfies(problem, x)) continue;
        // The first feasible leaf becomes the incumbent; later leaves
        // replace it only when strictly better.
        const double value = sign * objective(problem, x);
        if (first.empty() || value > best) {
            first = x;
            best = value;
        }
    }
    return first;
}

TEST(Bnb, ReturnsFirstOptimumInBranchOrderWithAndWithoutSeed) {
    // Weights from {1, 2, 3} make optimal ties the rule, not the
    // exception. Any valid bound must return the first optimum the
    // depth-first order reaches: pruning never skips a leaf that would
    // have replaced the incumbent.
    Lcg next(0x71e);
    for (int trial = 0; trial < 32; ++trial) {
        const size_t n = 3 + next() % 10;  // 3..12 variables
        BnbProblem problem = random_instance(
            next, n,
            trial % 2 == 0 ? BnbProblem::Sense::Maximize
                           : BnbProblem::Sense::Minimize,
            /*dense=*/true);
        const double sign = trial % 2 == 0 ? 1.0 : -1.0;
        for (double& w : problem.weights) {
            w = sign * static_cast<double>(1 + next() % 3);
        }
        const std::vector<char> expected =
            first_optimum_in_branch_order(problem);

        const BnbResult unseeded = solve_bnb(problem);
        EXPECT_TRUE(unseeded.stats.proven_optimal) << "trial " << trial;
        EXPECT_EQ(unseeded.assignment, expected) << "trial " << trial;

        // A strictly worse seed (nothing selected) changes where the
        // search starts pruning, not which optimum it returns.
        const std::vector<char> seed(n, 0);
        const BnbResult seeded = solve_bnb(problem, {}, {}, &seed);
        EXPECT_TRUE(seeded.stats.proven_optimal) << "trial " << trial;
        EXPECT_EQ(seeded.assignment, expected) << "trial " << trial;
    }
}

TEST(Bnb, CliqueCoverProvesDisjointTrianglesInFixedNodes) {
    // Eight disjoint triangles of equal weight: the optimum takes one
    // vertex per triangle. A bound that sums every available weight
    // counts up to three per triangle and expands 56,782 nodes here; the
    // clique cover counts each triangle once, so the first leaf is
    // proven optimal on the way back.
    BnbProblem problem;
    problem.weights.assign(24, 1.0);
    for (int t = 0; t < 8; ++t) {
        const int a = 3 * t;
        for (const auto& [i, j] :
             {std::pair{a, a + 1}, std::pair{a, a + 2},
              std::pair{a + 1, a + 2}}) {
            problem.constraints.push_back(
                BnbConstraint{{{i, 1.0}, {j, 1.0}}, 1.0});
        }
    }
    const BnbResult result = solve_bnb(problem);
    EXPECT_TRUE(result.stats.proven_optimal);
    EXPECT_DOUBLE_EQ(result.stats.best_objective, 8.0);
    // 24 nodes down the first path (one per variable), then one x = 0
    // try per triangle leader on the way back, each pruned at once.
    EXPECT_EQ(result.stats.nodes, 32);
    for (int t = 0; t < 8; ++t) {
        EXPECT_EQ(result.assignment[static_cast<size_t>(3 * t)], 1);
    }
}

// --- exact word-length optimization --------------------------------------------

TEST(WloExact, NeverWorseThanTabuAndMeetsConstraint) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    const TargetModel target = targets::xentium();
    const WloExactResult out =
        run_wlo_exact(spec, cached_evaluator(k), target, -30.0);
    EXPECT_EQ(out.heuristic_cost, out.tabu.best_cost);  // tabu seeds
    EXPECT_LE(out.best_cost, out.heuristic_cost + 1e-9);
    EXPECT_LE(cached_evaluator(k).noise_power_db(spec), -30.0 + 1e-9);
    // The spec left behind is the incumbent the stats describe.
    EXPECT_DOUBLE_EQ(WlCostModel(k, target).cost(spec), out.best_cost);
}

TEST(WloExact, MatchesExhaustiveOracleOnTinyKernel) {
    const Kernel k = ::slpwlo::testing::make_two_tap();
    const AnalyticEvaluator evaluator(k);
    // Two supported WLs keep the full space enumerable: 2^nodes specs.
    TargetModel target = targets::xentium();
    target.scalar_wls = {32, 16};
    const double accuracy = -25.0;

    FixedPointSpec spec = initial_spec(k);
    const WloExactResult out = run_wlo_exact(spec, evaluator, target, accuracy);
    ASSERT_TRUE(out.solve.proven_optimal);

    const WlCostModel model(k, target);
    FixedPointSpec probe = initial_spec(k);
    const std::vector<NodeRef> nodes = probe.nodes();
    ASSERT_LE(nodes.size(), 16u) << "oracle enumeration would be too large";
    double oracle = std::numeric_limits<double>::infinity();
    for (size_t mask = 0; mask < (size_t(1) << nodes.size()); ++mask) {
        for (size_t i = 0; i < nodes.size(); ++i) {
            probe.set_wl(nodes[i], ((mask >> i) & 1) != 0 ? 16 : 32);
        }
        if (evaluator.noise_power_db(probe) > accuracy) continue;
        oracle = std::min(oracle, model.cost(probe));
    }
    ASSERT_TRUE(std::isfinite(oracle));
    EXPECT_NEAR(out.best_cost, oracle, 1e-9);
    EXPECT_DOUBLE_EQ(model.cost(spec), out.best_cost);
}

// --- the optimal flows ---------------------------------------------------------

TEST(OptimalFlows, WloOptimalNeverWorseThanWloFirst) {
    FlowOptions options;
    options.accuracy_db = -30.0;
    const KernelContext context(small_fir());
    const TargetModel target = targets::xentium();
    const FlowResult exact =
        FlowRegistry::instance().flow("WLO-Optimal").run(context, target,
                                                         options);
    const FlowResult heuristic =
        FlowRegistry::instance().flow("WLO-First").run(context, target,
                                                       options);
    ASSERT_TRUE(exact.solver_stats.ran);
    EXPECT_FALSE(heuristic.solver_stats.ran);
    // The heuristic objective is exactly the Tabu incumbent WLO-First
    // reports, and the exact search can only improve on it.
    EXPECT_EQ(exact.solver_stats.heuristic_objective,
              heuristic.tabu_stats.best_cost);
    EXPECT_LE(exact.solver_stats.best_objective,
              exact.solver_stats.heuristic_objective + 1e-9);
    EXPECT_GE(exact.solver_stats.gap, -1e-9);
    EXPECT_LE(exact.analytic_noise_db, -30.0 + 1e-9);
}

TEST(OptimalFlows, SlpOptimalProvesOptimalityOnRegistryKernels) {
    // The acceptance bar: SLP-Optimal proves per-round optimality on all
    // four registry kernels for a shipped target within default budget.
    ExecOptions sweep_options;
    sweep_options.threads = 2;
    SweepDriver driver(sweep_options);
    const std::vector<SweepResult> results = driver.run(
        SweepDriver::grid({"FIR", "IIR", "CONV", "DOT"}, {"XENTIUM"},
                          {"SLP-Optimal"}, {-30.0}));
    ASSERT_EQ(results.size(), 4u);
    for (const SweepResult& result : results) {
        const SolverStats& stats = result.flow.solver_stats;
        EXPECT_TRUE(stats.ran) << result.point.kernel;
        EXPECT_TRUE(stats.proven_optimal) << result.point.kernel;
        EXPECT_GE(stats.best_objective, stats.heuristic_objective - 1e-9)
            << result.point.kernel;
        EXPECT_GE(stats.gap, -1e-9) << result.point.kernel;
        EXPECT_LE(result.flow.analytic_noise_db, -30.0 + 1e-9)
            << result.point.kernel;
    }
}

TEST(OptimalFlows, StageMemoKeyIsolatesSolverBudget) {
    const KernelContext context(small_fir());
    const TargetModel target = targets::xentium();
    // The budget is part of the identity: a bigger budget can change the
    // incumbent an exact flow returns.
    FlowOptions options;
    FlowOptions bigger;
    bigger.solver_budget.max_nodes += 1;
    const uint64_t target_fp = target_fingerprint(target);
    EXPECT_NE(stage_memo_key(context, target_fp, "SLP-Optimal", options),
              stage_memo_key(context, target_fp, "SLP-Optimal", bigger));
}

TEST(OptimalFlows, MemoizedOptimalSweepReproducesSolverStats) {
    const std::vector<SweepPoint> points = SweepDriver::grid(
        {"FIR"}, {"XENTIUM"}, {"SLP-Optimal"}, {-25.0});
    ExecOptions options;
    options.threads = 1;
    SweepDriver driver(options);
    const std::vector<SweepResult> cold = driver.run(points);
    const std::vector<SweepResult> warm = driver.run(points);
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_GT(driver.cache_stats().eval_hits, 0u);
    ASSERT_TRUE(cold[0].flow.solver_stats.ran);
    ASSERT_TRUE(warm[0].flow.solver_stats.ran);
    // The memoized run reports the cold run's solver stats bit for bit
    // (they are part of the stage entry, not recomputed).
    const SolverStats& a = cold[0].flow.solver_stats;
    const SolverStats& b = warm[0].flow.solver_stats;
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.proven_optimal, b.proven_optimal);
    EXPECT_EQ(a.heuristic_objective, b.heuristic_objective);
    EXPECT_EQ(a.best_objective, b.best_objective);
    EXPECT_EQ(a.gap, b.gap);
    EXPECT_EQ(to_json(cold[0].flow), to_json(warm[0].flow));
}

TEST(OptimalFlows, SolverStatsLandInMeasuredReportsOnly) {
    FlowOptions options;
    options.accuracy_db = -25.0;
    const KernelContext context(small_fir());
    FlowResult result = FlowRegistry::instance()
                            .flow("WLO-Optimal")
                            .run(context, targets::xentium(), options);
    ASSERT_TRUE(result.solver_stats.ran);
    // Identity bytes (the cross-shard byte-compare surface) exclude the
    // solver block; the measured report carries it.
    EXPECT_EQ(to_json(result).find("\"solver\""), std::string::npos);
    const std::string measured = to_json(result, /*include_measured=*/true);
    EXPECT_NE(measured.find("\"solver\":{\"nodes\":"), std::string::npos);
    EXPECT_NE(measured.find("\"proven_optimal\":"), std::string::npos);
    EXPECT_NE(measured.find("\"gap\":"), std::string::npos);
}

}  // namespace
}  // namespace slpwlo

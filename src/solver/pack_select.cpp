#include "solver/pack_select.hpp"

#include <algorithm>

namespace slpwlo::solver {

PackSelectResult select_packs_exact(
    const PackedView& view, const std::vector<Candidate>& candidates,
    const ConflictSet& conflicts, const TargetModel& target,
    const PackSelectOptions& options, const PackFix& fix,
    const PackUnfix& unfix, int* rejected_count) {
    PackSelectResult result;

    // Round-start weights: each candidate scored once against everything
    // it does not conflict with (the greedy loop's first-pick pool).
    std::vector<double> weight(candidates.size(), 0.0);
    const CandidateIndex index(view, candidates, target);
    const CandidateIndex::Pool pool(candidates.size(), &conflicts);
    for (size_t i = 0; i < candidates.size(); ++i) {
        weight[i] = benefit_score(index.evaluate(i, pool), options.benefit_mode);
    }

    // Model variables: candidates at or above the profitability floor.
    std::vector<size_t> vars;
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (weight[i] >= options.min_benefit) vars.push_back(i);
    }
    std::vector<int> var_of(candidates.size(), -1);
    for (size_t v = 0; v < vars.size(); ++v) {
        var_of[vars[v]] = static_cast<int>(v);
    }

    BnbProblem problem;
    problem.sense = BnbProblem::Sense::Maximize;
    problem.weights.reserve(vars.size());
    for (const size_t i : vars) problem.weights.push_back(weight[i]);
    for (size_t a = 0; a < vars.size(); ++a) {
        for (size_t b = a + 1; b < vars.size(); ++b) {
            if (conflicts.conflict(vars[a], vars[b])) {
                problem.constraints.push_back(
                    {{{static_cast<int>(a), 1.0}, {static_cast<int>(b), 1.0}},
                     1.0});
            }
        }
    }

    // Greedy incumbent, run with the same feasibility coupling and then
    // fully unwound: the exact search starts from the heuristic answer
    // and can only improve on it.
    std::vector<Candidate> greedy = select_candidates(
        view, candidates, conflicts, target, options.benefit_mode,
        options.min_benefit, fix ? TrySelect(fix) : TrySelect{},
        rejected_count);
    if (unfix) {
        for (size_t k = greedy.size(); k-- > 0;) unfix(greedy[k]);
    }
    std::vector<char> incumbent(vars.size(), 0);
    for (const Candidate& c : greedy) {
        const auto it = std::find(candidates.begin(), candidates.end(), c);
        SLPWLO_ASSERT(it != candidates.end(),
                      "greedy selected an unknown candidate");
        const int v = var_of[static_cast<size_t>(it - candidates.begin())];
        // A greedy pick can sit below the round-start floor only through
        // pool shrinkage; the restricted incumbent simply omits it.
        if (v >= 0) incumbent[static_cast<size_t>(v)] = 1;
    }
    for (size_t v = 0; v < vars.size(); ++v) {
        if (incumbent[v]) result.greedy_objective += weight[vars[v]];
    }

    BnbOptions bnb_options;
    bnb_options.budget = options.budget;
    bnb_options.eps = options.eps;
    BnbHooks hooks;
    if (fix) {
        hooks.on_fix = [&](int v) {
            return fix(candidates[vars[static_cast<size_t>(v)]]);
        };
    }
    if (unfix) {
        hooks.on_unfix = [&](int v) {
            unfix(candidates[vars[static_cast<size_t>(v)]]);
        };
    }
    const BnbResult solved =
        solve_bnb(problem, bnb_options, hooks, &incumbent);
    result.solve = solved.stats;
    for (size_t v = 0; v < vars.size(); ++v) {
        if (solved.assignment[v]) {
            result.selected.push_back(candidates[vars[v]]);
        }
    }
    return result;
}

}  // namespace slpwlo::solver

#include "solver/bnb.hpp"

#include <algorithm>
#include <cstdint>

namespace slpwlo::solver {

namespace {

/// The whole search state, on the internally-normalized problem: weights
/// are negated up front for Minimize, so the search always maximizes and
/// the caller-visible objective is negated back at the end.
class BnbSearch {
public:
    BnbSearch(const BnbProblem& problem, const BnbOptions& options,
              const BnbHooks& hooks, std::vector<double> weights)
        : problem_(problem),
          options_(options),
          hooks_(hooks),
          weights_(std::move(weights)),
          current_(weights_.size(), 0),
          terms_of_var_(weights_.size()) {
        slack_.reserve(problem.constraints.size());
        for (size_t c = 0; c < problem.constraints.size(); ++c) {
            const BnbConstraint& constraint = problem.constraints[c];
            SLPWLO_CHECK(constraint.rhs >= 0.0,
                         "bnb constraint rhs must be non-negative");
            slack_.push_back(constraint.rhs);
            for (const auto& [var, coeff] : constraint.terms) {
                SLPWLO_CHECK(var >= 0 &&
                                 static_cast<size_t>(var) < weights_.size(),
                             "bnb constraint references unknown variable");
                SLPWLO_CHECK(coeff >= 0.0,
                             "bnb constraint coefficients must be "
                             "non-negative");
                // available() tests each term against the slack on its
                // own, so a repeated variable would slip past its sum.
                SLPWLO_CHECK(terms_of_var_[var].empty() ||
                                 static_cast<size_t>(
                                     terms_of_var_[var].back().first) != c,
                             "bnb constraint names a variable twice");
                terms_of_var_[var].emplace_back(c, coeff);
            }
        }
        // Only positive-weight variables can improve a maximization and
        // no constraint can force a variable to 1, so everything else is
        // fixed to 0 outright and the branch order covers the rest:
        // weight descending, index ascending on ties.
        for (size_t i = 0; i < weights_.size(); ++i) {
            if (weights_[i] > 0.0) order_.push_back(static_cast<int>(i));
        }
        std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
            return weights_[a] > weights_[b];
        });
        build_exclusion_graph();
    }

    void seed(const std::vector<char>& initial) {
        SLPWLO_CHECK(initial.size() == weights_.size(),
                     "bnb incumbent size mismatch");
        double value = 0.0;
        std::vector<double> slack = slack_;
        for (size_t i = 0; i < initial.size(); ++i) {
            if (!initial[i]) continue;
            value += weights_[i];
            for (const auto& [c, coeff] : terms_of_var_[i]) {
                slack[c] -= coeff;
                SLPWLO_CHECK(slack[c] >= -options_.eps,
                             "bnb incumbent violates a constraint");
            }
        }
        best_ = initial;
        best_value_ = value;
        has_best_ = true;
    }

    BnbResult run() {
        descend(0);
        BnbResult result;
        result.stats.nodes = nodes_;
        result.stats.proven_optimal = !out_of_budget_;
        result.stats.has_incumbent = has_best_;
        if (has_best_) {
            result.assignment = best_;
            result.stats.best_objective = problem_.sense ==
                                                  BnbProblem::Sense::Minimize
                                              ? -best_value_
                                              : best_value_;
        } else {
            result.assignment.assign(weights_.size(), 0);
        }
        return result;
    }

private:
    /// A variable is available while fixing it to 1 keeps every slack
    /// non-negative (within eps).
    bool available(int var) const {
        for (const auto& [c, coeff] : terms_of_var_[var]) {
            if (coeff > slack_[c] + options_.eps) return false;
        }
        return true;
    }

    /// Branch positions k and l exclude each other when some constraint
    /// holding both cannot fit both at 1 even with every other variable
    /// at 0. Coefficients are non-negative, so no leaf sets two adjacent
    /// variables. One bitset row per branch position, over positions.
    void build_exclusion_graph() {
        const size_t n = order_.size();
        words_ = (n + 63) / 64;
        std::vector<int> position(weights_.size(), -1);
        for (size_t k = 0; k < n; ++k) {
            position[static_cast<size_t>(order_[k])] = static_cast<int>(k);
        }
        exclusion_.assign(n * words_, 0);
        for (const BnbConstraint& constraint : problem_.constraints) {
            const auto& terms = constraint.terms;
            for (size_t a = 0; a < terms.size(); ++a) {
                const int k = position[static_cast<size_t>(terms[a].first)];
                if (k < 0) continue;
                for (size_t b = a + 1; b < terms.size(); ++b) {
                    const int l =
                        position[static_cast<size_t>(terms[b].first)];
                    if (l < 0 || l == k) continue;
                    if (terms[a].second + terms[b].second <=
                        constraint.rhs + options_.eps) {
                        continue;
                    }
                    exclusion_[static_cast<size_t>(k) * words_ + l / 64] |=
                        uint64_t{1} << (l % 64);
                    exclusion_[static_cast<size_t>(l) * words_ + k / 64] |=
                        uint64_t{1} << (k % 64);
                }
            }
        }
        cliques_.assign(n * words_, 0);
    }

    /// Optimistic completion value from branch position `depth`: a
    /// greedy weighted clique cover of the still-available free
    /// variables. Walking in branch order (weight descending), each
    /// variable joins the first open clique whose every member excludes
    /// it, or opens a new clique and adds its weight. A leaf sets at most
    /// one variable per clique, and each clique's first member is its
    /// heaviest, so no completion collects more than the bound. Fixing
    /// variables only shrinks slacks, so an unavailable variable stays
    /// out of every leaf below.
    double bound_from(size_t depth) {
        double bound = current_value_;
        size_t open = 0;
        for (size_t k = depth; k < order_.size(); ++k) {
            const int var = order_[k];
            if (!available(var)) continue;
            // cliques_ row c holds the positions adjacent to every member
            // of clique c; only words at or after k are ever read again.
            const size_t word = k / 64;
            const uint64_t bit = uint64_t{1} << (k % 64);
            size_t c = 0;
            while (c < open && (cliques_[c * words_ + word] & bit) == 0) ++c;
            const uint64_t* row = &exclusion_[k * words_];
            uint64_t* clique = &cliques_[c * words_];
            if (c < open) {
                for (size_t w = word; w < words_; ++w) clique[w] &= row[w];
            } else {
                std::copy(row + word, row + words_, clique + word);
                bound += weights_[var];
                ++open;
            }
        }
        return bound;
    }

    /// Counts one value assignment against the budget; returns false
    /// when the search must stop (anytime: the incumbent survives).
    bool spend_node() {
        if (nodes_ >= options_.budget.max_nodes) {
            out_of_budget_ = true;
            return false;
        }
        ++nodes_;
        return true;
    }

    void descend(size_t depth) {
        if (out_of_budget_) return;
        if (depth == order_.size()) {
            if (!has_best_ || current_value_ > best_value_ + options_.eps) {
                best_ = current_;
                best_value_ = current_value_;
                has_best_ = true;
            }
            return;
        }
        if (has_best_ && bound_from(depth) <= best_value_ + options_.eps) {
            return;
        }
        const int var = order_[depth];
        // Favorable branch first: x = 1 (positive weight by
        // construction), so a greedy-shaped incumbent appears early and
        // tight budgets are spent improving it, not finding it.
        if (available(var)) {
            if (!spend_node()) return;
            if (!hooks_.on_fix || hooks_.on_fix(var)) {
                current_[var] = 1;
                current_value_ += weights_[var];
                for (const auto& [c, coeff] : terms_of_var_[var]) {
                    slack_[c] -= coeff;
                }
                descend(depth + 1);
                for (const auto& [c, coeff] : terms_of_var_[var]) {
                    slack_[c] += coeff;
                }
                current_value_ -= weights_[var];
                current_[var] = 0;
                if (hooks_.on_unfix) hooks_.on_unfix(var);
            }
        }
        if (out_of_budget_) return;
        if (!spend_node()) return;
        descend(depth + 1);
    }

    const BnbProblem& problem_;
    const BnbOptions& options_;
    const BnbHooks& hooks_;
    std::vector<double> weights_;

    std::vector<char> current_;
    std::vector<std::vector<std::pair<int, double>>> terms_of_var_;
    std::vector<double> slack_;
    std::vector<int> order_;
    /// Exclusion graph and clique-cover scratch, `words_` words per
    /// branch position (see build_exclusion_graph and bound_from).
    size_t words_ = 0;
    std::vector<uint64_t> exclusion_;
    std::vector<uint64_t> cliques_;
    double current_value_ = 0.0;

    std::vector<char> best_;
    double best_value_ = 0.0;
    bool has_best_ = false;

    long long nodes_ = 0;
    bool out_of_budget_ = false;
};

}  // namespace

BnbResult solve_bnb(const BnbProblem& problem, const BnbOptions& options,
                    const BnbHooks& hooks, const std::vector<char>* initial) {
    std::vector<double> weights = problem.weights;
    if (problem.sense == BnbProblem::Sense::Minimize) {
        for (double& w : weights) w = -w;
    }
    BnbSearch search(problem, options, hooks, std::move(weights));
    if (initial) search.seed(*initial);
    return search.run();
}

}  // namespace slpwlo::solver

// Analytical accuracy evaluator (the paper's [11]-style noise model).
//
// Construction calibrates the kernel's noise gains once (seconds at most)
// and enumerates the kernel's noise *sites* (accuracy/noise_source.hpp);
// each noise_power() call is then O(#static ops), making it cheap enough
// for the candidate/conflict enumeration loops of Fig. 1c and the Tabu
// search of the WLO-First baseline.
//
// open_session() returns an incremental session that caches one (variance,
// mean) contribution per site and tracks the spec's change journal: after a
// single-node move only that node's dependent sites are recomputed, and the
// total is re-summed over the cached contributions in site order — the same
// terms in the same order as the full evaluation, so the returned double is
// bit-identical. An O(n)-op kernel's Tabu iteration drops from O(n^2) noise
// work to O(n). The session is additive: its sites are the terms of
// EvalSession::noise_split / terms_of / term.
#pragma once

#include <cstdint>
#include <memory>

#include "accuracy/evaluator.hpp"
#include "accuracy/gain_analyzer.hpp"
#include "accuracy/noise_source.hpp"

namespace slpwlo {

class AnalyticEvaluator final : public AccuracyEvaluator {
public:
    explicit AnalyticEvaluator(const Kernel& kernel,
                               const GainOptions& options = {});

    /// Construct from pre-computed gains (shared across evaluators).
    AnalyticEvaluator(const Kernel& kernel, KernelGains gains);

    double noise_power(const FixedPointSpec& spec) const override;

    /// Incremental journal-tracking session (see class comment).
    std::unique_ptr<EvalSession> open_session(
        FixedPointSpec& spec) const override;

    const KernelGains& gains() const { return gains_; }

    /// The kernel's noise sites, in summation order.
    const std::vector<NoiseSite>& sites() const { return sites_; }

    /// Indices into sites() of every site whose statistics depend on
    /// `node`'s format.
    const std::vector<uint32_t>& sites_of(NodeRef node) const;

private:
    friend class AnalyticEvalSession;

    const Kernel* kernel_;
    KernelGains gains_;
    std::vector<NodeRef> def_nodes_;
    std::vector<NoiseSite> sites_;
    /// Per-node dependent-site lists: vars first, then arrays.
    std::vector<std::vector<uint32_t>> node_sites_;
};

}  // namespace slpwlo

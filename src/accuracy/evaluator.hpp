// AccuracyEvaluator interface.
//
// The WLO algorithms only ever ask one question of the accuracy machinery:
// "what is the output quantization-noise power of this spec, and does it
// violate the constraint?" (EVALACC in Fig. 1). The paper stresses that its
// WLO is decoupled from any particular accuracy-evaluation method; we mirror
// that with this interface, implemented analytically (AnalyticEvaluator)
// and by bit-accurate simulation (SimulationEvaluator).
//
// Hot loops (Tabu moves, SLP candidate filtering, scaling equalization)
// evaluate thousands of single-node variations of one spec. For those,
// open_session() returns an EvalSession bound to the (mutable) spec being
// optimized: sessions may cache per-site noise contributions and track the
// spec's change journal so each re-evaluation only recomputes what a move
// touched. The contract is strict bit-identity: a session's noise_power()
// returns the exact double the evaluator's full noise_power(spec) would
// return for the spec's current state. The default session simply forwards
// to the full evaluation, so simulation-backed evaluators work unchanged.
//
// Analytic sessions additionally expose the additive form of their noise,
// P = V + M² with V and M sums of per-site terms (noise_split, terms_of,
// term), so a caller can bound the noise of a combination of independent
// changes without evaluating it (core/accuracy_aware_slp's conflict filter,
// core/tabu_wlo's neighbourhood screen).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "fixpoint/spec.hpp"
#include "support/dbmath.hpp"

namespace slpwlo {

/// One noise term of an additive session: what a site adds to V and to M.
struct NoiseTerm {
    double variance = 0.0;
    double mean = 0.0;
};

/// The additive form of an additive session's noise power:
/// noise_power() == variance + mean * mean, bit for bit.
struct NoiseSplit {
    double variance = 0.0;      ///< V: the terms' variances, in term order
    double mean = 0.0;          ///< M: the terms' signed means, in term order
    double abs_variance = 0.0;  ///< sum of |term variance|
    double abs_mean = 0.0;      ///< sum of |term mean|
    size_t terms = 0;           ///< number of terms in each sum
};

/// gamma_k = k u / (1 - k u) with u = 2^-53: the relative error bound of
/// k floating-point additions in sequence (Higham, "Accuracy and
/// Stability of Numerical Algorithms", section 3.1).
inline double rounding_gamma(size_t k) {
    const double ku = static_cast<double>(k) * 0x1p-53;
    return ku / (1.0 - ku);
}

/// Twice the bound on how far a closed-form V + M² and the summed one of
/// the same state may lie apart, when the terms feeding either are
/// bounded by `abs_variance` and `abs_mean` in absolute sum and each sum
/// is at most k roundings deep, `gamma` = rounding_gamma(k) (DESIGN.md
/// §10). A closed-form value clearing a threshold by more than this
/// decides what the summed one would.
inline double split_margin(double gamma, double abs_variance,
                           double abs_mean) {
    return 4.0 * gamma * (abs_variance + 3.0 * abs_mean * abs_mean);
}

/// Noise powers bracketing a dB constraint, guarded by 2^-40 relative on
/// each side and checked with power_to_db itself, so decisions made on
/// powers do not lean on the exactness of pow and log10 (DESIGN.md §10):
/// every power at or above `hi` violates the constraint and none at or
/// below `lo` does. `valid` is false when power_to_db could not confirm
/// that.
struct PowerBracket {
    double hi = 0.0;
    double lo = 0.0;
    bool valid = false;

    explicit PowerBracket(double db) {
        const double power = db_to_power(db);
        hi = power * (1.0 + 0x1p-40);
        lo = power * (1.0 - 0x1p-40);
        valid = power_to_db(hi) > db && !(power_to_db(lo) > db);
    }
};

/// A per-optimization-run evaluation handle bound to one spec.
///
/// Sessions exist so that a *shared, const* evaluator (KernelContext hands
/// one AnalyticEvaluator to every sweep thread) can still keep mutable
/// incremental state per optimization run. The bound spec may be mutated
/// freely between calls — through set_wl, set_format, or checkpoint/revert —
/// and the session resynchronizes from the spec's change journal.
class EvalSession {
public:
    virtual ~EvalSession() = default;

    /// Output noise power (linear) of the bound spec in its current state.
    /// Bit-identical to the owning evaluator's noise_power(spec).
    virtual double noise_power() = 0;

    /// Bracket a revertible probe. Between begin_probe() and end_probe()
    /// the caller may change any nodes of the bound spec (directly or
    /// under nested checkpoints) and query the session, and must restore
    /// the spec to its begin-time state before end_probe(). Incremental
    /// sessions save each cached term a refresh inside the window
    /// overwrites, once per term, and end_probe() copies the saved terms
    /// back and skips the window's journal entries, so the restore costs
    /// a copy instead of a second refresh pass. Windows do not nest. The
    /// default is a no-op (full-recompute sessions have no cache).
    virtual void begin_probe() {}
    virtual void end_probe() {}

    /// Noise power of the spec with `node` moved to word length `wl`, the
    /// spec left unchanged on return. The single-move candidate evaluation
    /// of the Tabu loop; incremental sessions make this O(degree(node)).
    double preview_move(NodeRef node, int wl) {
        FixedPointSpec& spec = this->spec();
        begin_probe();
        const FixedFormat saved = spec.format(node);
        spec.set_wl(node, wl);
        const double power = noise_power();
        spec.set_format(node, saved);
        end_probe();
        return power;
    }

    /// Apply a move to the bound spec (the accepted candidate).
    void commit_move(NodeRef node, int wl) { spec().set_wl(node, wl); }

    double noise_power_db() { return power_to_db(noise_power()); }

    bool violates(double constraint_db) {
        return noise_power_db() > constraint_db;
    }

    /// Additive sessions fill `split` for the bound spec's current state
    /// and return true; the others (simulation) return false, and then
    /// terms_of() is empty and term() must not be called.
    virtual bool noise_split(NoiseSplit* split) {
        (void)split;
        return false;
    }

    /// Ascending indices of the terms whose value depends on `node`'s
    /// format.
    virtual std::span<const uint32_t> terms_of(NodeRef node) {
        (void)node;
        return {};
    }

    /// Term `index` under the bound spec's current state: the exact
    /// doubles noise_split() would sum for it. A pure query; it does not
    /// touch the session's cache.
    virtual NoiseTerm term(uint32_t index) {
        (void)index;
        return {};
    }

    virtual FixedPointSpec& spec() = 0;
};

class AccuracyEvaluator {
public:
    virtual ~AccuracyEvaluator() = default;

    /// Output noise power (linear) of the given fixed-point specification.
    virtual double noise_power(const FixedPointSpec& spec) const = 0;

    /// Noise power in dB (10 log10 P); -inf for an exact spec.
    double noise_power_db(const FixedPointSpec& spec) const {
        return power_to_db(noise_power(spec));
    }

    /// EVALACC check: true if the spec's noise exceeds the constraint.
    /// The constraint is the maximum tolerable noise power in dB (e.g. -40).
    bool violates(const FixedPointSpec& spec, double constraint_db) const {
        return noise_power_db(spec) > constraint_db;
    }

    /// Open an evaluation session bound to `spec` for a hot optimization
    /// loop. The default implementation re-evaluates from scratch on every
    /// call; evaluators with incremental state override this.
    virtual std::unique_ptr<EvalSession> open_session(
        FixedPointSpec& spec) const;
};

}  // namespace slpwlo

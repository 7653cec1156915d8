// Menard-style word-length cost model for the WLO-First baseline.
//
// The baseline's Tabu WLO minimizes an execution-time *proxy*: every
// operation costs its WL-relative instruction share (32-bit = 1, a WL that
// fits a 2x16 SIMD slot = 0.5, a 4x8 slot = 0.25), weighted by execution
// frequency. This encodes the assumption the paper criticizes — that any
// operation narrowed to a SIMD-capable WL will eventually be executed
// N-per-instruction by a later, independent SLP pass, with no knowledge of
// grouping feasibility or packing overhead (Section II.B).
//
// open_session() returns an incremental handle for the Tabu move loop: it
// caches one cost term per weighted op and tracks the spec's change journal,
// so a single-node move recomputes only the ops reading that node's format.
// The total is re-summed over the cached terms in op order — bit-identical
// to cost(). Like an additive EvalSession, the session exposes its terms
// (split, terms_of, term), so the Tabu screen can bound a move's cost
// without summing it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "fixpoint/spec.hpp"
#include "target/target_model.hpp"

namespace slpwlo {

class WlCostModel;

/// The additive form of a cost session's total: cost() == cost, bit for
/// bit.
struct CostSplit {
    double cost = 0.0;      ///< the terms, summed in op order
    double abs_cost = 0.0;  ///< sum of |term|
    size_t terms = 0;       ///< number of terms
};

/// Incremental cost handle bound to one (model, spec) pair. The spec may be
/// mutated freely between cost() calls; the session resynchronizes from the
/// spec's change journal.
class WlCostSession {
public:
    WlCostSession(const WlCostModel& model, FixedPointSpec& spec);

    /// Frequency-weighted cost of the bound spec in its current state;
    /// bit-identical to model.cost(spec).
    double cost();

    /// Cost with `node` moved to word length `wl`: bit-identical to
    /// cost() after set_wl(node, wl), computed without changing the spec.
    double preview_move(NodeRef node, int wl);

    /// Bracket a revertible probe, as EvalSession::begin_probe does:
    /// between begin_probe() and end_probe() the caller may change any
    /// nodes and query, and must restore the spec before end_probe().
    /// Each cached term a refresh inside the window overwrites is saved
    /// once and put back on exit, so the caller's restore costs a copy
    /// instead of a second refresh pass. Windows do not nest.
    void begin_probe();
    void end_probe();

    /// The split of the bound spec's current state.
    CostSplit split();

    /// Ascending indices of the terms (weighted ops) whose value depends
    /// on `node`'s format. A node's terms are its own: no two nodes share
    /// one.
    std::span<const uint32_t> terms_of(NodeRef node) const;

    /// Term `index` under the bound spec's current state: the exact
    /// double split() would sum for it. A pure query.
    double term(uint32_t index) const;

    /// Term `index` with its node at word length `wl`, the rest of the
    /// spec as it is: the double term() returns after set_wl(node, wl).
    double term(uint32_t index, int wl) const;

private:
    void sync();
    void refresh(size_t i);

    const WlCostModel* model_;
    FixedPointSpec* spec_;
    std::vector<double> terms_;
    size_t cursor_ = 0;
    /// Probe window: per term, the epoch of the last window that saved
    /// it; the current window's epoch; the terms it saved.
    std::vector<uint32_t> stamps_;
    uint32_t epoch_ = 0;
    bool in_probe_ = false;
    std::vector<std::pair<uint32_t, double>> saved_;
};

class WlCostModel {
public:
    WlCostModel(const Kernel& kernel, const TargetModel& target);

    /// Frequency-weighted relative execution-time proxy of the spec.
    double cost(const FixedPointSpec& spec) const;

    /// Open an incremental session bound to `spec` (see WlCostSession).
    std::unique_ptr<WlCostSession> open_session(FixedPointSpec& spec) const {
        return std::make_unique<WlCostSession>(*this, spec);
    }

    /// Cost when every node sits at the target's maximum WL (the upper
    /// bound WLO starts from).
    double max_cost() const { return max_cost_; }

private:
    friend class WlCostSession;

    struct WeightedOp {
        NodeRef node;  ///< the node whose format the op's result carries
        OpKind kind;
        double weight;
    };

    /// weight * relative_op_cost(kind, wl) for `op` at word length `wl`,
    /// the factor read from a table at the target's scalar WLs.
    double op_cost(const WeightedOp& op, int wl) const;

    /// Held by value: callers routinely pass `targets::xentium()`-style
    /// temporaries whose lifetime ends with the constructor call.
    TargetModel target_;
    const Kernel* kernel_;
    std::vector<WeightedOp> ops_;
    /// Per-node lists of indices into ops_ whose result format the node
    /// carries: vars first, then arrays.
    std::vector<std::vector<uint32_t>> node_ops_;
    double max_cost_ = 0.0;
    int max_wl_ = 0;
    /// relative_op_cost(kind, wl) at [kind * (max_wl_ + 1) + wl], filled
    /// for the kinds the kernel uses at the WLs `tabled_` marks.
    std::vector<double> unit_cost_;
    std::vector<bool> tabled_;
};

}  // namespace slpwlo

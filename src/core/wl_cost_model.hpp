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
// to cost().
#pragma once

#include <cstdint>
#include <memory>

#include "fixpoint/spec.hpp"
#include "target/target_model.hpp"

namespace slpwlo {

class WlCostModel;

/// Incremental cost handle bound to one (model, spec) pair. The spec may be
/// mutated freely between cost() calls; the session resynchronizes from the
/// spec's change journal.
class WlCostSession {
public:
    WlCostSession(const WlCostModel& model, FixedPointSpec& spec);

    /// Frequency-weighted cost of the bound spec in its current state;
    /// bit-identical to model.cost(spec).
    double cost();

    /// Cost with `node` moved to word length `wl`, the spec left unchanged
    /// on return.
    double preview_move(NodeRef node, int wl);

    /// Bracket a single-node probe: between begin_move(node) and
    /// end_move() the caller may change only `node` and must restore its
    /// begin-time format before end_move(). The node's cost terms are
    /// snapshot on entry and put back on exit, so the caller's restore
    /// costs a copy instead of a second refresh pass.
    void begin_move(NodeRef node);
    void end_move();

private:
    void sync();
    void refresh(size_t i);

    const WlCostModel* model_;
    FixedPointSpec* spec_;
    std::vector<double> terms_;
    std::vector<double> saved_terms_;  ///< begin_move() snapshot scratch
    const std::vector<uint32_t>* move_ops_ = nullptr;
    size_t cursor_ = 0;
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
        OpId op;
        OpKind kind;
        double weight;
    };

    /// Held by value: callers routinely pass `targets::xentium()`-style
    /// temporaries whose lifetime ends with the constructor call.
    TargetModel target_;
    const Kernel* kernel_;
    std::vector<WeightedOp> ops_;
    /// Per-node lists of indices into ops_ whose result format the node
    /// carries: vars first, then arrays.
    std::vector<std::vector<uint32_t>> node_ops_;
    double max_cost_ = 0.0;
};

}  // namespace slpwlo

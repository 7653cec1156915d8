// FixedPointSpec: the fixed-point specification of a kernel.
//
// A *node* is anything that carries a fixed-point format: every scalar
// variable (user variables and expression temporaries — each arithmetic
// operation's result) and every array (storage format of its elements).
// This mirrors the paper's "each data and operation ... called nodes".
//
// Load results are not independent nodes: a load yields exactly the storage
// format of its array (a SIMD vector load cannot re-format lanes), so
// format queries on a load's destination resolve to the array node. All
// definitions of a multiply-assigned user variable share that variable's
// single node, as a C variable has one declared type.
//
// The spec supports nested checkpoints (save/revert/commit) because the
// WLO algorithms of Fig. 1 speculatively apply WL changes, evaluate the
// accuracy, and revert.
#pragma once

#include <string>
#include <vector>

#include "fixpoint/format.hpp"
#include "fixpoint/quantize.hpp"
#include "ir/kernel.hpp"

namespace slpwlo {

/// A format-carrying node: a scalar variable or an array.
struct NodeRef {
    enum class Kind { Var, Array };
    Kind kind = Kind::Var;
    int32_t id = -1;

    static NodeRef of_var(VarId v) { return NodeRef{Kind::Var, v.value}; }
    static NodeRef of_array(ArrayId a) { return NodeRef{Kind::Array, a.value}; }

    bool valid() const { return id >= 0; }
    friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

class FixedPointSpec {
public:
    /// Creates a spec with all formats <iwl=1, fwl=0>; ranges and WLO fill
    /// in real values afterwards.
    explicit FixedPointSpec(const Kernel& kernel);

    const Kernel& kernel() const { return *kernel_; }

    QuantMode quant_mode() const { return quant_mode_; }
    void set_quant_mode(QuantMode mode) { quant_mode_ = mode; }

    // --- format access -------------------------------------------------------
    const FixedFormat& format(NodeRef node) const;
    const FixedFormat& var_format(VarId v) const;
    const FixedFormat& array_format(ArrayId a) const;

    void set_format(NodeRef node, const FixedFormat& format);

    /// Format of the value produced by `op`: its array's format for Load,
    /// the destination variable's node otherwise. Store has no result.
    const FixedFormat& result_format(OpId op) const;

    /// The node that carries the format of `op`'s result (array node for
    /// Load, dest-var node otherwise); for Store, the target array node.
    NodeRef node_of(OpId op) const;

    /// Set the iwl of a node, keeping its fwl.
    void set_iwl(NodeRef node, int iwl);

    /// Set the total word length of a node, keeping its iwl
    /// (fwl := wl - iwl). This is the WLO move.
    void set_wl(NodeRef node, int wl);

    /// All nodes of the kernel (vars that are defined by some op, plus all
    /// arrays), in a deterministic order.
    const std::vector<NodeRef>& nodes() const { return nodes_; }

    // --- change journal --------------------------------------------------------
    // Append-only log of nodes whose format changed (including changes
    // undone by revert, which re-appends every node it restores).
    // Incremental evaluators keep a cursor into the journal and refresh the
    // cached contribution of every node logged since their last sync; a
    // node may appear multiple times, which is safe (refresh is idempotent).
    size_t journal_size() const { return journal_.size(); }
    NodeRef journal_entry(size_t i) const { return journal_[i]; }

    /// Empty the journal and free its storage and the undo log's, once
    /// the spec's optimization is over. Requires no open checkpoint. No
    /// session may still be bound to the spec: its journal cursor would
    /// point past the end. Sessions opened afterwards start from here.
    void release_journal();

    // --- checkpoints -----------------------------------------------------------
    // An undo log: while a checkpoint is open, set_format records each
    // node's previous format. A checkpoint is the log position it opened
    // at; revert replays the log back to that mark, commit just drops the
    // mark (and the log with the outermost one). Both cost O(changes since
    // the checkpoint), not O(nodes).
    /// Opaque checkpoint token; revert/commit must be called in LIFO order.
    using Checkpoint = size_t;

    Checkpoint checkpoint();
    void revert(Checkpoint cp);
    void commit(Checkpoint cp);
    size_t open_checkpoints() const { return marks_.size(); }

    std::string str() const;

private:
    struct Undo {
        NodeRef node;
        FixedFormat previous;
    };

    FixedFormat& slot(NodeRef node);

    const Kernel* kernel_;
    std::vector<FixedFormat> var_formats_;
    std::vector<FixedFormat> array_formats_;
    std::vector<NodeRef> nodes_;
    std::vector<size_t> marks_;  ///< undo-log size at each open checkpoint
    std::vector<Undo> undo_;
    std::vector<NodeRef> journal_;
    QuantMode quant_mode_ = QuantMode::Truncate;
};

}  // namespace slpwlo

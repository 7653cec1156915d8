// PackedView: the working representation of a basic block during iterative
// SLP extraction.
//
// Each view node is either a scalar operation (one lane) or an SIMD group
// formed in an earlier round (2+ lanes). Extraction rounds pair up view
// nodes of equal width — fusing two pairs yields a width-4 group, which is
// the "extension of the groups size beyond 2" rewriting step of the paper
// (Fig. 1a line 11 / Section III.A).
//
// Dependences are maintained at node level (any lane of i depends on any
// lane of j), derived from the block's scalar dependence analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/dependence.hpp"
#include "ir/kernel.hpp"

namespace slpwlo {

/// A selected SIMD group: >= 2 isomorphic scalar ops executed as one
/// instruction, lane order significant (it defines memory adjacency and
/// superword lane matching).
struct SimdGroup {
    std::vector<OpId> lanes;

    int width() const { return static_cast<int>(lanes.size()); }
};

class PackedView {
public:
    PackedView(const Kernel& kernel, BlockId block);

    struct Node {
        std::vector<OpId> lanes;
        /// Program-order anchor (position of the first lane in the block);
        /// used for deterministic ordering.
        int anchor = 0;

        int width() const { return static_cast<int>(lanes.size()); }
    };

    const Kernel& kernel() const { return *kernel_; }
    BlockId block() const { return block_; }

    int size() const { return static_cast<int>(nodes_.size()); }
    const Node& node(int i) const { return nodes_[static_cast<size_t>(i)]; }
    OpKind kind(int i) const;
    int width(int i) const { return node(i).width(); }

    /// Node-level dependence: does node `later` transitively depend on node
    /// `earlier` through any lanes?
    bool depends(int later, int earlier) const {
        return (dep_row(later)[earlier / 64] >> (earlier % 64)) & 1u;
    }

    /// Row `later` of the node dependence matrix, dep_words() 64-bit words
    /// long: bit e % 64 of word e / 64 is depends(later, e).
    const uint64_t* dep_row(int later) const {
        return node_dep_.data() + static_cast<size_t>(later) * dep_words_;
    }
    size_t dep_words() const { return dep_words_; }

    /// True if no dependence connects the two nodes in either direction.
    bool independent(int a, int b) const;

    /// Position of an op within the original block.
    int position_of(OpId op) const;

    /// Defining op of `op`'s argument `arg` within the block, or an invalid
    /// id when the value is live-in to the block.
    OpId def_of_arg(OpId op, int arg) const;

    /// Ops inside the block that read `op`'s destination before it is
    /// redefined (its in-block consumers).
    const std::vector<OpId>& consumers_of(OpId op) const;

    /// True if `op`'s destination is (or may be) read after the block or
    /// after a redefinition — i.e. its value has uses the view cannot see.
    bool has_external_uses(OpId op) const;

    /// Fuse the tuples selected in this round: each tuple (>= 2 distinct
    /// nodes) becomes one node whose lanes are the tuples' lanes in order
    /// — a pair for classic pairwise fusion, k nodes for a run-seeded
    /// k-lane group entering the view in one step. Tuples must be
    /// disjoint; indices refer to the pre-fusion view. Node dependences
    /// are updated incrementally: the matrix is an OR over lane pairs of
    /// the (fixed) scalar closure, so a fused node's row and column are
    /// exactly the union of its sources' — no lane walks, no O(n²·w²)
    /// rebuild per extraction round.
    void fuse(const std::vector<std::vector<int>>& tuples);

    /// Undo fusion of the given nodes: each becomes one width-1 node per
    /// lane again (anchored at the lane's block position). Used to
    /// de-virtualize groups stranded at a width the target cannot
    /// realize. Indices refer to the pre-split view. Dependences update
    /// incrementally: surviving pairs keep their entries, only rows and
    /// columns touching a split-off scalar re-derive from the scalar
    /// closure (the old aggregated entry over-approximates one lane).
    void split_to_scalars(const std::vector<int>& nodes);

    /// All groups formed so far (nodes with width >= 2), in anchor order.
    std::vector<SimdGroup> groups() const;

    /// Full recomputation of the node dependence matrix from the scalar
    /// closure — the reference the incremental fuse/split updates must
    /// reproduce bit for bit. Differential-test hook; the hot path only
    /// pays it once, at construction.
    std::vector<std::vector<bool>> full_node_deps() const;

private:
    bool lanes_depend(const Node& a, const Node& b) const;
    void rebuild_node_deps();

    const Kernel* kernel_;
    BlockId block_;
    BlockDeps deps_;
    std::vector<Node> nodes_;
    /// Row-major bit matrix, dep_words_ words per row: bit j of row i
    /// says node i depends on node j (transitively, via lanes).
    std::vector<uint64_t> node_dep_;
    size_t dep_words_ = 0;

    std::vector<int> position_;                    // op index -> block position
    std::vector<std::array<OpId, 2>> def_of_arg_;  // per position
    std::vector<std::vector<OpId>> consumers_;     // per position
    std::vector<bool> external_use_;               // per position
};

}  // namespace slpwlo

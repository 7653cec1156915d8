#include "slp/packed_view.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

size_t words_for(size_t nodes) { return (nodes + 63) / 64; }

void set_bit(uint64_t* row, size_t j) {
    row[j / 64] |= uint64_t{1} << (j % 64);
}

}  // namespace

PackedView::PackedView(const Kernel& kernel, BlockId block)
    : kernel_(&kernel), block_(block), deps_(kernel, block) {
    const std::vector<OpId>& ops = kernel.block(block).ops;
    const int n = static_cast<int>(ops.size());

    position_.assign(kernel.ops().size(), -1);
    for (int pos = 0; pos < n; ++pos) {
        position_[static_cast<size_t>(ops[pos].index())] = pos;
    }

    // Per-position def-of-arg and consumer lists.
    def_of_arg_.assign(static_cast<size_t>(n), {OpId(), OpId()});
    consumers_.assign(static_cast<size_t>(n), {});
    external_use_.assign(static_cast<size_t>(n), false);

    std::map<VarId, int> last_def;  // var -> defining position
    for (int pos = 0; pos < n; ++pos) {
        const Op& op = kernel.op(ops[pos]);
        for (int a = 0; a < op.num_args(); ++a) {
            const auto it = last_def.find(op.args[a]);
            if (it != last_def.end()) {
                def_of_arg_[static_cast<size_t>(pos)][static_cast<size_t>(a)] =
                    ops[it->second];
                consumers_[static_cast<size_t>(it->second)].push_back(ops[pos]);
            }
        }
        if (op.dest.valid()) last_def[op.dest] = pos;
    }

    // A value escapes the view if its variable is read in another block or
    // is a user variable (loop-carried state, reductions); only the last
    // in-block definition of such a variable is live-out.
    std::vector<bool> read_elsewhere(kernel.vars().size(), false);
    for (const BlockId other : kernel.blocks_in_order()) {
        if (other == block) continue;
        for (const OpId op_id : kernel.block(other).ops) {
            const Op& op = kernel.op(op_id);
            for (int a = 0; a < op.num_args(); ++a) {
                read_elsewhere[static_cast<size_t>(op.args[a].index())] = true;
            }
        }
    }
    for (const auto& [var, pos] : last_def) {
        const bool escapes = !kernel.var(var).is_temp ||
                             read_elsewhere[static_cast<size_t>(var.index())];
        if (escapes) external_use_[static_cast<size_t>(pos)] = true;
    }

    // Initial view: one node per scalar op.
    nodes_.reserve(static_cast<size_t>(n));
    for (int pos = 0; pos < n; ++pos) {
        Node node;
        node.lanes = {ops[pos]};
        node.anchor = pos;
        nodes_.push_back(std::move(node));
    }
    rebuild_node_deps();
}

OpKind PackedView::kind(int i) const {
    return kernel_->op(node(i).lanes.front()).kind;
}

int PackedView::position_of(OpId op) const {
    const int pos = position_[static_cast<size_t>(op.index())];
    SLPWLO_ASSERT(pos >= 0, "op is not part of this block");
    return pos;
}

OpId PackedView::def_of_arg(OpId op, int arg) const {
    return def_of_arg_[static_cast<size_t>(position_of(op))]
                      [static_cast<size_t>(arg)];
}

const std::vector<OpId>& PackedView::consumers_of(OpId op) const {
    return consumers_[static_cast<size_t>(position_of(op))];
}

bool PackedView::has_external_uses(OpId op) const {
    return external_use_[static_cast<size_t>(position_of(op))];
}

bool PackedView::independent(int a, int b) const {
    if (a == b) return false;
    return !depends(a, b) && !depends(b, a);
}

bool PackedView::lanes_depend(const Node& a, const Node& b) const {
    for (const OpId la : a.lanes) {
        for (const OpId lb : b.lanes) {
            if (deps_.depends(position_of(la), position_of(lb))) return true;
        }
    }
    return false;
}

std::vector<std::vector<bool>> PackedView::full_node_deps() const {
    const int n = size();
    std::vector<std::vector<bool>> dep(
        static_cast<size_t>(n),
        std::vector<bool>(static_cast<size_t>(n), false));
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i == j) continue;
            dep[static_cast<size_t>(i)][static_cast<size_t>(j)] =
                lanes_depend(nodes_[static_cast<size_t>(i)],
                             nodes_[static_cast<size_t>(j)]);
        }
    }
    return dep;
}

void PackedView::rebuild_node_deps() {
    const std::vector<std::vector<bool>> full = full_node_deps();
    dep_words_ = words_for(full.size());
    node_dep_.assign(full.size() * dep_words_, 0);
    for (size_t i = 0; i < full.size(); ++i) {
        for (size_t j = 0; j < full.size(); ++j) {
            if (full[i][j]) set_bit(node_dep_.data() + i * dep_words_, j);
        }
    }
}

void PackedView::fuse(const std::vector<std::vector<int>>& tuples) {
    // Each pending node remembers which pre-fusion nodes it absorbs, so
    // the dependence matrix can be folded instead of rebuilt.
    struct Pending {
        Node node;
        std::vector<int> sources;
    };
    std::vector<bool> consumed(nodes_.size(), false);
    std::vector<Pending> next;
    next.reserve(nodes_.size());
    for (const std::vector<int>& tuple : tuples) {
        SLPWLO_ASSERT(tuple.size() >= 2, "fuse tuples need >= 2 nodes");
        Pending fused;
        fused.node.anchor = nodes_[static_cast<size_t>(tuple.front())].anchor;
        for (const int n : tuple) {
            SLPWLO_ASSERT(!consumed[static_cast<size_t>(n)],
                          "fuse tuples must be disjoint");
            consumed[static_cast<size_t>(n)] = true;
            const Node& node = nodes_[static_cast<size_t>(n)];
            fused.node.lanes.insert(fused.node.lanes.end(), node.lanes.begin(),
                                    node.lanes.end());
            fused.node.anchor = std::min(fused.node.anchor, node.anchor);
            fused.sources.push_back(n);
        }
        next.push_back(std::move(fused));
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (!consumed[i]) {
            next.push_back(
                Pending{std::move(nodes_[i]), {static_cast<int>(i)}});
        }
    }
    std::sort(next.begin(), next.end(), [](const Pending& x, const Pending& y) {
        return x.node.anchor < y.node.anchor;
    });

    // Incremental update: node_dep_ is an OR over lane pairs of the fixed
    // scalar closure, so a fused node's row/column is exactly the union
    // of its sources' — fold the old matrix through the index map, no
    // lane walks. (Same-source entries die on the diagonal: whether two
    // fused lanes depended on each other is internal to the group.)
    std::vector<size_t> to_new(nodes_.size(), 0);
    for (size_t I = 0; I < next.size(); ++I) {
        for (const int src : next[I].sources) {
            to_new[static_cast<size_t>(src)] = I;
        }
    }
    const size_t words = words_for(next.size());
    std::vector<uint64_t> dep(next.size() * words, 0);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const uint64_t* row = dep_row(static_cast<int>(i));
        uint64_t* into = dep.data() + to_new[i] * words;
        for (size_t w = 0; w < dep_words_; ++w) {
            for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
                const size_t j = w * 64 + static_cast<size_t>(
                                              std::countr_zero(bits));
                if (to_new[i] != to_new[j]) set_bit(into, to_new[j]);
            }
        }
    }
    node_dep_ = std::move(dep);
    dep_words_ = words;
    nodes_.clear();
    nodes_.reserve(next.size());
    for (Pending& pending : next) nodes_.push_back(std::move(pending.node));
}

void PackedView::split_to_scalars(const std::vector<int>& nodes) {
    if (nodes.empty()) return;
    std::vector<bool> split(nodes_.size(), false);
    for (const int n : nodes) {
        SLPWLO_ASSERT(n >= 0 && n < size(), "split index out of range");
        split[static_cast<size_t>(n)] = true;
    }
    struct Pending {
        Node node;
        size_t source;    // pre-split index
        bool from_split;  // one lane carved out of a split node
    };
    std::vector<Pending> next;
    next.reserve(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (!split[i]) {
            next.push_back(Pending{std::move(nodes_[i]), i, false});
            continue;
        }
        for (const OpId lane : nodes_[i].lanes) {
            Node scalar;
            scalar.lanes = {lane};
            scalar.anchor = position_of(lane);
            next.push_back(Pending{std::move(scalar), i, true});
        }
    }
    std::sort(next.begin(), next.end(), [](const Pending& x, const Pending& y) {
        return x.node.anchor < y.node.anchor;
    });

    // Incremental update: pairs of surviving nodes keep their entries
    // verbatim; only pairs touching a split-off scalar re-derive from the
    // scalar closure (the old aggregated entry over-approximates a single
    // lane, and two lanes of one former group may depend on each other).
    const size_t words = words_for(next.size());
    std::vector<uint64_t> dep(next.size() * words, 0);
    for (size_t I = 0; I < next.size(); ++I) {
        for (size_t J = 0; J < next.size(); ++J) {
            if (I == J) continue;
            const bool d =
                !next[I].from_split && !next[J].from_split
                    ? depends(static_cast<int>(next[I].source),
                              static_cast<int>(next[J].source))
                    : lanes_depend(next[I].node, next[J].node);
            if (d) set_bit(dep.data() + I * words, J);
        }
    }
    node_dep_ = std::move(dep);
    dep_words_ = words;
    nodes_.clear();
    nodes_.reserve(next.size());
    for (Pending& pending : next) nodes_.push_back(std::move(pending.node));
}

std::vector<SimdGroup> PackedView::groups() const {
    std::vector<SimdGroup> out;
    for (const Node& node : nodes_) {
        if (node.width() >= 2) {
            out.push_back(SimdGroup{node.lanes});
        }
    }
    return out;
}

}  // namespace slpwlo

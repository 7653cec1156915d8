#include "core/wl_cost_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

size_t node_slot(const Kernel& kernel, NodeRef node) {
    const size_t id = static_cast<size_t>(node.id);
    return node.kind == NodeRef::Kind::Var ? id : kernel.vars().size() + id;
}

constexpr int kOpKinds = static_cast<int>(OpKind::Neg) + 1;

}  // namespace

WlCostModel::WlCostModel(const Kernel& kernel, const TargetModel& target)
    : target_(target),
      kernel_(&kernel),
      max_wl_(target.max_wl()),
      unit_cost_(static_cast<size_t>(kOpKinds * (max_wl_ + 1))),
      tabled_(static_cast<size_t>(max_wl_ + 1), false) {
    // The word lengths WLO assigns, for the kinds the kernel uses.
    for (const int wl : target.scalar_wls) {
        if (wl >= 0) tabled_[static_cast<size_t>(wl)] = true;
    }
    std::array<bool, kOpKinds> used{};
    for (const Op& op : kernel.ops()) used[static_cast<size_t>(op.kind)] = true;
    for (int kind = 0; kind < kOpKinds; ++kind) {
        if (!used[static_cast<size_t>(kind)]) continue;
        for (const int wl : target.scalar_wls) {
            if (wl < 0) continue;
            unit_cost_[static_cast<size_t>(kind * (max_wl_ + 1) + wl)] =
                target.relative_op_cost(static_cast<OpKind>(kind), wl);
        }
    }
    FixedPointSpec probe(kernel);  // reuse node_of resolution
    node_ops_.resize(kernel.vars().size() + kernel.arrays().size());
    for (const BlockId block : kernel.blocks_in_order()) {
        const double weight =
            static_cast<double>(kernel.block_frequency(block));
        for (const OpId op_id : kernel.block(block).ops) {
            const OpKind kind = kernel.op(op_id).kind;
            if (kind == OpKind::Const || kind == OpKind::Copy) continue;
            const NodeRef node = probe.node_of(op_id);
            node_ops_[node_slot(kernel, node)].push_back(
                static_cast<uint32_t>(ops_.size()));
            ops_.push_back(WeightedOp{node, kind, weight});
            max_cost_ += op_cost(ops_.back(), max_wl_);
        }
    }
}

double WlCostModel::op_cost(const WeightedOp& op, int wl) const {
    if (wl < 0 || wl > max_wl_ || !tabled_[static_cast<size_t>(wl)]) {
        return op.weight * target_.relative_op_cost(op.kind, wl);
    }
    return op.weight *
           unit_cost_[static_cast<size_t>(static_cast<int>(op.kind) *
                                              (max_wl_ + 1) +
                                          wl)];
}

double WlCostModel::cost(const FixedPointSpec& spec) const {
    double total = 0.0;
    for (const WeightedOp& wo : ops_) {
        total += op_cost(wo, spec.format(wo.node).wl());
    }
    return total;
}

WlCostSession::WlCostSession(const WlCostModel& model, FixedPointSpec& spec)
    : model_(&model), spec_(&spec) {
    terms_.resize(model_->ops_.size());
    stamps_.assign(terms_.size(), 0u);
    for (size_t i = 0; i < terms_.size(); ++i) refresh(i);
    cursor_ = spec_->journal_size();
}

void WlCostSession::refresh(size_t i) {
    if (in_probe_ && stamps_[i] != epoch_) {
        stamps_[i] = epoch_;
        saved_.push_back({static_cast<uint32_t>(i), terms_[i]});
    }
    terms_[i] = term(static_cast<uint32_t>(i));
}

double WlCostSession::term(uint32_t index) const {
    const WlCostModel::WeightedOp& wo = model_->ops_[index];
    return term(index, spec_->format(wo.node).wl());
}

double WlCostSession::term(uint32_t index, int wl) const {
    return model_->op_cost(model_->ops_[index], wl);
}

std::span<const uint32_t> WlCostSession::terms_of(NodeRef node) const {
    return model_->node_ops_[node_slot(*model_->kernel_, node)];
}

void WlCostSession::sync() {
    while (cursor_ < spec_->journal_size()) {
        const NodeRef node = spec_->journal_entry(cursor_++);
        for (const uint32_t i : terms_of(node)) refresh(i);
    }
}

double WlCostSession::cost() {
    sync();
    double total = 0.0;
    for (const double term : terms_) total += term;
    return total;
}

CostSplit WlCostSession::split() {
    sync();
    CostSplit s;
    for (const double term : terms_) {
        s.cost += term;
        s.abs_cost += std::fabs(term);
    }
    s.terms = terms_.size();
    return s;
}

void WlCostSession::begin_probe() {
    SLPWLO_ASSERT(!in_probe_, "probe windows do not nest");
    sync();  // save from a cache that is current
    in_probe_ = true;
    // A new epoch unstamps every term; on wrap-around, reset the stamps
    // so none matches the new epoch by accident.
    if (++epoch_ == 0) {
        std::fill(stamps_.begin(), stamps_.end(), 0u);
        epoch_ = 1;
    }
}

void WlCostSession::end_probe() {
    SLPWLO_ASSERT(in_probe_, "end_probe without begin_probe");
    for (const auto& [index, term] : saved_) terms_[index] = term;
    saved_.clear();
    cursor_ = spec_->journal_size();
    in_probe_ = false;
}

double WlCostSession::preview_move(NodeRef node, int wl) {
    // cost() after set_wl(node, wl): the same terms in the same order,
    // the node's own recomputed at `wl`, without touching the spec.
    sync();
    const std::span<const uint32_t> moved = terms_of(node);
    double total = 0.0;
    size_t next = 0;
    for (size_t i = 0; i < terms_.size(); ++i) {
        if (next < moved.size() && moved[next] == i) {
            total += term(static_cast<uint32_t>(i), wl);
            ++next;
        } else {
            total += terms_[i];
        }
    }
    return total;
}

}  // namespace slpwlo

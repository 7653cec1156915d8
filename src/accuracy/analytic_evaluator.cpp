#include "accuracy/analytic_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

size_t node_slot(const Kernel& kernel, NodeRef node) {
    SLPWLO_ASSERT(node.valid(), "invalid node");
    const size_t id = static_cast<size_t>(node.id);
    return node.kind == NodeRef::Kind::Var ? id : kernel.vars().size() + id;
}

}  // namespace

/// Journal-tracking incremental session. Caches each site's gain-weighted
/// contribution terms; noise_power() refreshes the sites dependent on nodes
/// the spec's journal reports as changed, then re-sums the cached terms in
/// site order. The terms and the summation order are exactly those of
/// AnalyticEvaluator::noise_power, so the result is bit-identical.
class AnalyticEvalSession final : public EvalSession {
public:
    AnalyticEvalSession(const AnalyticEvaluator& evaluator,
                        FixedPointSpec& spec)
        : evaluator_(&evaluator), spec_(&spec) {
        contribs_.resize(evaluator_->sites_.size());
        stamps_.assign(contribs_.size(), 0u);
        for (size_t i = 0; i < contribs_.size(); ++i) refresh(i);
        cursor_ = spec_->journal_size();
    }

    double noise_power() override {
        sync();
        // Inactive sites hold +0.0 terms, so the sum needs no branch.
        // Adding +0.0 is bitwise neutral here: the accumulators start at
        // +0.0 and round-to-nearest addition never produces -0.0 from a
        // non-negative-zero left operand, so `x + 0.0` is exactly `x` at
        // every step and the result matches the skip-inactive loop of
        // AnalyticEvaluator::noise_power bit for bit.
        double variance = 0.0;
        double mean = 0.0;
        for (const NoiseTerm& c : contribs_) {
            variance += c.variance;
            mean += c.mean;
        }
        return variance + mean * mean;
    }

    /// The same two sums as noise_power(), in the same order, plus the
    /// absolute-value sums.
    bool noise_split(NoiseSplit* split) override {
        sync();
        NoiseSplit s;
        for (const NoiseTerm& c : contribs_) {
            s.variance += c.variance;
            s.mean += c.mean;
            s.abs_variance += std::fabs(c.variance);
            s.abs_mean += std::fabs(c.mean);
        }
        s.terms = contribs_.size();
        *split = s;
        return true;
    }

    std::span<const uint32_t> terms_of(NodeRef node) override {
        return evaluator_->sites_of(node);
    }

    NoiseTerm term(uint32_t index) override { return compute(index); }

    void begin_probe() override {
        SLPWLO_ASSERT(!in_probe_, "probe windows do not nest");
        sync();  // save from a cache that is current
        in_probe_ = true;
        // A new epoch unstamps every term; on wrap-around, reset the
        // stamps so none matches the new epoch by accident.
        if (++epoch_ == 0) {
            std::fill(stamps_.begin(), stamps_.end(), 0u);
            epoch_ = 1;
        }
    }

    void end_probe() override {
        SLPWLO_ASSERT(in_probe_, "end_probe without begin_probe");
        // The caller restored the spec, so the begin-time terms are
        // current again: putting the saved ones back and skipping the
        // window's journal entries re-establishes the cache bit-exactly
        // without recomputing any site.
        for (const SavedTerm& saved : saved_) {
            contribs_[saved.index] = saved.term;
        }
        saved_.clear();
        cursor_ = spec_->journal_size();
        in_probe_ = false;
    }

    FixedPointSpec& spec() override { return *spec_; }

private:
    void sync() {
        while (cursor_ < spec_->journal_size()) {
            const NodeRef node = spec_->journal_entry(cursor_++);
            for (const uint32_t i : evaluator_->sites_of(node)) refresh(i);
        }
    }

    void refresh(size_t i) {
        if (in_probe_ && stamps_[i] != epoch_) {
            stamps_[i] = epoch_;
            saved_.push_back({static_cast<uint32_t>(i), contribs_[i]});
        }
        contribs_[i] = compute(i);
    }

    /// Site i's gain-weighted terms under the spec's current state; +0.0
    /// terms when the site is inactive.
    NoiseTerm compute(size_t i) const {
        const NoiseSite& site = evaluator_->sites_[i];
        const NoiseStats stats = compute_site_stats(
            site, *evaluator_->kernel_, *spec_, evaluator_->def_nodes_);
        if (!site_active(site, stats)) return {};
        const NodeGains& g =
            site.op.valid()
                ? evaluator_->gains_.op_gains[static_cast<size_t>(
                      site.op.index())]
                : evaluator_->gains_.array_gains[static_cast<size_t>(
                      site.array.index())];
        return {stats.variance * g.a, stats.mean * g.b * site.dc_sign};
    }

    /// A term as it stood when the open probe window first overwrote it.
    struct SavedTerm {
        uint32_t index;
        NoiseTerm term;
    };

    const AnalyticEvaluator* evaluator_;
    FixedPointSpec* spec_;
    std::vector<NoiseTerm> contribs_;
    size_t cursor_ = 0;
    /// Probe window: per term, the epoch of the last window that saved
    /// it; the current window's epoch; the terms it saved.
    std::vector<uint32_t> stamps_;
    uint32_t epoch_ = 0;
    bool in_probe_ = false;
    std::vector<SavedTerm> saved_;
};

AnalyticEvaluator::AnalyticEvaluator(const Kernel& kernel,
                                     const GainOptions& options)
    : AnalyticEvaluator(kernel, analyze_gains(kernel, options)) {}

AnalyticEvaluator::AnalyticEvaluator(const Kernel& kernel, KernelGains gains)
    : kernel_(&kernel),
      gains_(std::move(gains)),
      def_nodes_(compute_var_def_nodes(kernel)),
      sites_(enumerate_noise_sites(kernel, def_nodes_)) {
    SLPWLO_CHECK(gains_.op_gains.size() == kernel.ops().size(),
                 "gains were computed for a different kernel");
    node_sites_.resize(kernel.vars().size() + kernel.arrays().size());
    for (size_t i = 0; i < sites_.size(); ++i) {
        for (const NodeRef dep : sites_[i].deps) {
            if (!dep.valid()) continue;
            std::vector<uint32_t>& list =
                node_sites_[node_slot(kernel, dep)];
            // A site may name the same node twice (e.g. an accumulator's
            // result and operand); one entry is enough.
            if (!list.empty() && list.back() == i) continue;
            list.push_back(static_cast<uint32_t>(i));
        }
    }
}

const std::vector<uint32_t>& AnalyticEvaluator::sites_of(NodeRef node) const {
    return node_sites_[node_slot(*kernel_, node)];
}

double AnalyticEvaluator::noise_power(const FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == kernel_,
                  "spec belongs to a different kernel");
    double variance = 0.0;
    double mean = 0.0;
    for (const NoiseSite& site : sites_) {
        const NoiseStats stats =
            compute_site_stats(site, *kernel_, spec, def_nodes_);
        if (!site_active(site, stats)) continue;
        const NodeGains& g =
            site.op.valid()
                ? gains_.op_gains[static_cast<size_t>(site.op.index())]
                : gains_.array_gains[static_cast<size_t>(site.array.index())];
        variance += stats.variance * g.a;
        mean += stats.mean * g.b * site.dc_sign;
    }
    return variance + mean * mean;
}

std::unique_ptr<EvalSession> AnalyticEvaluator::open_session(
    FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == kernel_,
                  "spec belongs to a different kernel");
    return std::make_unique<AnalyticEvalSession>(*this, spec);
}

}  // namespace slpwlo

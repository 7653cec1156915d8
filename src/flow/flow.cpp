#include "flow/flow.hpp"

#include <cstring>

#include "flow/pass.hpp"
#include "ir/printer.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace slpwlo {

KernelContext::KernelContext(Kernel kernel, const RangeOptions& range,
                             const GainOptions& gains)
    : kernel_(std::move(kernel)),
      range_options_(range),
      gain_options_(gains) {
    // Materialize the kernel's lazy structure caches (block order,
    // enclosing loops) now, while construction is single-threaded: the
    // context is shared across sweep worker threads afterwards, and
    // Kernel's caches are not synchronized.
    kernel_.blocks_in_order();
}

void KernelContext::ensure_ranges() const {
    std::call_once(ranges_once_, [this] {
        ranges_ = analyze_ranges(kernel_, range_options_);
    });
}

void KernelContext::ensure_iwls() const {
    ensure_ranges();
    std::call_once(iwls_once_, [this] {
        spec_template_ = std::make_unique<FixedPointSpec>(
            determine_iwls(kernel_, ranges_));
    });
}

void KernelContext::ensure_evaluator() const {
    std::call_once(evaluator_once_, [this] {
        evaluator_ = std::make_unique<AnalyticEvaluator>(kernel_,
                                                         gain_options_);
    });
}

uint64_t KernelContext::fingerprint() const {
    std::call_once(fingerprint_once_, [this] {
        uint64_t h = hash_name(print_kernel(kernel_));
        // The analytic noise a memo entry stores depends on the gain
        // calibration, so contexts with different GainOptions must not
        // alias.
        auto mix = [&h](uint64_t v) { h = h * 1099511628211ull ^ v; };
        uint64_t delta_bits = 0;
        static_assert(sizeof(delta_bits) == sizeof(gain_options_.delta));
        std::memcpy(&delta_bits, &gain_options_.delta, sizeof(delta_bits));
        mix(delta_bits);
        mix(gain_options_.seed);
        mix(static_cast<uint64_t>(gain_options_.array_samples));
        fingerprint_ = h;
    });
    return fingerprint_;
}

SlpPlanCache& KernelContext::slp_plans(uint64_t target_fp) const {
    std::lock_guard<std::mutex> lock(slp_plans_mutex_);
    std::unique_ptr<SlpPlanCache>& plans = slp_plans_[target_fp];
    if (plans == nullptr) plans = std::make_unique<SlpPlanCache>();
    return *plans;
}

const RangeMap& KernelContext::ranges() const {
    ensure_ranges();
    return ranges_;
}

const AnalyticEvaluator& KernelContext::evaluator() const {
    ensure_evaluator();
    return *evaluator_;
}

FixedPointSpec KernelContext::initial_spec(QuantMode mode) const {
    ensure_iwls();
    FixedPointSpec spec = *spec_template_;
    spec.set_quant_mode(mode);
    return spec;
}

FlowResult run_wlo_slp_flow(const KernelContext& context,
                            const TargetModel& target,
                            const FlowOptions& options) {
    return FlowRegistry::instance().flow("WLO-SLP").run(context, target,
                                                        options);
}

FlowResult run_wlo_first_flow(const KernelContext& context,
                              const TargetModel& target,
                              const FlowOptions& options) {
    return FlowRegistry::instance().flow("WLO-First").run(context, target,
                                                          options);
}

long long float_cycles(const KernelContext& context,
                       const TargetModel& target) {
    return FlowRegistry::instance()
        .flow("Float")
        .run(context, target, FlowOptions{})
        .simd_cycles;
}

}  // namespace slpwlo

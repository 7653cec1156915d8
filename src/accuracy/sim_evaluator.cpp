#include "accuracy/sim_evaluator.hpp"

#include "support/diagnostics.hpp"

namespace slpwlo {

SimulationEvaluator::SimulationEvaluator(const Kernel& kernel, int runs,
                                         uint64_t seed)
    : kernel_(&kernel), tape_(kernel), runs_(runs) {
    SLPWLO_CHECK(runs >= 1, "SimulationEvaluator requires at least one run");
    stimuli_.reserve(static_cast<size_t>(runs));
    ref_outputs_.reserve(static_cast<size_t>(runs));
    for (int run = 0; run < runs; ++run) {
        stimuli_.push_back(
            make_stimulus(kernel, seed + static_cast<uint64_t>(run)));
        ref_outputs_.push_back(run_double(tape_, stimuli_.back()).outputs);
    }
}

double SimulationEvaluator::noise_power(const FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == kernel_,
                  "spec belongs to a different kernel");
    double total = 0.0;
    for (int run = 0; run < runs_; ++run) {
        total += measure_noise_power(tape_, spec,
                                     stimuli_[static_cast<size_t>(run)],
                                     ref_outputs_[static_cast<size_t>(run)]);
    }
    return total / runs_;
}

WalkerEvaluator::WalkerEvaluator(const Kernel& kernel, int runs,
                                 uint64_t seed)
    : sim_(kernel, runs, seed) {}

double WalkerEvaluator::noise_power(const FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == &sim_.kernel(),
                  "spec belongs to a different kernel");
    double total = 0.0;
    const size_t n = static_cast<size_t>(sim_.runs());
    for (size_t run = 0; run < n; ++run) {
        const FixedSimResult fix =
            run_fixed_walker(sim_.kernel(), spec, sim_.stimulus(run));
        const std::vector<double>& ref = sim_.reference(run);
        SLPWLO_ASSERT(ref.size() == fix.outputs.size(),
                      "reference and fixed-point traces differ in length");
        double sum = 0.0;
        for (size_t i = 0; i < ref.size(); ++i) {
            const double e = fix.outputs[i] - ref[i];
            sum += e * e;
        }
        total += ref.empty() ? 0.0 : sum / static_cast<double>(ref.size());
    }
    return total / sim_.runs();
}

}  // namespace slpwlo

// Simulation-based accuracy evaluator.
//
// Measures the output noise power by running the bit-accurate fixed-point
// simulator against the double-precision reference under random stimulus
// (the paper's [9]-style alternative). Orders of magnitude slower than the
// analytical evaluator; used for cross-validation and final verification
// that an optimized spec really meets its constraint.
//
// The stimuli and the spec-independent double reference traces are
// generated once at construction on a compiled SimTape, so noise_power()
// costs one fixed-point tape replay per run instead of stimulus generation
// plus reference + fixed tree-walks. They are the one source of stimuli
// and references for every simulation backend: the walker below and
// exec::CompiledEvaluator read them through the accessors, so all three
// compare against the same traces.
#pragma once

#include "accuracy/evaluator.hpp"
#include "ir/kernel.hpp"
#include "sim/sim_tape.hpp"

namespace slpwlo {

class SimulationEvaluator final : public AccuracyEvaluator {
public:
    explicit SimulationEvaluator(const Kernel& kernel, int runs = 2,
                                 uint64_t seed = 0x5E1F);

    double noise_power(const FixedPointSpec& spec) const override;

    const Kernel& kernel() const { return *kernel_; }
    int runs() const { return runs_; }
    /// Run r's stimulus (seed + r) and its double reference output trace.
    const Stimulus& stimulus(size_t run) const { return stimuli_[run]; }
    const std::vector<double>& reference(size_t run) const {
        return ref_outputs_[run];
    }

private:
    const Kernel* kernel_;
    SimTape tape_;
    /// Per run: the stimulus and its cached double reference output trace.
    std::vector<Stimulus> stimuli_;
    std::vector<std::vector<double>> ref_outputs_;
    int runs_;
};

/// The tree-walker variant of SimulationEvaluator: the same stimuli and
/// double references (it holds one), but each noise_power() runs the
/// recursive walker. Exists as the differential reference of the tape and
/// compiled backends; its results are bit-identical to
/// SimulationEvaluator by the tape/walker contract.
class WalkerEvaluator final : public AccuracyEvaluator {
public:
    explicit WalkerEvaluator(const Kernel& kernel, int runs = 2,
                             uint64_t seed = 0x5E1F);

    double noise_power(const FixedPointSpec& spec) const override;

private:
    SimulationEvaluator sim_;
};

}  // namespace slpwlo

// CompiledEvaluator: the compile-and-execute accuracy backend.
//
// Drop-in sibling of SimulationEvaluator: same constructor contract, and
// it holds one for its stimuli and tape-replayed double reference traces,
// but noise_power(spec) runs the spec's native CompiledKernel over the
// whole stimulus batch instead of interpreting the tape once per run. The
// returned noise power is bit-identical to SimulationEvaluator's: raw
// outputs scale exactly to the simulator's value-domain outputs and the
// MSE accumulates in the same order (DESIGN.md §12 gives the argument).
//
// Compiled objects are cached per format-set fingerprint (a small MRU —
// optimization loops revisit few distinct specs through this evaluator;
// cross-process reuse is the JitCache's job). When no host compiler is
// usable — or a build fails — the evaluator logs one warning per process
// and degrades to the held SimulationEvaluator's tape replay, so a sweep
// never fails and its report bytes never change.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "accuracy/sim_evaluator.hpp"
#include "exec/compiled_kernel.hpp"

namespace slpwlo::exec {

class CompiledEvaluator final : public AccuracyEvaluator {
public:
    explicit CompiledEvaluator(const Kernel& kernel, int runs = 2,
                               uint64_t seed = 0x5E1F);

    double noise_power(const FixedPointSpec& spec) const override;

    /// True once any noise_power() call had to fall back to the SimTape.
    bool degraded() const { return degraded_; }

private:
    const CompiledKernel* obtain(const FixedPointSpec& spec) const;

    /// Stimuli, reference traces and the tape fallback.
    SimulationEvaluator sim_;

    /// MRU cache of compiled objects, keyed by format-set fingerprint.
    mutable std::mutex mutex_;
    mutable std::vector<
        std::pair<uint64_t, std::unique_ptr<CompiledKernel>>>
        cache_;
    mutable bool degraded_ = false;
};

}  // namespace slpwlo::exec

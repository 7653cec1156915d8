// SimTape: a kernel compiled to a flat execution tape.
//
// Compilation walks the loop nest once (sim/walker.hpp), unrolling it into
// a linear sequence of dynamic op instances with every affine index already
// resolved to a concrete element address. Replaying the tape is a single
// branch-predictable loop over a contiguous array — no recursive region
// descent, no loop bookkeeping, no per-instance affine evaluation — which
// is what makes simulation-backed noise evaluation cheap enough for hot
// loops.
//
// Replays are bit-identical to the walker-based run_double/run_fixed: the
// steps execute in the same order with the same arithmetic, injections
// match by the same per-static-op occurrence counters, and range recording
// applies the same hulls. The walker entry points survive as
// run_double_walker/run_fixed_walker so tests (and corpus_differential) can
// diff the two implementations.
#pragma once

#include <cstdint>

#include "fixpoint/spec.hpp"
#include "sim/fixed_sim.hpp"

namespace slpwlo {

/// One dynamic op instance. `op` is the static op (occurrence matching,
/// format lookup); `addr` is the resolved element index for Load/Store.
struct TapeStep {
    OpKind kind = OpKind::Const;
    int32_t op = -1;
    int32_t dest = -1;   ///< destination var (all but Store)
    int32_t arg0 = -1;   ///< operand vars (-1 when unused)
    int32_t arg1 = -1;
    int32_t array = -1;  ///< Load/Store array
    int32_t addr = -1;   ///< Load/Store resolved element address
    double const_value = 0.0;
    bool output = false;  ///< Store to an Output array
};

class SimTape {
public:
    /// Compile `kernel` (one walk of the loop nest).
    explicit SimTape(const Kernel& kernel);

    const Kernel& kernel() const { return *kernel_; }
    const std::vector<TapeStep>& steps() const { return steps_; }
    /// Number of Output-array stores per replay (output trace length).
    size_t output_count() const { return output_count_; }

private:
    const Kernel* kernel_;
    std::vector<TapeStep> steps_;
    size_t output_count_ = 0;
};

/// Tape replays of the two simulators; bit-identical to the walker runs.
DoubleSimResult run_double(const SimTape& tape, const Stimulus& stimulus,
                           const DoubleSimOptions& options = {});
FixedSimResult run_fixed(const SimTape& tape, const FixedPointSpec& spec,
                         const Stimulus& stimulus);

/// Measured noise power against a precomputed reference trace (the cached
/// double replay of the same stimulus) — one fixed-point replay per call.
double measure_noise_power(const SimTape& tape, const FixedPointSpec& spec,
                           const Stimulus& stimulus,
                           const std::vector<double>& ref_outputs);

}  // namespace slpwlo

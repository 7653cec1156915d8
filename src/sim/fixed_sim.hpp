// Bit-accurate fixed-point simulator.
//
// Executes the kernel under a FixedPointSpec, modelling exactly what the
// generated fixed-point C code computes: operand alignment to the result
// FWL before add/sub (the scaling shifts), product quantization after mul,
// saturation to each node's representable range, and storage quantization.
//
// Values are represented as doubles that are exact multiples of 2^-fwl;
// for the word lengths this library targets (<= 32 bits) this is exact.
//
// Used to cross-validate the analytical accuracy model and to verify that
// IWL determination prevents overflow (overflow_count should stay 0).
#pragma once

#include "fixpoint/spec.hpp"
#include "sim/double_sim.hpp"

namespace slpwlo {

struct FixedSimResult {
    /// Values stored to Output arrays, in execution order.
    std::vector<double> outputs;
    /// Number of saturation events across the run.
    long long overflow_count = 0;
};

/// Fixed-point simulation. Compiles the kernel to a SimTape and replays it;
/// callers with many runs over one kernel should compile the tape once and
/// use the run_fixed(SimTape, ...) overload (sim/sim_tape.hpp).
FixedSimResult run_fixed(const Kernel& kernel, const FixedPointSpec& spec,
                         const Stimulus& stimulus);

/// The original recursive-walker implementation, kept as a differential
/// reference for the tape replay (tests, bench/corpus_differential).
FixedSimResult run_fixed_walker(const Kernel& kernel,
                                const FixedPointSpec& spec,
                                const Stimulus& stimulus);

/// Mean squared error between the fixed-point outputs and the double
/// reference outputs for the same stimulus — the measured noise power.
double measure_noise_power(const Kernel& kernel, const FixedPointSpec& spec,
                           const Stimulus& stimulus);

}  // namespace slpwlo

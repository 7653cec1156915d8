// Double-precision reference simulator.
//
// Executes the kernel with real-valued arithmetic. It is the accuracy
// reference against which the fixed-point implementation is compared, the
// engine of the simulation-based dynamic-range analysis, and (through the
// perturbation hooks) of the noise-gain calibration in src/accuracy.
//
// Semantics: all Output/Buffer arrays start zeroed; Input arrays take the
// provided stimulus; Param arrays take their compile-time values. Each
// Store to an Output array appends to the output trace in execution order.
#pragma once

#include <vector>

#include "ir/kernel.hpp"
#include "support/interval.hpp"
#include "support/rng.hpp"

namespace slpwlo {

/// Per-input-array stimulus, indexed by ArrayId (non-input entries ignored).
using Stimulus = std::vector<std::vector<double>>;

/// Uniform random stimulus within each input array's declared range.
Stimulus make_stimulus(const Kernel& kernel, uint64_t seed);

struct DoubleSimOptions {
    /// Record per-variable and per-array value hulls.
    bool record_ranges = false;

    /// Add `delta` to the result of op (or to the stored value, for Store)
    /// at its `occurrence`-th dynamic execution (0-based).
    struct Injection {
        OpId op;
        long long occurrence = 0;
        double delta = 0.0;
    };
    std::vector<Injection> injections;

    /// Add `delta` to one element of an array's initial contents (used to
    /// calibrate input/coefficient quantization gains).
    struct ArrayInjection {
        ArrayId array;
        int element = 0;
        double delta = 0.0;
    };
    std::vector<ArrayInjection> array_injections;
};

struct DoubleSimResult {
    /// Values stored to Output arrays, in execution order.
    std::vector<double> outputs;
    /// Value hulls (only when record_ranges): var_ranges by VarId, array
    /// hulls by ArrayId over all elements including initial contents.
    std::vector<Interval> var_ranges;
    std::vector<Interval> array_ranges;
};

/// Reference simulation. Compiles the kernel to a SimTape and replays it;
/// callers with many runs over one kernel should compile the tape once and
/// use the run_double(SimTape, ...) overload (sim/sim_tape.hpp).
DoubleSimResult run_double(const Kernel& kernel, const Stimulus& stimulus,
                           const DoubleSimOptions& options = {});

/// The original recursive-walker implementation, kept as a differential
/// reference for the tape replay (tests, bench/corpus_differential).
DoubleSimResult run_double_walker(const Kernel& kernel,
                                  const Stimulus& stimulus,
                                  const DoubleSimOptions& options = {});

}  // namespace slpwlo

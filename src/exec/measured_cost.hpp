// MeasuredCostModel: wall-clock timing of the compiled kernel body.
//
// Complements the list-scheduler cycle model with a measured number: the
// emitted fixed-point body (the same artifact CompiledEvaluator executes)
// run under a calibrated harness — warmup batches, an iteration count
// pinned once by calibration and reused for every repetition, and the
// median of k repetitions — reported as nanoseconds per kernel execution.
//
// Measured time is observational: it rides in FlowResult::measured_ns and
// result rows next to per-slot micros, and like them it is excluded from
// every identity fingerprint and from default report bytes.
//
// Without a usable host compiler measure_kernel_ns returns 0 (a measuring
// sweep leaves measured_ns at 0 and nothing else changes).
#pragma once

#include <cstdint>

#include "fixpoint/spec.hpp"

namespace slpwlo::exec {

struct MeasureOptions {
    int warmup = 2;      ///< un-timed warmup batch invocations
    int reps = 5;        ///< timed repetitions; the median is reported
    int batch = 32;      ///< stimuli per batch invocation
    /// Batch invocations per repetition. 0 calibrates once (targeting
    /// ~calibrate_ns per repetition) and pins the result for all reps.
    long long iters = 0;
    long long calibrate_ns = 2000000;
    uint64_t seed = 0x5E1F;  ///< stimulus stream (matches the evaluators)
};

/// Median wall time of one kernel execution, in nanoseconds; 0 when the
/// compiled backend is unavailable.
long long measure_kernel_ns(const Kernel& kernel, const FixedPointSpec& spec,
                            const MeasureOptions& options = {});

}  // namespace slpwlo::exec

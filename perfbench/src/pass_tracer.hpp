// PassTracer: per-pass busy time and call counts, measured from outside
// the library.
//
// Constructing a PassTracer wraps every pass of every FlowRegistry
// pipeline in a timing decorator and re-registers each pipeline with
// FlowRegistry::add under its own name; destruction registers the
// originals back. The decorator forwards name() unchanged, so stage-memo
// skipping (which matches pass names) and every report byte stay exactly
// as they are untraced — the benchmark checks that on each workload.
//
// FlowRegistry::add must not race with a running sweep: construct and
// destroy the tracer only while no sweep (and no farm worker) runs.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flow/pass.hpp"

namespace perfbench {

/// A pass the benchmark reports: its registry name and the metric label,
/// "<src module>.<pass name>".
struct TracedPass {
    std::string pass;
    std::string label;
};

/// The reported passes, in report order.
const std::vector<TracedPass>& traced_passes();

struct PassTotals {
    double busy_s = 0.0;  ///< summed over threads
    long long calls = 0;
};

class PassTracer {
public:
    PassTracer();
    ~PassTracer();

    PassTracer(const PassTracer&) = delete;
    PassTracer& operator=(const PassTracer&) = delete;

    /// Zero every counter (between sweeps only).
    void reset();

    /// Totals since the last reset, by pass name.
    std::map<std::string, PassTotals> totals() const;

    struct Counter {
        std::atomic<long long> nanos{0};
        std::atomic<long long> calls{0};
    };

private:
    /// One counter per pass name, created before any sweep runs; the map
    /// itself is never modified while decorators hold pointers into it.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::vector<slpwlo::FlowPipeline> originals_;
};

}  // namespace perfbench

// Compiled-backend gate: the emit->compile->execute noise evaluator
// (CompiledEvaluator, src/exec) against the tape-backed
// SimulationEvaluator on the same stimuli.
//
// Gated on bit-identical noise powers across a spread of specs, so a
// speedup can never come from computing something different. The timing
// is skipped (reported as available:false) when the host has no usable
// C compiler; the evaluator then falls back to the tape. Sweep-level
// timings are perfbench's job (perfbench/README.md).
//
// Emits a JSON report (--json / --json=FILE) with one `compiled` object.
// Exits non-zero when the compiled and tape noise powers diverge.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "accuracy/sim_evaluator.hpp"
#include "bench_util.hpp"
#include "exec/compiled_evaluator.hpp"

namespace {

using namespace slpwlo;

bool bits_equal(double a, double b) {
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

struct CompiledReport {
    long long evals = 0;
    double tape_evals_per_sec = 0.0;
    double compiled_evals_per_sec = 0.0;
    double speedup = 0.0;
    bool bit_identical = true;
    bool available = true;  ///< host toolchain usable; timing skipped if not
};

CompiledReport bench_compiled_evals(const Kernel& kernel, long long evals) {
    CompiledReport report;
    report.evals = evals;

    const SimulationEvaluator tape_eval(kernel);
    const exec::CompiledEvaluator compiled_eval(kernel);

    // A spread of specs: four uniform precisions plus a ragged one, so
    // the gate covers distinct emitted bodies (and the evaluator's MRU).
    std::vector<FixedPointSpec> specs;
    for (const int wl : {8, 10, 12, 14}) {
        FixedPointSpec spec(kernel);
        for (const NodeRef node : spec.nodes()) spec.set_wl(node, wl);
        specs.push_back(std::move(spec));
    }
    {
        FixedPointSpec ragged(kernel);
        int wl = 8;
        for (const NodeRef node : ragged.nodes()) {
            ragged.set_wl(node, wl);
            wl = wl == 16 ? 8 : wl + 1;
        }
        specs.push_back(std::move(ragged));
    }

    // Divergence gate (doubles as the compile warm-up): every spec's
    // compiled noise power must be bit-equal to the tape's.
    for (const FixedPointSpec& spec : specs) {
        const double tape_np = tape_eval.noise_power(spec);
        const double compiled_np = compiled_eval.noise_power(spec);
        if (!bits_equal(tape_np, compiled_np)) report.bit_identical = false;
    }
    if (compiled_eval.degraded()) {
        // No usable host compiler: the evaluator already fell back to the
        // tape (which is why the gate still passed) — nothing to time.
        report.available = false;
        report.speedup = 1.0;
        return report;
    }

    const auto time_leg = [&](const AccuracyEvaluator& evaluator,
                              long long count) {
        double sink = 0.0;
        const auto start = std::chrono::steady_clock::now();
        for (long long i = 0; i < count; ++i) {
            sink += evaluator.noise_power(
                specs[static_cast<size_t>(i) % specs.size()]);
        }
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        if (sink == 0.12345) std::printf("unlikely\n");
        return static_cast<double>(count) / elapsed;
    };

    report.tape_evals_per_sec = time_leg(tape_eval, evals);
    // The compiled leg is orders of magnitude faster; run it longer so
    // the clock resolution cannot dominate the rate.
    report.compiled_evals_per_sec = time_leg(compiled_eval, evals * 20);
    report.speedup =
        report.compiled_evals_per_sec / report.tape_evals_per_sec;
    return report;
}

std::string report_json(const CompiledReport& compiled) {
    std::ostringstream os;
    os << "{\"compiled\":{\"evals\":" << compiled.evals
       << ",\"tape_evals_per_sec\":"
       << json_number(compiled.tape_evals_per_sec)
       << ",\"compiled_evals_per_sec\":"
       << json_number(compiled.compiled_evals_per_sec)
       << ",\"speedup\":" << json_number(compiled.speedup)
       << ",\"bit_identical\":"
       << (compiled.bit_identical ? "true" : "false")
       << ",\"available\":" << (compiled.available ? "true" : "false")
       << "}}\n";
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace slpwlo;
    namespace bench = slpwlo::bench;

    bench::BenchArgSpec spec;
    spec.threads = false;
    spec.smoke = true;
    const bench::BenchOptions options =
        bench::parse_bench_args(argc, argv, spec);

    bench::print_header("perf_hotpaths: compiled noise evaluation",
                        "compiled simulation backend (no paper figure)");

    const long long noise_evals = options.smoke ? 200 : 2000;
    const kernels::BenchmarkKernel fir = kernels::make_benchmark_kernel("FIR");

    const CompiledReport compiled =
        bench_compiled_evals(fir.kernel, noise_evals);
    std::printf("\ncompiled noise evaluation (%lld evals, FIR)\n",
                compiled.evals);
    if (compiled.available) {
        std::printf("  tape evaluator : %12.1f evals/sec\n",
                    compiled.tape_evals_per_sec);
        std::printf("  compiled       : %12.1f evals/sec\n",
                    compiled.compiled_evals_per_sec);
        std::printf("  speedup        : %12.2fx   bit-identical: %s\n",
                    compiled.speedup,
                    compiled.bit_identical ? "yes" : "NO");
    } else {
        std::printf("  no usable host compiler — degraded to the tape "
                    "(bit-identical: %s), timing skipped\n",
                    compiled.bit_identical ? "yes" : "NO");
    }

    if (options.json_path.has_value()) {
        bench::emit_json_to(*options.json_path, report_json(compiled), 1);
    }

    if (!compiled.bit_identical) {
        std::printf("\nFAIL: compiled and tape noise powers diverge\n");
        return 1;
    }
    std::printf("\ncompiled/tape bit-identity check passed\n");
    return 0;
}

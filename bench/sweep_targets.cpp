// Cross-ISA design-space sweep: kernels x TargetRegistry models x SIMD
// datapath widths, on the SweepDriver. Each base ISA (paper VLIWs plus
// the shipped NEON128/SSE128/DSP64 description presets, plus any model
// loaded from a description file on the command line) spawns derived
// width variants via TargetModel::with_simd_width, and every point runs
// with a per-point TargetModel override memoized by content fingerprint.
//
// The grid runs twice — 1 worker thread, then N — and the harness fails
// unless the results are bit-identical.
//
//   $ ./sweep_targets [--threads N] [--smoke] [--target-file FILE]...
//                     [--kernel-file FILE]... [--json[=FILE]]
//
// --target-file loads and registers a textual target description (see
// targets/*.target for the format) and adds it to the ISA axis;
// --kernel-file does the same on the kernel axis with a `.slp` DSL file
// (kernels/*.slp for examples); --smoke shrinks the grid to one kernel
// and one constraint for CI.
#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "frontend/kernel_file.hpp"
#include "target/target_desc.hpp"
#include "target/target_registry.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

namespace {

bool identical(const std::vector<SweepResult>& a,
               const std::vector<SweepResult>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const FlowResult& x = a[i].flow;
        const FlowResult& y = b[i].flow;
        if (x.scalar_cycles != y.scalar_cycles ||
            x.simd_cycles != y.simd_cycles ||
            x.group_count != y.group_count ||
            x.target_fp != y.target_fp ||
            x.analytic_noise_db != y.analytic_noise_db) {
            return false;
        }
        for (const NodeRef node : x.spec.nodes()) {
            if (!(x.spec.format(node) == y.spec.format(node))) return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    print_header("Cross-ISA target sweep — registry x SIMD widths",
                 "TargetRegistry infrastructure (no paper figure)");

    BenchArgSpec spec;
    spec.smoke = true;
    spec.target_files = true;
    spec.kernel_files = true;
    const BenchOptions args = parse_bench_args(argc, argv, spec);
    const int parallel_threads = args.threads;
    const bool smoke = args.smoke;
    const std::vector<std::string>& target_files = args.target_files;

    // The ISA axis: two paper VLIWs, the three shipped presets, and any
    // description files from the command line (registered so they resolve
    // like every other target).
    std::vector<std::string> isas{"XENTIUM", "ST240", "NEON128", "SSE128",
                                  "DSP64"};
    const auto same_target = [](const std::string& a, const std::string& b) {
        return a.size() == b.size() &&
               std::equal(a.begin(), a.end(), b.begin(),
                          [](unsigned char x, unsigned char y) {
                              return std::toupper(x) == std::toupper(y);
                          });
    };
    for (const std::string& path : target_files) {
        const TargetModel model = load_target_description(path);
        TargetRegistry::instance().add(model);
        std::printf("loaded `%s` from %s (%d-bit SIMD)\n", model.name.c_str(),
                    path.c_str(), model.simd_width_bits);
        // Dedupe like the registry resolves: case-insensitively (a file
        // that redefines a built-in replaces it, it must not double the
        // axis).
        const bool listed =
            std::any_of(isas.begin(), isas.end(),
                        [&](const std::string& isa) {
                            return same_target(isa, model.name);
                        });
        if (!listed) isas.push_back(model.name);
    }

    std::vector<std::string> kernels =
        smoke ? std::vector<std::string>{"FIR"}
              : std::vector<std::string>{"FIR", "DOT"};
    // File-based kernels join the axis exactly like --target-file models
    // join the ISA axis (and like corpus directories, sorted by filename).
    for (const std::string& path : args.kernel_files) {
        kernels.push_back(frontend::register_kernel_file(path));
        std::printf("loaded kernel `%s` from %s\n", kernels.back().c_str(),
                    path.c_str());
    }
    for (const std::string& dir : args.corpus_dirs) {
        for (std::string& name : frontend::load_kernel_corpus(dir)) {
            std::printf("loaded kernel `%s` from corpus %s\n", name.c_str(),
                        dir.c_str());
            kernels.push_back(std::move(name));
        }
    }
    const std::vector<double> constraints =
        smoke ? std::vector<double>{-30.0} : accuracy_grid(-20.0, -60.0, 10.0);
    const std::vector<int> width_menu{0, 32, 64, 128};

    // Derive each ISA's width variants: width 0 is the model as shipped;
    // a positive width must be reachable from the ISA's element set and
    // different from its native datapath (that variant would only rename
    // the shipped model). Log what the menu drops so the table's coverage
    // is explicit.
    std::vector<SweepPoint> points;
    for (const std::string& isa : isas) {
        const TargetModel base = targets::by_name(isa);
        std::vector<int> widths;
        for (const int w : width_menu) {
            if (w == base.simd_width_bits) continue;
            if (!base.can_derive_simd_width(w)) {
                std::printf("  (skipping %s @ %d bits: no element width "
                            "fits)\n",
                            isa.c_str(), w);
                continue;
            }
            widths.push_back(w);
        }
        const std::vector<SweepPoint> slice =
            SweepDriver::grid(kernels, {isa}, widths, {"WLO-SLP"},
                              constraints);
        points.insert(points.end(), slice.begin(), slice.end());
    }
    std::printf("\ngrid: %zu points (%zu kernels x %zu ISAs x widths x %zu "
                "constraints)\n\n",
                points.size(), kernels.size(), isas.size(),
                constraints.size());

    ExecOptions serial_options;
    serial_options.threads = 1;
    SweepDriver serial(serial_options);
    const std::vector<SweepResult> serial_results = serial.run(points);

    ExecOptions parallel_options;
    parallel_options.threads = parallel_threads;
    SweepDriver parallel(parallel_options);
    const std::vector<SweepResult> parallel_results = parallel.run(points);

    // One row per target variant at the strictest constraint: how the
    // equation-1 trade-off moves with the datapath width.
    const double strictest =
        *std::min_element(constraints.begin(), constraints.end());
    std::printf("%-16s %6s %10s %12s %12s %8s %8s\n", "target", "simd",
                "A(dB)", "scalar-cyc", "simd-cyc", "speedup", "groups");
    for (const SweepResult& r : parallel_results) {
        if (r.point.kernel != kernels.front()) continue;
        if (r.flow.accuracy_db != strictest) continue;
        const TargetModel& model = *r.point.target_model;
        std::printf("%-16s %6d %10.0f %12lld %12lld %8.2f %8d\n",
                    model.name.c_str(), model.simd_width_bits,
                    r.flow.accuracy_db, r.flow.scalar_cycles,
                    r.flow.simd_cycles,
                    speedup(r.flow.scalar_cycles, r.flow.simd_cycles),
                    r.flow.group_count);
    }

    const SweepCacheStats stats = parallel.cache_stats();
    std::printf("\neval cache: %zu entries, %zu hits / %zu misses\n",
                stats.eval_entries, stats.eval_hits, stats.eval_misses);
    const bool ok = identical(serial_results, parallel_results);
    std::printf("results identical (1 vs %d threads): %s\n", parallel_threads,
                ok ? "yes" : "NO");

    // Pair-seeding cliff guard: a swept model with no 2-lane
    // configuration used to degrade to scalar code silently. Run seeding
    // + virtual-width fusion fixed that; fail loudly if such a model
    // (whose smallest configuration the 4-lane-unrolled kernels can
    // actually fill) ever stops forming groups again.
    std::map<std::string, int> cliff_widest;
    for (const SweepResult& r : parallel_results) {
        const TargetModel& model = r.point.target_model.has_value()
                                       ? *r.point.target_model
                                       : targets::by_name(r.point.target);
        // Cliff shape only: SIMD present (min 1 means none), no 2-lane
        // configuration, and a smallest configuration the 4-lane-unrolled
        // kernels can fill.
        const int min_k = model.min_group_size();
        if (min_k <= 2 || min_k > 4) continue;
        int& widest = cliff_widest[model.name];
        for (const BlockGroups& bg : r.flow.groups) {
            for (const SimdGroup& g : bg.groups) {
                widest = std::max(widest, g.width());
            }
        }
    }
    bool cliff_ok = true;
    for (const auto& [name, widest] : cliff_widest) {
        if (widest < 4) {
            cliff_ok = false;
            std::printf("CLIFF REGRESSION: %s has no 2-lane configuration "
                        "and formed no >= 4-lane group at any point\n",
                        name.c_str());
        }
    }
    if (!cliff_widest.empty() && cliff_ok) {
        std::printf("cliff targets seeded >= 4-lane groups:");
        for (const auto& [name, widest] : cliff_widest) {
            std::printf(" %s(%d)", name.c_str(), widest);
        }
        std::printf("\n");
    }

    if (args.json_path.has_value()) {
        emit_json_to(*args.json_path, sweep_to_json(parallel_results, stats),
                     parallel_results.size());
    }
    return ok && cliff_ok ? 0 : 1;
}

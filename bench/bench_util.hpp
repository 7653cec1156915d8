// Shared helpers for the experiment harnesses.
//
// Every bench is a sweep through the SweepDriver (flow/sweep.hpp): one
// process-wide driver shares the per-kernel contexts (range analysis,
// IWLs, gain calibration) and the evaluation memo cache across all grids
// a harness runs. Pass `--json` (stdout) or `--json=FILE` to any harness
// to emit the machine-readable results after the tables.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "flow/report.hpp"
#include "flow/sweep.hpp"
#include "kernels/kernels.hpp"

namespace slpwlo::bench {

// --- command-line parsing ------------------------------------------------------
// One parser for the flags every sweep harness shares (--threads, --smoke,
// --target-file, --json[=FILE]) plus harness-specific extras. Unknown
// flags are a hard error: a typo like --smok must abort the run, not
// silently sweep the full grid.

/// A harness-specific flag. `apply` receives the flag's value (or "" for
/// boolean flags).
struct BenchFlag {
    const char* name;        ///< e.g. "--shards"
    bool takes_value;
    const char* help;        ///< e.g. "N  number of shards (default 4)"
    std::function<void(const std::string&)> apply;
};

struct BenchOptions {
    int threads = 4;
    bool smoke = false;
    std::vector<std::string> target_files;
    /// `.slp` files given via --kernel-file (harnesses register these
    /// through frontend/kernel_file.hpp and may add them to kernel axes).
    std::vector<std::string> kernel_files;
    /// Directories given via --corpus (every *.slp inside, sorted).
    std::vector<std::string> corpus_dirs;
    /// Set when --json was given; "-" means stdout.
    std::optional<std::string> json_path;
};

/// Which of the shared flags a harness accepts (rejected flags error out
/// like unknown ones, instead of being accepted and silently ignored).
struct BenchArgSpec {
    bool threads = true;
    bool smoke = false;
    bool target_files = false;
    bool kernel_files = false;
    bool json = true;
    std::vector<BenchFlag> extra;
};

inline BenchOptions parse_bench_args(int argc, char** argv,
                                     const BenchArgSpec& spec = {}) {
    const auto usage = [&](FILE* out) {
        std::fprintf(out, "usage: %s", argc > 0 ? argv[0] : "bench");
        if (spec.threads) std::fprintf(out, " [--threads N]");
        if (spec.smoke) std::fprintf(out, " [--smoke]");
        if (spec.target_files) std::fprintf(out, " [--target-file FILE]...");
        if (spec.kernel_files) {
            std::fprintf(out, " [--kernel-file FILE]... [--corpus DIR]...");
        }
        if (spec.json) std::fprintf(out, " [--json[=FILE]]");
        for (const BenchFlag& flag : spec.extra) {
            std::fprintf(out, " [%s%s]", flag.name,
                         flag.takes_value ? " ..." : "");
        }
        std::fprintf(out, "\n");
        for (const BenchFlag& flag : spec.extra) {
            std::fprintf(out, "  %s %s\n", flag.name, flag.help);
        }
    };
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                usage(stderr);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (spec.threads && arg == "--threads") {
            options.threads = std::atoi(value().c_str());
        } else if (spec.smoke && arg == "--smoke") {
            options.smoke = true;
        } else if (spec.target_files && arg == "--target-file") {
            options.target_files.push_back(value());
        } else if (spec.kernel_files && arg == "--kernel-file") {
            options.kernel_files.push_back(value());
        } else if (spec.kernel_files && arg == "--corpus") {
            options.corpus_dirs.push_back(value());
        } else if (spec.json && arg == "--json") {
            options.json_path = std::string("-");  // gcc 12 -Wrestrict
        } else if (spec.json && arg.rfind("--json=", 0) == 0) {
            options.json_path = arg.substr(7);
        } else {
            bool matched = false;
            for (const BenchFlag& flag : spec.extra) {
                if (arg == flag.name) {
                    flag.apply(flag.takes_value ? value() : std::string());
                    matched = true;
                    break;
                }
            }
            if (!matched) {
                std::fprintf(stderr, "unknown flag `%s`\n", arg.c_str());
                usage(stderr);
                std::exit(2);
            }
        }
    }
    return options;
}

/// Process-wide sweep driver: kernel contexts and the evaluation cache are
/// shared across every sweep a harness runs.
inline SweepDriver& driver() {
    static SweepDriver instance;
    return instance;
}

/// Per-kernel context cache: range analysis + IWLs + gain calibration are
/// paid once per kernel across the whole harness.
inline const KernelContext& context_for(const std::string& kernel_name) {
    return driver().context(kernel_name);
}

/// The paper's x-axis: accuracy constraints in dB, loose to strict.
inline std::vector<double> constraint_grid(double from = -5.0,
                                           double to = -70.0,
                                           double step = 5.0) {
    return accuracy_grid(from, to, step);
}

inline void print_header(const char* title, const char* paper_ref) {
    std::printf("==========================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("==========================================================\n");
}

/// Write `json` to `path` ("-" = stdout); exits on I/O failure.
inline void emit_json_to(const std::string& path, const std::string& json,
                         size_t result_count) {
    if (path == "-") {
        std::fputs(json.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    out << json;
    out.flush();
    if (out.good()) {
        std::printf("wrote %zu results to %s\n", result_count, path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
}

/// Emit `results` when --json was parsed into `options`. With `stats`,
/// emits the full report object ({"results":[...],"eval_cache":{...}});
/// without, the plain results array.
inline void maybe_emit_json(const BenchOptions& options,
                            const std::vector<SweepResult>& results,
                            const SweepCacheStats* stats = nullptr) {
    if (!options.json_path.has_value()) return;
    const std::string json = stats != nullptr
                                 ? sweep_to_json(results, *stats)
                                 : sweep_to_json(results);
    emit_json_to(*options.json_path, json, results.size());
}

/// Emit `results` as JSON when `--json` / `--json=FILE` is on the command
/// line ("-" writes to stdout).
inline void maybe_emit_json(int argc, char** argv,
                            const std::vector<SweepResult>& results) {
    for (int i = 1; i < argc; ++i) {
        std::string path;
        if (std::strcmp(argv[i], "--json") == 0) {
            path = "-";
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            path = argv[i] + 7;
        } else {
            continue;
        }
        emit_json_to(path, sweep_to_json(results), results.size());
        return;
    }
}

}  // namespace slpwlo::bench

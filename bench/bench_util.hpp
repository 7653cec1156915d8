// Shared helpers for the experiment harnesses: one flag parser, report
// headers and JSON emission. Pass `--json` (stdout) or `--json=FILE` to any
// harness to emit the machine-readable results after the tables.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
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
        std::fprintf(out, " [--json[=FILE]]");
        for (const BenchFlag& flag : spec.extra) {
            std::fprintf(out, " [%s%s]", flag.name,
                         flag.takes_value ? " ..." : "");
        }
        std::fprintf(out, "\n");
        for (const BenchFlag& flag : spec.extra) {
            std::fprintf(out, "  %s %s\n", flag.name, flag.help);
        }
    };
    const auto fail = [&](const std::string& message) {
        std::fprintf(stderr, "%s\n", message.c_str());
        usage(stderr);
        std::exit(2);
    };
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) fail(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        } else if (spec.threads && arg == "--threads") {
            // A plain decimal integer >= 1: atoi would read `abc` as 0,
            // which SweepDriver takes for "all cores".
            const std::string text = value();
            const char* end = text.data() + text.size();
            const auto [stop, error] =
                std::from_chars(text.data(), end, options.threads);
            if (error != std::errc() || stop != end || options.threads < 1) {
                fail("--threads needs an integer >= 1, got `" + text + "`");
            }
        } else if (spec.smoke && arg == "--smoke") {
            options.smoke = true;
        } else if (spec.target_files && arg == "--target-file") {
            options.target_files.push_back(value());
        } else if (spec.kernel_files && arg == "--kernel-file") {
            options.kernel_files.push_back(value());
        } else if (spec.kernel_files && arg == "--corpus") {
            options.corpus_dirs.push_back(value());
        } else if (arg == "--json") {
            options.json_path = std::string("-");  // gcc 12 -Wrestrict
        } else if (arg.rfind("--json=", 0) == 0) {
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
            if (!matched) fail("unknown flag `" + arg + "`");
        }
    }
    return options;
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

}  // namespace slpwlo::bench

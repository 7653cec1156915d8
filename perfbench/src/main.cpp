// perfbench: the repository benchmark, one workload per process.
//
//   perfbench --workload paper|corpus|exact|farm --seed N --seconds S
//             --trace 0|1
//
// Prints progress and diagnostics on stderr and, as the last stdout line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See perfbench/README.md for the metric glossary.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper|corpus|exact|farm --seed N --seconds S --trace 0|1\n",
                 problem.c_str());
    std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                args.trace = value == "1";
            } else {
                usage("unknown flag `" + flag + "`");
            }
        } catch (const std::logic_error&) {
            usage("bad value `" + value + "` for " + flag);
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    if (!(args.seconds > 0)) usage("--seconds must be positive");
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    const perfbench::Args args = parse_args(argc, argv);
    perfbench::Result result(args.trace);
    try {
        if (args.workload == "paper") {
            perfbench::run_paper(args, result);
        } else if (args.workload == "corpus") {
            perfbench::run_corpus(args, result);
        } else if (args.workload == "exact") {
            perfbench::run_exact(args, result);
        } else if (args.workload == "farm") {
            perfbench::run_farm(args, result);
        } else {
            usage("unknown workload `" + args.workload + "`");
        }
        const std::string line = result.json();
        std::printf("%s\n", line.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}

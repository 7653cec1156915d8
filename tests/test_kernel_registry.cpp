// Tests for the KernelRegistry: built-in parity with the direct builders,
// name resolution, idempotent/conflicting registration (including the
// source-bytes registration memo and concurrent registration), and the
// name-free content fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "dist/shard_plan.hpp"
#include "frontend/kernel_file.hpp"
#include "ir/printer.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/kernels.hpp"
#include "support/diagnostics.hpp"
#include "flow/sweep.hpp"
#include "target/target_model.hpp"

namespace slpwlo {
namespace {

TEST(KernelRegistry, BuiltinsMatchDirectBuilders) {
    // The registry wrapper must hand out exactly what the builders make —
    // same printed IR, same range method — so every pinned sweep
    // fingerprint survives the refactor bit for bit.
    const auto expect_same = [](const std::string& name, const Kernel& direct,
                                RangeMethod method) {
        const kernels::BenchmarkKernel bench =
            kernels::make_benchmark_kernel(name);
        EXPECT_EQ(bench.name, name);
        EXPECT_EQ(print_kernel(bench.kernel), print_kernel(direct));
        EXPECT_EQ(bench.range_options.method, method);
    };
    expect_same("FIR", kernels::make_fir64(), RangeMethod::Interval);
    expect_same("IIR", kernels::make_iir10(), RangeMethod::Simulation);
    expect_same("CONV", kernels::make_conv3x3(), RangeMethod::Interval);
    expect_same("DOT", kernels::make_dot(), RangeMethod::Interval);
}

TEST(KernelRegistry, LookupIsCaseInsensitive) {
    const kernels::BenchmarkKernel upper =
        kernels::make_benchmark_kernel("FIR");
    const kernels::BenchmarkKernel lower =
        kernels::make_benchmark_kernel("fir");
    EXPECT_EQ(print_kernel(upper.kernel), print_kernel(lower.kernel));
    EXPECT_TRUE(kernels::KernelRegistry::instance().contains("FiR"));
}

TEST(KernelRegistry, UnknownNameListsRegisteredSorted) {
    try {
        kernels::make_benchmark_kernel("NOPE");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown benchmark kernel `NOPE`"),
                  std::string::npos)
            << what;
        // The built-ins appear in sorted order within the listing.
        const size_t conv = what.find("CONV");
        const size_t dot = what.find("DOT");
        const size_t fir = what.find("FIR");
        const size_t iir = what.find("IIR");
        ASSERT_NE(conv, std::string::npos) << what;
        EXPECT_LT(conv, dot);
        EXPECT_LT(dot, fir);
        EXPECT_LT(fir, iir);
    }
}

TEST(KernelRegistry, NamesAreSortedAndContainBuiltins) {
    const std::vector<std::string> names =
        kernels::KernelRegistry::instance().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const char* builtin : {"CONV", "DOT", "FIR", "IIR"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), builtin),
                  names.end())
            << builtin;
    }
}

TEST(KernelRegistry, ReRegisteringIdenticalContentIsANoOp) {
    const std::string source =
        "kernel reg_idem {\n"
        "  input x[4] range(-1.0, 1.0);\n"
        "  output y[4];\n"
        "  loop n = 0..4 { y[n] = x[n] * 0.5; }\n"
        "}\n";
    const std::string name = frontend::register_kernel_source(source);
    EXPECT_EQ(name, "reg_idem");
    // Same content again: silently accepted (every sweep point carrying
    // this source re-registers it; identical bytes hit the registration
    // memo and skip the recompile).
    EXPECT_EQ(frontend::register_kernel_source(source), "reg_idem");
    // Comments and blank lines do not change content identity (different
    // bytes miss the memo, compile, and take the registry's no-op).
    EXPECT_EQ(frontend::register_kernel_source("# a comment\n\n" + source),
              "reg_idem");
}

TEST(KernelRegistry, ConflictingContentUnderOneNameThrows) {
    const std::string a =
        "kernel reg_clash { output y[1]; y[0] = 0.25; }\n";
    const std::string b =
        "kernel reg_clash { output y[1]; y[0] = 0.75; }\n";
    EXPECT_EQ(frontend::register_kernel_source(a), "reg_clash");
    try {
        frontend::register_kernel_source(b);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("already registered"),
                  std::string::npos)
            << e.what();
    }
}

TEST(KernelRegistry, MemoizedRegistrationStillDetectsClashes) {
    // The registration memo only answers bytes that already registered:
    // a different body under a memoized name still reaches add() and
    // throws, and the original bytes keep returning their name.
    const std::string a =
        "kernel reg_memo { output y[1]; y[0] = 0.125; }\n";
    const std::string b =
        "kernel reg_memo { output y[1]; y[0] = 0.375; }\n";
    EXPECT_EQ(frontend::register_kernel_source(a), "reg_memo");
    EXPECT_EQ(frontend::register_kernel_source(a), "reg_memo");
    // Twice: a clash that add() refused must not have been recorded.
    for (int attempt = 0; attempt < 2; ++attempt) {
        try {
            frontend::register_kernel_source(b);
            ADD_FAILURE() << "expected Error on attempt " << attempt;
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("already registered"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(frontend::register_kernel_source(a), "reg_memo");
    EXPECT_EQ(frontend::register_kernel_source(a, "<other name>"),
              "reg_memo");
}

TEST(KernelRegistry, FailedCompileIsNeverMemoized) {
    // A source that does not compile throws its located error on every
    // call: failures are never recorded, so nothing can later "hit".
    const std::string broken = "kernel reg_broken {\n  output y[1]\n}\n";
    std::string first;
    try {
        frontend::register_kernel_source(broken, "broken.slp");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        first = e.what();
    }
    EXPECT_EQ(first.rfind("broken.slp:3:", 0), 0u) << first;
    try {
        frontend::register_kernel_source(broken, "broken.slp");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), first);
    }
    EXPECT_FALSE(kernels::KernelRegistry::instance().contains("reg_broken"));
}

TEST(KernelRegistry, ConcurrentRegistrationYieldsOneEntry) {
    // Farm workers in one process register manifest kernels while other
    // threads resolve names; every thread must see the same name and the
    // registry must end up with exactly one entry.
    const std::string source = frontend::canonical_kernel_source(
        "kernel reg_concurrent {\n"
        "  input x[8] range(-1.0, 1.0);\n"
        "  output y[8];\n"
        "  loop n = 0..8 unroll 2 { y[n] = x[n] * 0.75; }\n"
        "}\n");
    constexpr int kThreads = 8;
    constexpr int kRounds = 200;
    std::vector<std::vector<std::string>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int r = 0; r < kRounds; ++r) {
                seen[t].push_back(frontend::register_kernel_source(source));
                const kernels::KernelEntry entry =
                    kernels::KernelRegistry::instance().entry(seen[t].back());
                EXPECT_EQ(entry.dsl_source, source);
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::vector<std::string>& names : seen) {
        ASSERT_EQ(names.size(), static_cast<size_t>(kRounds));
        for (const std::string& name : names) EXPECT_EQ(name, "reg_concurrent");
    }
    const std::vector<std::string> names =
        kernels::KernelRegistry::instance().names();
    EXPECT_EQ(std::count(names.begin(), names.end(), "reg_concurrent"), 1);
}

TEST(KernelRegistry, FingerprintIsNameFreeButContentSensitive) {
    // Two kernels that differ only in name hash identically; changing a
    // coefficient (or the range method) moves the fingerprint.
    const auto fingerprint = [](const std::string& source) {
        return kernels::benchmark_kernel_fingerprint(
            frontend::compile_benchmark_source(source));
    };
    const std::string body =
        " { input x[4] range(-1.0, 1.0); output y[4]; "
        "loop n = 0..4 { y[n] = x[n] * 0.5; } }";
    EXPECT_EQ(fingerprint("kernel fp_a" + body),
              fingerprint("kernel fp_b" + body));
    const std::string other =
        " { input x[4] range(-1.0, 1.0); output y[4]; "
        "loop n = 0..4 { y[n] = x[n] * 0.25; } }";
    EXPECT_NE(fingerprint("kernel fp_a" + body),
              fingerprint("kernel fp_a" + other));
    EXPECT_NE(fingerprint("kernel fp_a" + body),
              fingerprint("kernel fp_a { range simulation;" + body.substr(2)));
}

TEST(KernelRegistry, RegisteredEntryKeepsCanonicalSource) {
    const std::string source = "# banner\n\nkernel reg_canon {\n"
                               "  output y[1];\n  y[0] = 0.5;\n}\n";
    frontend::register_kernel_source(source);
    const kernels::KernelEntry entry =
        kernels::KernelRegistry::instance().entry("reg_canon");
    EXPECT_EQ(entry.dsl_source, frontend::canonical_kernel_source(source));
    EXPECT_EQ(entry.fingerprint,
              kernels::benchmark_kernel_fingerprint(entry.bench));
    // Built-ins are builder-made: no DSL source to embed.
    EXPECT_TRUE(
        kernels::KernelRegistry::instance().entry("FIR").dsl_source.empty());
}

TEST(KernelRegistry, FileKernelRunsThroughSweepByName) {
    // The point of the registry: once registered, a DSL kernel is a
    // first-class sweep axis value, indistinguishable from a built-in.
    frontend::register_kernel_source(
        "kernel reg_sweep {\n"
        "  input x[11] range(-1.0, 1.0);\n"
        "  param c[4] = { 0.5, -0.25, 0.125, 0.0625 };\n"
        "  output y[8];\n"
        "  var acc;\n"
        "  loop n = 0..8 {\n"
        "    acc = 0.0;\n"
        "    loop k = 0..4 unroll 2 { acc = acc + c[k] * x[n + k]; }\n"
        "    y[n] = acc;\n"
        "  }\n"
        "}\n");
    SweepDriver driver;
    const std::vector<SweepResult> results = driver.run(SweepDriver::grid(
        {"reg_sweep"}, {"XENTIUM"}, {"WLO-SLP"}, {-30.0}));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].flow.kernel_name, "reg_sweep");
    EXPECT_GT(results[0].flow.simd_cycles, 0);
    EXPECT_LE(results[0].flow.analytic_noise_db, -30.0 + 1e-9);
}

TEST(KernelRegistry, EmbeddedSourcePointsMatchNameOnlyRows) {
    // Points that carry their kernel's source re-register it before
    // resolving the name. Whether that registration compiles (the first
    // embedded run: the canonical bytes differ from the commented source
    // registered here) or hits the memo (the second), every row must be
    // byte-identical to the name-only sweep.
    frontend::register_kernel_source(
        "# rows must not depend on how the kernel was registered\n"
        "kernel reg_rows {\n"
        "  input x[10] range(-1.0, 1.0);\n"
        "  param c[3] = { 0.5, -0.25, 0.125 };\n"
        "  output y[8];\n"
        "  var acc;\n"
        "  loop n = 0..8 {\n"
        "    acc = 0.0;\n"
        "    loop k = 0..3 { acc = acc + c[k] * x[n + k]; }\n"
        "    y[n] = acc;\n"
        "  }\n"
        "}\n");
    const std::vector<SweepPoint> named =
        SweepDriver::grid({"reg_rows"}, {"XENTIUM", "VEX-4"},
                          {"WLO-SLP", "WLO-First"}, {-20.0, -40.0});
    std::vector<SweepPoint> embedded = named;
    dist::embed_kernel_sources(embedded);
    for (const SweepPoint& point : embedded) {
        ASSERT_TRUE(point.kernel_source.has_value());
    }
    const auto rows = [](const std::vector<SweepPoint>& points) {
        SweepDriver driver;
        std::vector<std::string> out;
        for (const SweepResult& result : driver.run(points)) {
            out.push_back(sweep_result_to_json(result));
        }
        return out;
    };
    const std::vector<std::string> reference = rows(named);
    ASSERT_EQ(reference.size(), named.size());
    EXPECT_EQ(rows(embedded), reference);
    EXPECT_EQ(rows(embedded), reference);
}

}  // namespace
}  // namespace slpwlo

// Tests for the kernel-DSL frontend: lexer, parser, semantic errors,
// equivalence of DSL-compiled kernels with builder-constructed ones, the
// `.slp` file ingestion path (range annotations, file-position
// diagnostics, clean rejection of truncated or corrupted corpus files) and
// the seeded kernel generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "frontend/lower_ast.hpp"
#include "ir/verifier.hpp"
#include "sim/double_sim.hpp"
#include "support/diagnostics.hpp"
#include "flow/flow.hpp"
#include "target/target_model.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

const char* kDotSource = R"(
# 4-tap dot product kernel
kernel dot4 {
  input  x[19] range(-1.0, 1.0);
  param  c[4] = { 0.5, -0.25, 0.125, 0.0625 };
  output y[16];
  var acc;
  loop n = 0..16 {
    acc = 0.0;
    loop k = 0..4 unroll 2 {
      acc = acc + c[k] * x[n + k];
    }
    y[n] = acc;
  }
}
)";

// --- lexer ----------------------------------------------------------------------

TEST(Lexer, TokenStream) {
    const auto tokens = lex("loop n = 0..16 { y[n] = -1.5; }");
    ASSERT_GE(tokens.size(), 14u);
    EXPECT_EQ(tokens[0].kind, TokKind::KwLoop);
    EXPECT_EQ(tokens[1].kind, TokKind::Identifier);
    EXPECT_EQ(tokens[3].kind, TokKind::Number);
    EXPECT_EQ(tokens[4].kind, TokKind::DotDot);
    EXPECT_EQ(tokens.back().kind, TokKind::End);
}

TEST(Lexer, NumbersAndRanges) {
    const auto tokens = lex("0.5 1e-3 7..9");
    EXPECT_DOUBLE_EQ(tokens[0].number, 0.5);
    EXPECT_DOUBLE_EQ(tokens[1].number, 1e-3);
    EXPECT_DOUBLE_EQ(tokens[2].number, 7.0);
    EXPECT_EQ(tokens[3].kind, TokKind::DotDot);
    EXPECT_DOUBLE_EQ(tokens[4].number, 9.0);
}

TEST(Lexer, CommentsIgnored) {
    const auto tokens = lex("var a; # comment\n// another\nvar b;");
    int vars = 0;
    for (const Token& t : tokens) {
        if (t.kind == TokKind::KwVar) vars++;
    }
    EXPECT_EQ(vars, 2);
}

// Every token carries the line and column of its first character, also
// identifiers, keywords and numbers, which are pushed after being
// consumed.
TEST(Lexer, TokensCarryTheirStartPosition) {
    const auto tokens =
        lex("acc = width * 1.25; loop\ncount\n  output\n6789 x");
    struct Want {
        TokKind kind;
        int line;
        int column;
    };
    const std::vector<Want> want{
        {TokKind::Identifier, 1, 1},  {TokKind::Assign, 1, 5},
        {TokKind::Identifier, 1, 7},  {TokKind::Star, 1, 13},
        {TokKind::Number, 1, 15},     {TokKind::Semicolon, 1, 19},
        {TokKind::KwLoop, 1, 21},     {TokKind::Identifier, 2, 1},
        {TokKind::KwOutput, 3, 3},    {TokKind::Number, 4, 1},
        {TokKind::Identifier, 4, 6},  {TokKind::End, 4, 7},
    };
    ASSERT_EQ(tokens.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(tokens[k].kind, want[k].kind) << "token " << k;
        EXPECT_EQ(tokens[k].line, want[k].line) << "token " << k;
        EXPECT_EQ(tokens[k].column, want[k].column) << "token " << k;
    }
    // A parse error at a number points at the number itself.
    try {
        ast::parse("kernel k {\n  var abcdef 5;\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_EQ(e.column(), 14);
    }
}

TEST(Lexer, IllegalCharacterThrows) {
    EXPECT_THROW(lex("var a @ b;"), ParseError);
}

// A literal a double cannot hold must be a parse error at the literal's
// position, also through the `.slp` file path: an escaping
// std::out_of_range would end the CLI in std::terminate.
TEST(Lexer, OutOfRangeLiteralIsALocatedParseError) {
    try {
        lex("acc = 1e999;");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 1);
        EXPECT_EQ(e.column(), 7);
        EXPECT_NE(std::string(e.what()).find("1e999"), std::string::npos);
    }
    EXPECT_THROW(lex("1e-999"), ParseError);
    EXPECT_THROW(lex("2e;"), ParseError);  // dangling exponent

    const std::string path = ::testing::TempDir() + "/big_literal.slp";
    {
        std::ofstream out(path);
        out << "kernel big {\n  input  a[4] range(-1e999, 1.0);\n"
               "  output y[4];\n  loop n = 0..4 {\n    y[n] = a[n];\n  }\n}\n";
    }
    try {
        frontend::load_kernel_file(path);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path + ":2:"), std::string::npos) << what;
        EXPECT_NE(what.find("out of the range"), std::string::npos) << what;
    }
}

// --- parser ----------------------------------------------------------------------

TEST(Parser, ParsesDotKernel) {
    const ast::KernelAst k = ast::parse(kDotSource);
    EXPECT_EQ(k.name, "dot4");
    ASSERT_EQ(k.decls.size(), 4u);
    EXPECT_EQ(k.decls[0].kind, ast::Decl::Kind::Input);
    EXPECT_EQ(k.decls[1].values.size(), 4u);
    EXPECT_DOUBLE_EQ(k.decls[1].values[1], -0.25);
    ASSERT_EQ(k.body.size(), 1u);
    EXPECT_EQ(k.body[0]->kind, ast::Stmt::Kind::Loop);
    EXPECT_EQ(k.body[0]->end, 16);
}

TEST(Parser, SyntaxErrorsCarryLocation) {
    try {
        ast::parse("kernel bad { output y[4] }");  // missing ';'
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_GE(e.line(), 1);
        EXPECT_NE(std::string(e.what()).find("expected"), std::string::npos);
    }
}

TEST(Parser, RejectsAssignToExpression) {
    EXPECT_THROW(ast::parse("kernel bad { var a; 1.0 = a; }"), ParseError);
}

// --- lowering / sema --------------------------------------------------------------

TEST(LowerAst, CompilesAndVerifies) {
    const Kernel k = compile_kernel_source(kDotSource);
    EXPECT_EQ(k.name(), "dot4");
    EXPECT_NO_THROW(verify_kernel(k));
    // unroll 2 leaves an inner loop of trip 2 with a 2-lane body.
    EXPECT_EQ(k.loops().size(), 2u);
}

TEST(LowerAst, SemanticErrors) {
    EXPECT_THROW(compile_kernel_source(
                     "kernel e { var a; loop n = 0..4 { a = b; } }"),
                 ParseError);  // undeclared variable
    EXPECT_THROW(compile_kernel_source(
                     "kernel e { output y[4]; loop n = 0..4 { y[n*n] = 0.0; } }"),
                 ParseError);  // non-affine index
    EXPECT_THROW(compile_kernel_source(
                     "kernel e { input x[4] range(-1.0, 1.0); var a; "
                     "loop n = 0..4 { x[n] = a; } }"),
                 Error);  // store to input (caught by the verifier)
    EXPECT_THROW(compile_kernel_source(
                     "kernel e { param c[2] = { 1.0 }; }"),
                 ParseError);  // size mismatch
}

TEST(LowerAst, DslMatchesBuilderSemantics) {
    // The DSL dot4 must compute exactly what a builder-made kernel does.
    const Kernel dsl = compile_kernel_source(kDotSource);

    KernelBuilder b("dot4_builder");
    const ArrayId x = b.input("x", 19, Interval(-1.0, 1.0));
    const ArrayId c = b.param("c", {0.5, -0.25, 0.125, 0.0625});
    const ArrayId y = b.output("y", 16);
    const VarId acc = b.user_var("acc");
    const LoopId n = b.begin_loop("n", 0, 16);
    b.set_const(acc, 0.0);
    for (int k = 0; k < 4; ++k) {  // manually unrolled reference
        const VarId prod =
            b.mul(b.load(c, Affine(k)), b.load(x, Affine::var(n) + k));
        b.add(acc, prod, acc);
    }
    b.store(y, Affine::var(n), acc);
    b.end_loop();
    const Kernel ref = b.take();

    const Stimulus stimulus = make_stimulus(dsl, 31);
    Stimulus ref_stimulus(ref.arrays().size());
    ref_stimulus[0] = stimulus[0];
    const auto out_dsl = run_double(dsl, stimulus);
    const auto out_ref = run_double(ref, ref_stimulus);
    ASSERT_EQ(out_dsl.outputs.size(), out_ref.outputs.size());
    for (size_t i = 0; i < out_dsl.outputs.size(); ++i) {
        EXPECT_NEAR(out_dsl.outputs[i], out_ref.outputs[i], 1e-12);
    }
}

TEST(LowerAst, FullFlowOnDslKernel) {
    // A DSL kernel must drive the complete optimization flow.
    const Kernel k = compile_kernel_source(kDotSource);
    const KernelContext ctx(k);
    FlowOptions options;
    options.accuracy_db = -25.0;
    const FlowResult result =
        run_wlo_slp_flow(ctx, targets::xentium(), options);
    EXPECT_GT(result.group_count, 0);
    EXPECT_LE(result.analytic_noise_db, -25.0 + 1e-9);
}

// --- range annotations -----------------------------------------------------------

TEST(KernelFile, RangeAnnotationMapsToRangeOptions) {
    // No annotation -> Auto; the explicit spellings map to their methods
    // (the IIR-style simulated-ranges case is what `range simulation` is
    // for — interval propagation diverges through feedback taps).
    const auto method = [](const std::string& annot) {
        const std::string source = "kernel k { " + annot +
                                   " input x[4] range(-1.0, 1.0); "
                                   "output y[4]; "
                                   "loop n = 0..4 { y[n] = x[n]; } }";
        return frontend::compile_benchmark_source(source).range_options.method;
    };
    EXPECT_EQ(method(""), RangeMethod::Auto);
    EXPECT_EQ(method("range auto;"), RangeMethod::Auto);
    EXPECT_EQ(method("range interval;"), RangeMethod::Interval);
    EXPECT_EQ(method("range simulation;"), RangeMethod::Simulation);
}

TEST(KernelFile, UnknownRangeMethodRejected) {
    try {
        frontend::compile_benchmark_source(
            "kernel k { range sorcery; output y[1]; y[0] = 0.0; }", "bad.slp");
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("bad.slp:1:"), std::string::npos) << what;
        EXPECT_NE(what.find("unknown range method `sorcery`"),
                  std::string::npos)
            << what;
    }
}

TEST(KernelFile, DuplicateRangeAnnotationRejected) {
    EXPECT_THROW(ast::parse("kernel k { range interval; range simulation; "
                            "output y[1]; y[0] = 0.0; }"),
                 ParseError);
}

// --- file ingestion and diagnostics ----------------------------------------------

TEST(KernelFile, LoadsFileAndReportsPositions) {
    const std::string dir = ::testing::TempDir();
    const std::string good_path = dir + "/good_frontend.slp";
    {
        std::ofstream out(good_path);
        out << kDotSource;
    }
    const kernels::BenchmarkKernel bench =
        frontend::load_kernel_file(good_path);
    EXPECT_EQ(bench.name, "dot4");
    EXPECT_NO_THROW(verify_kernel(bench.kernel));

    // Parse errors must carry `path:line:column:` positions — line 3 is
    // where the bad token sits in the written file.
    const std::string bad_path = dir + "/bad_frontend.slp";
    {
        std::ofstream out(bad_path);
        out << "# comment\nkernel broken {\n  output y[4]\n}\n";
    }
    try {
        frontend::load_kernel_file(bad_path);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(bad_path + ":"), std::string::npos) << what;
        EXPECT_NE(what.find(":4:"), std::string::npos) << what;
    }

    EXPECT_THROW(frontend::load_kernel_file(dir + "/does_not_exist.slp"),
                 Error);
}

TEST(KernelFile, NonAffineIndexReportsFilePosition) {
    const std::string path = ::testing::TempDir() + "/nonaffine.slp";
    {
        std::ofstream out(path);
        out << "kernel e {\n  output y[4];\n  loop n = 0..4 {\n"
               "    y[n * n] = 0.0;\n  }\n}\n";
    }
    try {
        frontend::load_kernel_file(path);
        FAIL() << "expected Error";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path + ":4:"), std::string::npos) << what;
        EXPECT_NE(what.find("not affine"), std::string::npos) << what;
    }
}

TEST(KernelFile, UnrollMismatchRejected) {
    // Partial unroll must divide the trip count; compile_benchmark_source
    // runs the unroll pass, so the mismatch surfaces at ingestion.
    EXPECT_THROW(
        frontend::compile_benchmark_source(
            "kernel e { output y[5]; loop n = 0..5 unroll 2 { "
            "y[n] = 0.0; } }"),
        Error);
}

TEST(KernelFile, CanonicalSourceDropsOnlyInsignificantLines) {
    const std::string canonical =
        frontend::canonical_kernel_source("# header\n\nkernel k {\r\n"
                                          "  output y[1];  # tail\n"
                                          "   \t\n  y[0] = 0.5;\n}\n");
    EXPECT_EQ(canonical,
              "kernel k {\n  output y[1];  # tail\n  y[0] = 0.5;\n}\n");
    // Idempotent, and still the same kernel as the original.
    EXPECT_EQ(frontend::canonical_kernel_source(canonical), canonical);
}

// --- generator -------------------------------------------------------------------

TEST(KernelFile, PrefixesAndByteMutationsCompileOrThrowError) {
    // Every manifest and sweep point that embeds a kernel goes through
    // this compiler, so corrupt input must fail cleanly: each truncation
    // and each one-byte mutation of a corpus kernel either compiles or
    // throws slpwlo::Error. Any other exception (or a crash, which the
    // sanitizer builds catch) is a bug.
    namespace fs = std::filesystem;
    const char kBytes[] = {'{', '}', '(', ')', '[', ']', ';', ',', '=',
                           '.', '-', '+', '*', '/', '0', '9', '#', '\n',
                           ' ', 'x', '\0', '\x7f', '\xff'};
    std::vector<fs::path> files;
    for (const auto& entry :
         fs::directory_iterator(SLPWLO_SOURCE_DIR "/kernels")) {
        if (entry.path().extension() == ".slp") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    ASSERT_GE(files.size(), 7u);

    int compiled = 0;
    int rejected = 0;
    const auto feed = [&](const std::string& input, const std::string& what) {
        try {
            frontend::compile_benchmark_source(input, what);
            compiled++;
        } catch (const Error&) {
            rejected++;
        } catch (const std::exception& e) {
            ADD_FAILURE() << what << ": non-Error exception: " << e.what();
        } catch (...) {
            ADD_FAILURE() << what << ": non-std exception";
        }
    };
    for (const fs::path& file : files) {
        std::ifstream in(file, std::ios::binary);
        const std::string source((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
        ASSERT_FALSE(source.empty()) << file;
        const std::string name = file.filename().string();
        for (size_t length = 0; length <= source.size(); ++length) {
            feed(source.substr(0, length),
                 name + " prefix " + std::to_string(length));
        }
        for (size_t offset = 0; offset < source.size(); ++offset) {
            std::string mutated = source;
            size_t pick = offset % sizeof(kBytes);
            if (kBytes[pick] == mutated[offset]) {
                pick = (pick + 1) % sizeof(kBytes);
            }
            mutated[offset] = kBytes[pick];
            feed(mutated, name + " byte " + std::to_string(offset));
        }
    }
    // Both outcomes occur: full files compile, truncations mostly fail.
    EXPECT_GT(compiled, 0);
    EXPECT_GT(rejected, 0);
}

TEST(KernelGen, DeterministicPerSeed) {
    for (const uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
        const frontend::GeneratedKernel a =
            frontend::generate_kernel_source(seed);
        const frontend::GeneratedKernel b =
            frontend::generate_kernel_source(seed);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.source, b.source);  // byte-identical, not just equal IR
    }
    EXPECT_NE(frontend::generate_kernel_source(1).source,
              frontend::generate_kernel_source(2).source);
}

TEST(KernelGen, GeneratedKernelsCompileAndVerify) {
    // Every seed must yield a valid affine kernel whose unrolls divide
    // their trip counts (the generator constructs sizes that way).
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const kernels::BenchmarkKernel bench = frontend::generate_kernel(seed);
        EXPECT_EQ(bench.name, "gen_" + std::to_string(seed));
        EXPECT_NO_THROW(verify_kernel(bench.kernel));
    }
}

TEST(KernelGen, GeneratedKernelRunsAFlow) {
    const kernels::BenchmarkKernel bench = frontend::generate_kernel(3);
    const KernelContext ctx(bench.kernel, bench.range_options);
    FlowOptions options;
    options.accuracy_db = -25.0;
    const FlowResult result =
        run_wlo_slp_flow(ctx, targets::xentium(), options);
    EXPECT_GT(result.simd_cycles, 0);
    EXPECT_LE(result.analytic_noise_db, -25.0 + 1e-9);
}

}  // namespace
}  // namespace slpwlo

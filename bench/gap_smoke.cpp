// Heuristic-vs-optimal gap smoke: the CI guard for the exact flows
// (src/solver) and for the heuristic flows they must never perturb.
//
// Three checks, each a hard exit-code gate:
//
//   1. Gap direction — every registry kernel runs its heuristic flow
//      (WLO-First, WLO-SLP) and its exact counterpart (WLO-Optimal,
//      SLP-Optimal) on the same grid slot. Per point the solver
//      must start from the heuristic incumbent and only improve on it:
//      WLO-Optimal's cost objective <= the Tabu cost (bit-equal seeds),
//      SLP-Optimal's pack benefit >= the greedy benefit, gap >= 0. At
//      the acceptance constraint (-30 dB) every solve must also *prove*
//      optimality within the default node budget. Per-point node counts
//      land in the JSON report, where CI caps CONV's SLP-Optimal solve
//      at 20k nodes (it takes ~2.5k), so a bound that stops seeing the
//      exclusion graph fails the build.
//   2. Oracle — on a two-tap kernel small enough to enumerate (2^nodes
//      specs over two supported WLs), the proven-optimal WLO answer must
//      match the exhaustive minimum exactly.
//   3. Pinned heuristic fingerprint — the heuristic-flow sweep report
//      over a fixed grid is fingerprinted and compared against a
//      checked-in constant. The farm's streamed merge reassembles this
//      very byte stream (test_farm proves farm == in-process), so this
//      one constant pins the merged heuristic reports too: the solver
//      subsystem must be able to ride along without moving a single
//      heuristic byte.
//
// Emits a JSON report (--json / --json=FILE). Exits non-zero when any
// gate fails.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "accuracy/analytic_evaluator.hpp"
#include "bench_util.hpp"
#include "core/wl_cost_model.hpp"
#include "fixpoint/iwl.hpp"
#include "flow/report.hpp"
#include "ir/builder.hpp"
#include "solver/wlo_exact.hpp"
#include "target/target_model.hpp"

namespace {

using namespace slpwlo;

/// The acceptance constraint: every registry kernel must prove
/// optimality here within the default node budget (ROADMAP criterion).
constexpr double kAcceptanceDb = -30.0;

/// FNV-1a of the pinned heuristic sweep report (same hash the preset
/// byte-identity test uses).
uint64_t fnv1a(const std::string& text) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool bits_equal(double a, double b) {
    uint64_t ab, bb;
    std::memcpy(&ab, &a, sizeof(ab));
    std::memcpy(&bb, &b, sizeof(bb));
    return ab == bb;
}

struct GapPoint {
    std::string kernel;
    std::string flow;  ///< the exact flow that ran
    double accuracy_db = 0.0;
    long long nodes = 0;
    long long solves = 0;
    bool proven = false;
    double heuristic_objective = 0.0;
    double best_objective = 0.0;
    double gap = 0.0;
};

struct GapReport {
    std::vector<GapPoint> points;
    bool solver_ran_everywhere = true;
    /// WLO-Optimal never costs more than Tabu, and its seed is the Tabu
    /// incumbent bit-for-bit.
    bool wlo_cost_never_worse = true;
    bool wlo_seed_matches_tabu = true;
    /// SLP-Optimal's selected benefit never drops below the greedy one.
    bool slp_benefit_never_worse = true;
    bool gaps_nonnegative = true;
    /// Every solve at kAcceptanceDb proved optimality in-budget.
    bool proven_at_acceptance = true;
};

/// Runs the heuristic and exact legs of the same grid and checks the
/// gap direction point by point. The exact leg is the heuristic grid with
/// each slot's flow renamed to its exact counterpart.
GapReport run_gap_checks(const std::vector<double>& constraints,
                         int threads) {
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        kernels::benchmark_kernel_names(), {"XENTIUM"},
        {"WLO-First", "WLO-SLP"}, constraints);
    std::vector<SweepPoint> exact_grid = grid;
    for (SweepPoint& point : exact_grid) {
        point.flow = point.flow == "WLO-First" ? "WLO-Optimal" : "SLP-Optimal";
    }

    ExecOptions options;
    options.threads = threads;
    SweepDriver driver(options);
    const std::vector<SweepResult> base = driver.run(grid);
    const std::vector<SweepResult> exact = driver.run(exact_grid);

    GapReport report;
    for (size_t i = 0; i < grid.size(); ++i) {
        const FlowResult& h = base[i].flow;
        const FlowResult& o = exact[i].flow;
        const SolverStats& stats = o.solver_stats;

        GapPoint point;
        point.kernel = o.kernel_name;
        point.flow = o.flow_name;
        point.accuracy_db = o.accuracy_db;
        point.nodes = stats.nodes;
        point.solves = stats.solves;
        point.proven = stats.proven_optimal;
        point.heuristic_objective = stats.heuristic_objective;
        point.best_objective = stats.best_objective;
        point.gap = stats.gap;
        report.points.push_back(point);

        if (!stats.ran) report.solver_ran_everywhere = false;
        if (stats.gap < 0.0) report.gaps_nonnegative = false;
        if (o.flow_name == "WLO-Optimal") {
            // Minimization: the exact cost may only go down from the
            // Tabu incumbent it was seeded with.
            if (stats.best_objective > stats.heuristic_objective) {
                report.wlo_cost_never_worse = false;
            }
            if (!bits_equal(stats.heuristic_objective,
                            h.tabu_stats.best_cost)) {
                report.wlo_seed_matches_tabu = false;
            }
        } else {
            // Maximization (pack benefit): only up from greedy.
            if (stats.best_objective < stats.heuristic_objective) {
                report.slp_benefit_never_worse = false;
            }
        }
        if (o.accuracy_db == kAcceptanceDb && !stats.proven_optimal) {
            report.proven_at_acceptance = false;
        }
    }
    return report;
}

struct OracleReport {
    bool proven = false;
    bool matches = false;
    double exact_cost = 0.0;
    double oracle_cost = 0.0;
};

/// Two-tap kernel, two supported WLs: 2^nodes specs, small enough to
/// enumerate. The proven-optimal solver answer must equal the
/// exhaustive minimum-cost spec meeting the constraint.
OracleReport run_oracle_check() {
    KernelBuilder b("two_tap");
    const ArrayId x = b.input("x", 65, Interval(-1.0, 1.0));
    const ArrayId c = b.param("c", {0.5, 0.25});
    const ArrayId y = b.output("y", 64);
    const LoopId n = b.begin_loop("n", 0, 64);
    const VarId p0 = b.mul(b.load(x, Affine::var(n)), b.load(c, Affine(0)));
    const VarId p1 =
        b.mul(b.load(x, Affine::var(n) + 1), b.load(c, Affine(1)));
    b.store(y, Affine::var(n), b.add(p0, p1));
    b.end_loop();
    const Kernel kernel = b.take();

    const AnalyticEvaluator evaluator(kernel);
    TargetModel target = targets::xentium();
    target.scalar_wls = {32, 16};
    const double accuracy = -25.0;

    OracleReport report;
    FixedPointSpec spec = build_initial_spec(kernel, RangeOptions{});
    const solver::WloExactResult out =
        solver::run_wlo_exact(spec, evaluator, target, accuracy);
    report.proven = out.solve.proven_optimal;
    report.exact_cost = out.best_cost;

    const WlCostModel model(kernel, target);
    FixedPointSpec probe = build_initial_spec(kernel, RangeOptions{});
    const std::vector<NodeRef> nodes = probe.nodes();
    double oracle = std::numeric_limits<double>::infinity();
    for (size_t mask = 0; mask < (size_t(1) << nodes.size()); ++mask) {
        for (size_t i = 0; i < nodes.size(); ++i) {
            probe.set_wl(nodes[i], ((mask >> i) & 1) != 0 ? 16 : 32);
        }
        if (evaluator.noise_power_db(probe) > accuracy) continue;
        oracle = std::min(oracle, model.cost(probe));
    }
    report.oracle_cost = oracle;
    report.matches = std::isfinite(oracle) &&
                     std::abs(out.best_cost - oracle) <= 1e-9;
    return report;
}

struct PinnedReport {
    uint64_t fingerprint = 0;
    bool match = false;
    std::string first_bytes;  ///< diagnostic on mismatch
};

/// The pinned grid is fixed — independent of --smoke and --threads — so
/// the constant below means one thing everywhere: all four registry
/// kernels x XENTIUM x both heuristic flows x {-20, -30, -40} dB.
/// Update the constant only after re-auditing the report point by point;
/// a drive-by change from the solver subsystem is a regression.
constexpr uint64_t kPinnedHeuristicFingerprint = 0x938bb977faaa8a30ull;

PinnedReport run_pinned_check(int threads) {
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        kernels::benchmark_kernel_names(), {"XENTIUM"},
        {"WLO-SLP", "WLO-First"}, {-20.0, -30.0, -40.0});

    ExecOptions options;
    options.threads = threads;
    SweepDriver driver(options);
    const std::string json = sweep_to_json(driver.run(grid));

    PinnedReport report;
    report.fingerprint = fnv1a(json);
    report.match = report.fingerprint == kPinnedHeuristicFingerprint;
    if (!report.match) report.first_bytes = json.substr(0, 400);
    return report;
}

std::string report_json(const GapReport& gap, const OracleReport& oracle,
                        const PinnedReport& pinned) {
    std::ostringstream os;
    os << "{\"gap\":{\"points\":[";
    for (size_t i = 0; i < gap.points.size(); ++i) {
        const GapPoint& p = gap.points[i];
        os << (i == 0 ? "" : ",") << "{\"kernel\":\"" << p.kernel
           << "\",\"flow\":\"" << p.flow
           << "\",\"accuracy_db\":" << json_number(p.accuracy_db)
           << ",\"nodes\":" << p.nodes << ",\"solves\":" << p.solves
           << ",\"proven_optimal\":" << (p.proven ? "true" : "false")
           << ",\"heuristic_objective\":"
           << json_number(p.heuristic_objective)
           << ",\"best_objective\":" << json_number(p.best_objective)
           << ",\"gap\":" << json_number(p.gap) << "}";
    }
    const auto flag = [&](const char* name, bool value, bool comma = true) {
        os << (comma ? "," : "") << "\"" << name
           << "\":" << (value ? "true" : "false");
    };
    os << "]";
    flag("solver_ran_everywhere", gap.solver_ran_everywhere);
    flag("wlo_cost_never_worse", gap.wlo_cost_never_worse);
    flag("wlo_seed_matches_tabu", gap.wlo_seed_matches_tabu);
    flag("slp_benefit_never_worse", gap.slp_benefit_never_worse);
    flag("gaps_nonnegative", gap.gaps_nonnegative);
    flag("proven_at_acceptance", gap.proven_at_acceptance);
    os << "},\"oracle\":{";
    flag("proven", oracle.proven, /*comma=*/false);
    flag("matches", oracle.matches);
    os << ",\"exact_cost\":" << json_number(oracle.exact_cost)
       << ",\"oracle_cost\":" << json_number(oracle.oracle_cost)
       << "},\"pinned\":{\"fingerprint\":\""
       << fingerprint_hex(pinned.fingerprint) << "\"";
    flag("match", pinned.match);
    os << "}}\n";
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace slpwlo;
    namespace bench = slpwlo::bench;

    bench::BenchArgSpec spec;
    spec.smoke = true;
    const bench::BenchOptions options =
        bench::parse_bench_args(argc, argv, spec);

    bench::print_header(
        "gap_smoke: heuristic-vs-optimal gap guard",
        "exact flows must only improve on the paper's heuristics");

    // Smoke covers the acceptance constraint alone; the full run widens
    // the constraint axis (the exact leg stays well under a second of
    // solver time — CONV's ~2.5k-node pack selection is the ceiling,
    // and CI fails it above 20k nodes).
    const std::vector<double> constraints =
        options.smoke ? std::vector<double>{kAcceptanceDb}
                      : std::vector<double>{-20.0, kAcceptanceDb, -45.0};

    const GapReport gap = run_gap_checks(constraints, options.threads);
    std::printf("\nheuristic vs exact, per point (XENTIUM)\n");
    for (const GapPoint& p : gap.points) {
        std::printf(
            "  %-6s %-12s %6.1f dB  heuristic %12.2f  best %12.2f  "
            "gap %10.2f  %9lld nodes  proven: %s\n",
            p.kernel.c_str(), p.flow.c_str(), p.accuracy_db,
            p.heuristic_objective, p.best_objective, p.gap, p.nodes,
            p.proven ? "yes" : "NO");
    }
    std::printf(
        "  solver ran everywhere: %s   gap direction: %s   "
        "tabu seed bit-equal: %s   proven at %.0f dB: %s\n",
        gap.solver_ran_everywhere ? "yes" : "NO",
        gap.wlo_cost_never_worse && gap.slp_benefit_never_worse &&
                gap.gaps_nonnegative
            ? "ok"
            : "VIOLATED",
        gap.wlo_seed_matches_tabu ? "yes" : "NO", kAcceptanceDb,
        gap.proven_at_acceptance ? "yes" : "NO");

    const OracleReport oracle = run_oracle_check();
    std::printf("\nexhaustive oracle (two-tap, WLs {32,16}, -25 dB)\n");
    std::printf("  exact %12.4f   oracle %12.4f   proven: %s   match: %s\n",
                oracle.exact_cost, oracle.oracle_cost,
                oracle.proven ? "yes" : "NO", oracle.matches ? "yes" : "NO");

    const PinnedReport pinned = run_pinned_check(options.threads);
    std::printf("\npinned heuristic sweep fingerprint\n");
    std::printf("  %s   match: %s\n",
                fingerprint_hex(pinned.fingerprint).c_str(),
                pinned.match ? "yes" : "NO");
    if (!pinned.match) {
        std::printf("  first 400 bytes:\n%s\n", pinned.first_bytes.c_str());
    }

    const std::string json = report_json(gap, oracle, pinned);
    if (options.json_path.has_value()) {
        bench::emit_json_to(*options.json_path, json, 3);
    }

    const bool ok = gap.solver_ran_everywhere && gap.wlo_cost_never_worse &&
                    gap.wlo_seed_matches_tabu &&
                    gap.slp_benefit_never_worse && gap.gaps_nonnegative &&
                    gap.proven_at_acceptance && oracle.proven &&
                    oracle.matches && pinned.match;
    if (!ok) {
        std::printf("\nFAIL: exact-flow gap guard violated\n");
        return 1;
    }
    std::printf("\nall gap checks passed\n");
    return 0;
}

// The paper's claims, judged: Table I, Fig. 4, Fig. 6 and ablations A1-A3
// run as one SweepDriver grid and print in their usual layouts; each claim
// is checked on the analytic noise the optimizer used and, where it states
// one, on tape-simulated noise. Exits 1 when a gating claim fails.
//   paper_claims [--threads N] [--json[=FILE]]
// --json writes {"results":[...],"claims":[...],"ok":...}.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "accuracy/sim_evaluator.hpp"
#include "bench_util.hpp"
#include "target/target_model.hpp"

using namespace slpwlo;
using namespace slpwlo::bench;

namespace {

// Bounds, each stated once.
/// Table I: each tightening step keeps at least this share of the previous
/// step's WLO-SLP cycles. The paper's own table dips (645128 -> 626696 on
/// VEX-4), so "monotone" carries a 12% tolerance.
constexpr double kTable1StepFloor = 0.88;
/// Fig. 4: WLO-SLP >= WLO-First at "nearly all" points, read as 90%.
constexpr double kFig4NearlyAll = 0.90;
/// Fig. 4: WLO-First "degrades below 1.0x" at some point.
constexpr int kFig4FirstBelowOne = 1;
/// Fig. 6: soft-float XENTIUM gains an order of magnitude (paper: 15-45x).
constexpr double kFig6XentiumFloor = 10.0;
/// Fig. 6: hardware-FP ST240 still gains from SIMD: strictly above 1x.
constexpr double kFig6St240Floor = 1.0;
/// A2: the blind extraction over-commits WL reductions somewhere.
constexpr int kA2BlindViolations = 1;
/// Analytic noise may exceed its constraint by this much (dB rounding);
/// simulated noise gets no slack, as in perfbench's simulation check.
constexpr double kAnalyticSlackDb = 1e-9;

/// Fig. 4's targets, in targets::paper_targets() order.
const std::vector<std::string> kPaperTargets{"XENTIUM", "ST240", "VEX-1",
                                             "VEX-4"};
const std::vector<double> kTable1Constraints{-5, -15, -25, -35, -45, -55, -65};
const std::vector<double> kA1Constraints{-15, -35, -55};
const std::vector<double> kA2Constraints{-25, -45, -65};
const std::vector<double> kA3Constraints{-15, -45};

/// The option sets the ablations compare with the default flow.
enum class Variant { Default, ScalingOff, Blind, SavingsOnly, NoFloor };

std::optional<FlowOptions> options_for(Variant v) {
    if (v == Variant::Default) return std::nullopt;
    FlowOptions options;
    WloSlpOptions& slp = options.wlo_slp;
    if (v == Variant::ScalingOff) slp.scaling_optim = false;
    if (v == Variant::Blind) {  // the extraction never asks the evaluator
        slp.accuracy_conflicts = slp.strict_feasibility = false;
    }
    if (v == Variant::SavingsOnly) {
        slp.slp.benefit_mode = BenefitMode::SavingsOnly;
    }
    if (v == Variant::NoFloor) slp.slp.min_benefit = 0.0;
    return options;
}

using Name = const std::string&;

/// Every table's points, each once (adding a point again is a no-op), with
/// results found by (kernel, target, flow, constraint, variant). Reading a
/// point the grid lacks throws.
struct Grid {
    using Key = std::tuple<std::string, std::string, std::string, double,
                           Variant>;

    void add(Name kernel, Name target, Name flow, double a,
             Variant v = Variant::Default) {
        const Key key{kernel, target, flow, a, v};
        if (slots.emplace(key, points.size()).second) {
            points.push_back({kernel, target, flow, a, options_for(v), {}});
        }
    }
    const FlowResult& flow(Name kernel, Name target, Name flow_name, double a,
                           Variant v = Variant::Default) const {
        return results[slots.at(Key{kernel, target, flow_name, a, v})].flow;
    }

    std::map<Key, size_t> slots;
    std::vector<SweepPoint> points;
    std::vector<SweepResult> results;
};

/// Calls fn(kernel, target, a) for every paper kernel x `targets` x
/// `constraints`, kernel-major.
template <typename Fn>
void each(const std::vector<std::string>& targets,
          const std::vector<double>& constraints, Fn fn) {
    for (Name k : kernels::paper_kernel_names()) {
        for (Name target : targets) {
            for (const double a : constraints) fn(k, target, a);
        }
    }
}

/// Fig. 4's grid holds every default-option point the other tables read; the
/// rest are the float references (constraint-free) and ablation variants.
void add_points(Grid& grid) {
    each(kPaperTargets, accuracy_grid(), [&](Name k, Name t, double a) {
        grid.add(k, t, "WLO-First", a);
        grid.add(k, t, "WLO-SLP", a);
    });
    each({"XENTIUM", "ST240"}, {0.0},
         [&](Name k, Name t, double a) { grid.add(k, t, "Float", a); });
    each(kPaperTargets, kA1Constraints, [&](Name k, Name t, double a) {
        grid.add(k, t, "WLO-SLP", a, Variant::ScalingOff);
    });
    each({"XENTIUM", "VEX-4"}, kA2Constraints, [&](Name k, Name t, double a) {
        grid.add(k, t, "WLO-SLP", a, Variant::Blind);
    });
    each({"XENTIUM", "VEX-1"}, kA3Constraints, [&](Name k, Name t, double a) {
        grid.add(k, t, "WLO-SLP", a, Variant::SavingsOnly);
        grid.add(k, t, "WLO-SLP", a, Variant::NoFloor);
    });
}

/// Sets sim_noise_db (not in the report rows) on every fixed-point result as
/// perfbench's simulation check does: one SimulationEvaluator per kernel.
void simulate(SweepDriver& driver, std::vector<SweepResult>& results) {
    std::map<std::string, std::unique_ptr<SimulationEvaluator>> simulators;
    for (SweepResult& r : results) {
        if (r.point.flow == "Float") continue;
        std::unique_ptr<SimulationEvaluator>& sim = simulators[r.point.kernel];
        if (!sim) {
            sim = std::make_unique<SimulationEvaluator>(
                driver.context(r.point.kernel).kernel());
        }
        r.flow.sim_noise_db = sim->noise_power_db(r.flow.spec);
    }
}

struct Reading {
    double value;
    bool holds;
};

struct Claim {
    std::string name;
    bool gating;
    double bound;
    Reading analytic;
    std::optional<Reading> simulated;
    std::string detail;  ///< what the value leaves out, for people

    bool holds() const {
        return analytic.holds && (!simulated || simulated->holds);
    }
    /// The headline value: the simulated reading where there is one.
    double value() const { return (simulated ? *simulated : analytic).value; }
};

using Claims = std::vector<Claim>;

/// A gating claim on the analytic results alone (cycles, speedups).
Claim gate(const char* name, double value, double bound, bool holds,
           std::string detail = {}) {
    return {name, true, bound, {value, holds}, std::nullopt, std::move(detail)};
}

/// Constraint violations over a set of points under one noise model.
struct Tally {
    int points = 0;
    int violations = 0;
    double worst_excess_db = -INFINITY;

    /// Counts one point; true when it meets its constraint.
    bool meets(double noise_db, double constraint_db, double slack_db) {
        const double excess = noise_db - constraint_db;
        points++;
        worst_excess_db = std::max(worst_excess_db, excess);
        violations += excess > slack_db ? 1 : 0;
        return excess <= slack_db;
    }
    /// The violation count, holding when there is none.
    Reading none() const { return {double(violations), violations == 0}; }
    std::string text() const {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%d/%d over, worst %+.2f dB",
                      violations, points, worst_excess_db);
        return buffer;
    }
};

/// "No point violates its constraint", on both noise models.
Claim none_violate(const char* name, const Tally& analytic,
                   const Tally& simulated, bool gating = true) {
    return {name, gating, 0.0, analytic.none(), simulated.none(),
            "analytic " + analytic.text() + "; simulated " + simulated.text()};
}

/// Table I: FIR SIMD cycles on three targets (the paper's WLO-First row
/// "varies randomly").
void table1(const Grid& grid, Claims& claims) {
    print_header("Table I — FIR SIMD cycle counts", "DATE'17 Table I");
    std::printf("%-8s %-10s", "Target", "Flow");
    for (const double a : kTable1Constraints) std::printf(" %9.0f", a);
    double step = INFINITY;  // the smallest WLO-SLP step ratio
    for (const std::string target : {"XENTIUM", "ST240", "VEX-4"}) {
        for (const std::string flow : {"WLO-First", "WLO-SLP"}) {
            const bool slp = flow == "WLO-SLP";
            std::printf("\n%-8s %-10s", slp ? "" : target.c_str(),
                        flow.c_str());
            long long previous = 0;
            for (const double a : kTable1Constraints) {
                const long long c =
                    grid.flow("FIR", target, flow, a).simd_cycles;
                std::printf(" %9lld", c);
                if (slp && previous != 0) {
                    step = std::min(step, double(c) / double(previous));
                }
                previous = c;
            }
        }
    }
    std::printf("\nnote: absolute counts are from the repository's VLIW timing "
                "model, not the vendor simulators (see DESIGN.md)\n\n");
    claims.push_back(gate("table1.monotone", step, kTable1StepFloor,
                          step >= kTable1StepFloor));
}

/// Fig. 4: SIMD speedup of both flows over the scalar fixed-point baseline
/// (the WLO-First spec without SIMD).
void fig4(const Grid& grid, Claims& claims) {
    print_header("Fig. 4 — SIMD speedup vs accuracy constraint",
                 "DATE'17 Figure 4 (3 benchmarks x 4 targets)");
    int points = 0, slp_wins_or_ties = 0, first_below_one = 0;
    const double loosest = accuracy_grid().front();
    each(kPaperTargets, accuracy_grid(), [&](Name k, Name t, double a) {
        if (a == loosest) {  // a new (kernel, target) table
            std::printf("\n-- %s on %s --\n%8s %12s %12s %14s %14s\n",
                        k.c_str(), t.c_str(), "A(dB)", "WLO-First", "WLO-SLP",
                        "first-groups", "slp-groups");
        }
        const FlowResult& first = grid.flow(k, t, "WLO-First", a);
        const FlowResult& slp = grid.flow(k, t, "WLO-SLP", a);
        const double speedup_first =
            speedup(first.scalar_cycles, first.simd_cycles);
        const double speedup_slp =
            speedup(first.scalar_cycles, slp.simd_cycles);
        std::printf("%8.0f %12.3f %12.3f %14d %14d\n", a, speedup_first,
                    speedup_slp, first.group_count, slp.group_count);
        points++;
        if (speedup_slp >= speedup_first - 1e-9) slp_wins_or_ties++;
        if (speedup_first < 1.0 - 1e-9) first_below_one++;
    });
    std::printf("\n");
    const double share = double(slp_wins_or_ties) / points;
    claims.push_back(gate("fig4.slp_dominates", share, kFig4NearlyAll,
                          share >= kFig4NearlyAll,
                          std::to_string(slp_wins_or_ties) + "/" +
                              std::to_string(points) + " points"));
    claims.push_back(gate("fig4.first_degrades", first_below_one,
                          kFig4FirstBelowOne,
                          first_below_one >= kFig4FirstBelowOne));
}

/// Fig. 6: WLO-SLP speedup over single-precision float. The axis runs past
/// the paper's -45 dB as this model's noise floors sit lower (DESIGN §11).
void fig6(const Grid& grid, Claims& claims) {
    print_header("Fig. 6 — WLO-SLP speedup over floating point",
                 "DATE'17 Figure 6");
    std::map<std::string, double> lowest{{"XENTIUM", INFINITY},
                                         {"ST240", INFINITY}};  // speedup
    for (const std::string name : {"XENTIUM", "ST240"}) {
        const TargetModel target = targets::by_name(name);
        std::printf("\n-- %s (float: %s) --\n%8s", target.name.c_str(),
                    target.fp.hardware ? "hardware" : "soft-float", "A(dB)");
        for (Name k : kernels::paper_kernel_names()) {
            std::printf(" %9s", k.c_str());
        }
        for (const double a : accuracy_grid()) {
            std::printf("\n%8.0f", a);
            for (Name k : kernels::paper_kernel_names()) {
                const double s = speedup(
                    grid.flow(k, target.name, "Float", 0.0).simd_cycles,
                    grid.flow(k, target.name, "WLO-SLP", a).simd_cycles);
                std::printf(" %9.2f", s);
                lowest[name] = std::min(lowest[name], s);
            }
        }
        std::printf("\n");
    }
    std::printf("\n");
    const double xentium = lowest["XENTIUM"], st240 = lowest["ST240"];
    claims.push_back(gate("fig6.xentium_order_of_magnitude", xentium,
                          kFig6XentiumFloor, xentium >= kFig6XentiumFloor));
    claims.push_back(gate("fig6.st240_above_one", st240, kFig6St240Floor,
                          st240 > kFig6St240Floor));
}

/// Ablation A1: the SLP-aware scaling optimization (Fig. 1b) on vs off; off,
/// differently scaled lanes pay Fig. 2's unpack / shift / repack penalty.
void a1(const Grid& grid, Claims& claims) {
    print_header("Ablation A1 — scaling optimization on/off",
                 "DATE'17 Section III.C / Fig. 2 mechanism");
    std::printf("%-6s %-9s %8s %12s %12s %9s %10s\n", "kernel", "target",
                "A(dB)", "with", "without", "gain", "equalized");
    int hurt = 0;
    each(kPaperTargets, kA1Constraints, [&](Name k, Name t, double a) {
        const FlowResult& with = grid.flow(k, t, "WLO-SLP", a);
        const FlowResult& without =
            grid.flow(k, t, "WLO-SLP", a, Variant::ScalingOff);
        std::printf("%-6s %-9s %8.0f %12lld %12lld %8.3fx %10d\n", k.c_str(),
                    t.c_str(), a, with.simd_cycles, without.simd_cycles,
                    speedup(without.simd_cycles, with.simd_cycles),
                    with.scaling_stats.equalized);
        if (with.simd_cycles > without.simd_cycles) hurt++;
    });
    std::printf("\n");
    claims.push_back(gate("a1.scaling_never_hurts", hurt, 0, hurt == 0));
}

/// Ablation A2: the accuracy-aware extraction (Fig. 1c) on vs off. Blind, it
/// still applies equation (1) WL reductions and can miss the constraint.
void a2(const Grid& grid, Claims& claims) {
    print_header("Ablation A2 — accuracy-aware extraction on/off",
                 "DATE'17 Fig. 1c lines 6-25");
    std::printf("%-6s %-9s %8s | %10s %10s | %10s %10s %9s\n", "kernel",
                "target", "A(dB)", "aware-n", "aware-ok", "blind-n", "blind-ok",
                "blind-g");
    Tally aware, aware_sim, blind;
    each({"XENTIUM", "VEX-4"}, kA2Constraints, [&](Name k, Name t, double a) {
        const FlowResult& with = grid.flow(k, t, "WLO-SLP", a);
        const FlowResult& without =
            grid.flow(k, t, "WLO-SLP", a, Variant::Blind);
        const double aware_db = with.analytic_noise_db;
        const double blind_db = without.analytic_noise_db;
        const bool aware_ok = aware.meets(aware_db, a, kAnalyticSlackDb);
        const bool blind_ok = blind.meets(blind_db, a, kAnalyticSlackDb);
        aware_sim.meets(with.sim_noise_db, a, 0.0);
        std::printf("%-6s %-9s %8.0f | %10.1f %10s | %10.1f %10s %9d\n",
                    k.c_str(), t.c_str(), a, aware_db, aware_ok ? "yes" : "NO",
                    blind_db, blind_ok ? "yes" : "VIOLATED",
                    without.group_count);
    });
    std::printf("\n");
    claims.push_back(none_violate("a2.aware_meets", aware, aware_sim));
    claims.push_back(gate("a2.blind_violates", blind.violations,
                          kA2BlindViolations,
                          blind.violations >= kA2BlindViolations,
                          blind.text()));
}

/// Ablation A3, report only: the Liu'12 reuse/cost benefit (the default),
/// reuse-blind savings, and no floor (the paper's filter-free CONV, V.D).
void a3(const Grid& grid, Claims&) {
    print_header("Ablation A3 — benefit heuristic variants",
                 "DATE'17 Section V.D / Liu'12 heuristic");
    std::printf("%-6s %-9s %8s %12s %12s %12s\n", "kernel", "target", "A(dB)",
                "reuse/cost", "savings", "no-floor");
    each({"XENTIUM", "VEX-1"}, kA3Constraints, [&](Name k, Name t, double a) {
        const auto cycles = [&](Variant v) {
            return grid.flow(k, t, "WLO-SLP", a, v).simd_cycles;
        };
        std::printf("%-6s %-9s %8.0f %12lld %12lld %12lld\n", k.c_str(),
                    t.c_str(), a, cycles(Variant::Default),
                    cycles(Variant::SavingsOnly), cycles(Variant::NoFloor));
    });
    std::printf("\nreuse/cost is the default; no-floor shows the paper's "
                "filter-free behaviour (occasionally slower solutions, as "
                "in their CONV-on-XENTIUM observation)\n\n");
}

/// The chosen spec meets its constraint: gating on every accuracy-aware
/// WLO-SLP point, reported on the WLO-First baseline (noise-model misses).
void meets_by_simulation(const Grid& grid, Claims& claims) {
    Tally aware, aware_sim, first, first_sim;
    for (const auto& [key, i] : grid.slots) {
        const auto& [kernel, target, flow, a, variant] = key;
        if (flow == "Float" || variant == Variant::Blind) continue;
        const FlowResult& r = grid.results[i].flow;
        const bool slp = flow == "WLO-SLP";
        (slp ? aware : first).meets(r.analytic_noise_db, a, kAnalyticSlackDb);
        (slp ? aware_sim : first_sim).meets(r.sim_noise_db, a, 0.0);
    }
    claims.push_back(
        none_violate("aware.meets_by_simulation", aware, aware_sim));
    claims.push_back(none_violate("wlo_first.meets_by_simulation", first,
                                  first_sim, /*gating=*/false));
}

std::string claims_to_json(const Claims& claims) {
    const auto reading = [](const Reading& r) {
        return "{\"value\":" + json_number(r.value) +
               ",\"holds\":" + (r.holds ? "true" : "false") + "}";
    };
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < claims.size(); ++i) {
        const Claim& c = claims[i];
        os << (i != 0 ? "," : "") << "\n  {\"name\":" << json_escape(c.name)
           << ",\"gating\":" << (c.gating ? "true" : "false")
           << ",\"holds\":" << (c.holds() ? "true" : "false")
           << ",\"value\":" << json_number(c.value())
           << ",\"bound\":" << json_number(c.bound)
           << ",\"detail\":" << json_escape(c.detail)
           << ",\"analytic\":" << reading(c.analytic);
        if (c.simulated) os << ",\"simulated\":" << reading(*c.simulated);
        os << "}";
    }
    return os.str() + "\n]";
}

}  // namespace

int main(int argc, char** argv) {
    const BenchOptions options = parse_bench_args(argc, argv);
    Grid grid;
    add_points(grid);
    ExecOptions exec;
    exec.threads = options.threads;
    SweepDriver driver(exec);
    grid.results = driver.run(grid.points);
    simulate(driver, grid.results);

    Claims claims;
    for (const auto table :
         {table1, fig4, fig6, a1, a2, a3, meets_by_simulation}) {
        table(grid, claims);
    }
    bool ok = true;
    std::printf("=== paper claims (%zu grid points) ===\n", grid.points.size());
    for (const Claim& c : claims) {
        std::printf("%-32s %-6s %-9s %8.4g (bound %g)  %s\n", c.name.c_str(),
                    c.holds() ? "holds" : "FAILS",
                    c.gating ? "gating" : "reported", c.value(), c.bound,
                    c.detail.c_str());
        ok = ok && (c.holds() || !c.gating);
    }
    std::printf("paper claims: %s\n", ok ? "OK" : "FAILED");

    if (options.json_path.has_value()) {
        std::string results = sweep_to_json(grid.results);
        results.pop_back();  // the array's trailing newline
        emit_json_to(*options.json_path,
                     "{\"results\":" + results +
                         ",\"claims\":" + claims_to_json(claims) +
                         ",\"ok\":" + (ok ? "true" : "false") + "}\n",
                     grid.results.size());
    }
    return ok ? 0 : 1;
}

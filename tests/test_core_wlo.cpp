// Tests for the paper's core algorithms: SLP-aware WLO (Fig. 1a),
// accuracy-aware SLP (Fig. 1c), scaling optimization (Fig. 1b), plus the
// Tabu WLO / WLO-First baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "accuracy/sim_evaluator.hpp"
#include "core/accuracy_aware_slp.hpp"
#include "core/slp_aware_wlo.hpp"
#include "core/wlo_first.hpp"
#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "support/diagnostics.hpp"
#include "target/target_model.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::cached_evaluator;
using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::small_conv;
using ::slpwlo::testing::small_fir;
using ::slpwlo::testing::small_iir;

// --- Fig. 1a ---------------------------------------------------------------------

TEST(SlpAwareWlo, RespectsEquationOne) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    const TargetModel target = targets::vex4();
    WloSlpOptions options;
    options.accuracy_db = -20.0;
    const WloSlpResult result = run_slp_aware_wlo(
        k, spec, cached_evaluator(k), target, options);
    for (const BlockGroups& bg : result.block_groups) {
        for (const SimdGroup& g : bg.groups) {
            const auto m = target.simd_element_wl(g.width());
            ASSERT_TRUE(m.has_value());
            for (const OpId lane : g.lanes) {
                EXPECT_LE(spec.result_format(lane).wl(), *m)
                    << "equation (1) violated";
            }
        }
    }
}

TEST(SlpAwareWlo, NonGroupedNodesKeepMaxWl) {
    const Kernel& k = small_conv();
    FixedPointSpec spec = initial_spec(k);
    const TargetModel target = targets::xentium();
    WloSlpOptions options;
    options.accuracy_db = -30.0;
    const WloSlpResult result = run_slp_aware_wlo(
        k, spec, cached_evaluator(k), target, options);
    // The serial accumulator is never groupable -> stays at 32.
    const VarId acc = k.find_var("acc");
    ASSERT_TRUE(acc.valid());
    EXPECT_EQ(spec.var_format(acc).wl(), target.max_wl());
    (void)result;
}

/// The central contract: across the whole constraint sweep the final spec
/// satisfies the analytic accuracy constraint.
class WloConstraintSweep : public ::testing::TestWithParam<double> {};

TEST_P(WloConstraintSweep, FinalSpecMeetsConstraint) {
    const double a = GetParam();
    for (const Kernel* k : {&small_fir(), &small_iir(), &small_conv()}) {
        FixedPointSpec spec = initial_spec(*k);
        WloSlpOptions options;
        options.accuracy_db = a;
        run_slp_aware_wlo(*k, spec, cached_evaluator(*k),
                          targets::vex4(), options);
        EXPECT_LE(cached_evaluator(*k).noise_power_db(spec), a + 1e-9)
            << k->name() << " at " << a << " dB";
    }
}

INSTANTIATE_TEST_SUITE_P(Constraints, WloConstraintSweep,
                         ::testing::Values(-10.0, -25.0, -40.0, -55.0,
                                           -70.0));

TEST(SlpAwareWlo, MeasuredNoiseNearConstraintRegime) {
    // Cross-validation with the bit-accurate simulator: the *measured*
    // noise of the optimized spec must not exceed the constraint by more
    // than the analytic model's error margin in its valid regime.
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    WloSlpOptions options;
    options.accuracy_db = -40.0;
    run_slp_aware_wlo(k, spec, cached_evaluator(k), targets::vex4(), options);
    const SimulationEvaluator sim(k, 2);
    EXPECT_LE(sim.noise_power_db(spec), -40.0 + 4.0);
}

TEST(SlpAwareWlo, InfeasibleConstraintThrows) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    WloSlpOptions options;
    options.accuracy_db = -500.0;  // impossible even at 32 bits
    EXPECT_THROW(run_slp_aware_wlo(k, spec, cached_evaluator(k),
                                   targets::xentium(), options),
                 Error);
}

TEST(SlpAwareWlo, StricterConstraintNeverMoreCoverage) {
    // Group *count* is not monotone (width-4 merges reduce it), but the
    // number of ops covered by SIMD groups must not grow as the accuracy
    // constraint tightens.
    const Kernel& k = small_fir();
    const TargetModel target = targets::vex4();
    int previous = 1 << 30;
    for (const double a : {-10.0, -30.0, -50.0, -70.0}) {
        FixedPointSpec spec = initial_spec(k);
        WloSlpOptions options;
        options.accuracy_db = a;
        const auto result = run_slp_aware_wlo(k, spec, cached_evaluator(k),
                                              target, options);
        int lanes = 0;
        for (const BlockGroups& bg : result.block_groups) {
            for (const SimdGroup& g : bg.groups) lanes += g.width();
        }
        EXPECT_LE(lanes, previous)
            << "SIMD coverage should shrink as A tightens";
        previous = lanes;
    }
}

TEST(SlpAwareWlo, BlocksVisitedByPriority) {
    const Kernel& k = small_fir();
    const auto order = blocks_by_priority(k);
    for (size_t i = 1; i < order.size(); ++i) {
        EXPECT_GE(k.block_frequency(order[i - 1]),
                  k.block_frequency(order[i]));
    }
}

// --- Fig. 1b ---------------------------------------------------------------------

TEST(ScalingOptim, EqualizesConvMulAmounts) {
    // CONV's 9 products have heterogeneous IWLs; after optimization the
    // mul groups' per-lane quantization amounts must be uniform.
    const Kernel& k = small_conv();
    FixedPointSpec spec = initial_spec(k);
    WloSlpOptions options;
    options.accuracy_db = -30.0;
    const auto result = run_slp_aware_wlo(k, spec, cached_evaluator(k),
                                          targets::st240(), options);
    EXPECT_GT(result.scaling_stats.equalized, 0);

    const auto def_nodes = compute_var_def_nodes(k);
    for (const BlockGroups& bg : result.block_groups) {
        for (const SimdGroup& g : bg.groups) {
            if (k.op(g.lanes[0]).kind != OpKind::Mul) continue;
            std::set<int> amounts;
            for (const OpId lane : g.lanes) {
                const Op& op = k.op(lane);
                const int full =
                    spec.format(def_nodes[op.args[0].index()]).fwl +
                    spec.format(def_nodes[op.args[1].index()]).fwl;
                amounts.insert(full - spec.result_format(lane).fwl);
            }
            EXPECT_EQ(amounts.size(), 1u)
                << "mul group scalings not equalized";
        }
    }
}

TEST(ScalingOptim, KeepsWordLengthsIntact) {
    // Fig. 1b trades FWL for IWL but never changes WL.
    const Kernel& k = small_conv();
    FixedPointSpec with = initial_spec(k);
    FixedPointSpec without = initial_spec(k);
    WloSlpOptions on;
    on.accuracy_db = -30.0;
    WloSlpOptions off = on;
    off.scaling_optim = false;
    run_slp_aware_wlo(k, with, cached_evaluator(k), targets::st240(), on);
    run_slp_aware_wlo(k, without, cached_evaluator(k), targets::st240(), off);
    for (const NodeRef node : with.nodes()) {
        EXPECT_EQ(with.format(node).wl(), without.format(node).wl());
    }
}

TEST(ScalingOptim, StillMeetsConstraint) {
    const Kernel& k = small_conv();
    FixedPointSpec spec = initial_spec(k);
    WloSlpOptions options;
    options.accuracy_db = -35.0;
    run_slp_aware_wlo(k, spec, cached_evaluator(k), targets::st240(),
                      options);
    EXPECT_LE(cached_evaluator(k).noise_power_db(spec), -35.0 + 1e-9);
}

// --- Tabu / WLO-First -------------------------------------------------------------

TEST(TabuWlo, ReturnsFeasibleAndCheaper) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    const TabuStats stats = run_tabu_wlo(spec, cached_evaluator(k),
                                         targets::xentium(), -30.0);
    EXPECT_TRUE(stats.feasible);
    EXPECT_LT(stats.best_cost, stats.initial_cost);
    EXPECT_LE(cached_evaluator(k).noise_power_db(spec), -30.0 + 1e-9);
}

TEST(TabuWlo, StricterConstraintCostsMore) {
    const Kernel& k = small_fir();
    const WlCostModel cost_model(k, targets::xentium());
    double previous = 0.0;
    for (const double a : {-10.0, -40.0, -70.0}) {
        FixedPointSpec spec = initial_spec(k);
        run_tabu_wlo(spec, cached_evaluator(k), targets::xentium(), a);
        const double cost = cost_model.cost(spec);
        EXPECT_GE(cost, previous - 1e-9);
        previous = cost;
    }
}

TEST(TabuWlo, Deterministic) {
    const Kernel& k = small_fir();
    FixedPointSpec a = initial_spec(k);
    FixedPointSpec b = initial_spec(k);
    run_tabu_wlo(a, cached_evaluator(k), targets::vex4(), -35.0);
    run_tabu_wlo(b, cached_evaluator(k), targets::vex4(), -35.0);
    for (const NodeRef node : a.nodes()) {
        EXPECT_EQ(a.format(node), b.format(node));
    }
}

TEST(WlCostModel, WlProportionalProxy) {
    const Kernel& k = small_fir();
    const TargetModel target = targets::xentium();
    const WlCostModel model(k, target);
    FixedPointSpec wide = initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(wide, 32);
    FixedPointSpec narrow = initial_spec(k);
    ::slpwlo::testing::set_uniform_wl(narrow, 16);
    EXPECT_NEAR(model.cost(narrow), model.cost(wide) / 2.0,
                model.cost(wide) * 0.01);
    EXPECT_DOUBLE_EQ(model.cost(wide), model.max_cost());
}

TEST(WloFirst, GroupsRespectEqualWlRule) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    WloFirstOptions options;
    options.accuracy_db = -30.0;
    const WloFirstResult result = run_wlo_first(
        k, spec, cached_evaluator(k), targets::vex4(), options);
    for (const BlockGroups& bg : result.block_groups) {
        for (const SimdGroup& g : bg.groups) {
            const int wl = spec.result_format(g.lanes[0]).wl();
            for (const OpId lane : g.lanes) {
                EXPECT_EQ(spec.result_format(lane).wl(), wl);
            }
        }
    }
}

TEST(WloFirst, NeverChangesSpecDuringExtraction) {
    // The decoupled baseline's SLP stage must not touch word lengths.
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    WloFirstOptions options;
    options.accuracy_db = -30.0;
    run_tabu_wlo(spec, cached_evaluator(k), targets::vex4(), -30.0,
                 options.tabu);
    std::vector<FixedFormat> before;
    for (const NodeRef node : spec.nodes()) before.push_back(spec.format(node));
    PackedView view(k, blocks_by_priority(k).front());
    extract_slp_plain(view, targets::vex4(), spec, options.slp);
    size_t i = 0;
    for (const NodeRef node : spec.nodes()) {
        EXPECT_EQ(spec.format(node), before[i++]);
    }
}

// --- Fig. 1c accuracy conflicts: memoized vs probe-per-pair ----------------------

/// Counts noise evaluations: every full evaluation and every query of a
/// session it opened (the sessions are the inner evaluator's, wrapped).
class CountingEvaluator final : public AccuracyEvaluator {
public:
    explicit CountingEvaluator(const AccuracyEvaluator& inner)
        : inner_(inner) {}

    double noise_power(const FixedPointSpec& spec) const override {
        calls++;
        return inner_.noise_power(spec);
    }

    std::unique_ptr<EvalSession> open_session(
        FixedPointSpec& spec) const override {
        return std::make_unique<Session>(inner_.open_session(spec), calls);
    }

    mutable long calls = 0;

private:
    class Session final : public EvalSession {
    public:
        Session(std::unique_ptr<EvalSession> inner, long& calls)
            : inner_(std::move(inner)), calls_(calls) {}
        double noise_power() override {
            calls_++;
            return inner_->noise_power();
        }
        void begin_probe() override { inner_->begin_probe(); }
        void end_probe() override { inner_->end_probe(); }
        // The additive form is forwarded, or the conflict filter would
        // silently stay off behind this wrapper.
        bool noise_split(NoiseSplit* split) override {
            calls_++;
            return inner_->noise_split(split);
        }
        std::span<const uint32_t> terms_of(NodeRef node) override {
            return inner_->terms_of(node);
        }
        NoiseTerm term(uint32_t index) override {
            return inner_->term(index);
        }
        FixedPointSpec& spec() override { return inner_->spec(); }

    private:
        std::unique_ptr<EvalSession> inner_;
        long& calls_;
    };

    const AccuracyEvaluator& inner_;
};

// --- Tabu neighbourhood screen vs the full scan ----------------------------------

/// The Tabu search without its neighbourhood screen: every iteration
/// sets, probes and restores every ±1 move. run_tabu_wlo must match it
/// move for move.
TabuStats full_scan_tabu_wlo(FixedPointSpec& spec,
                             const AccuracyEvaluator& evaluator,
                             const TargetModel& target, double accuracy_db,
                             std::vector<TabuMove>* moves) {
    const TabuOptions options;
    const WlCostModel cost_model(spec.kernel(), target);
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, target.max_wl());
    }
    const std::unique_ptr<EvalSession> eval = evaluator.open_session(spec);
    const std::unique_ptr<WlCostSession> costs = cost_model.open_session(spec);
    SLPWLO_CHECK(!eval->violates(accuracy_db), "infeasible at maximum WLs");

    std::vector<int> wls = target.scalar_wls;
    std::sort(wls.begin(), wls.end());
    const auto& nodes = spec.nodes();
    auto wl_index = [&](int wl) {
        const auto it = std::find(wls.begin(), wls.end(), wl);
        return it == wls.end() ? static_cast<int>(wls.size()) - 1
                               : static_cast<int>(it - wls.begin());
    };
    auto objective = [&](bool feasible, double cost, double noise_db) {
        if (feasible) return cost;
        return cost + options.infeasibility_penalty *
                          std::max(0.0, noise_db - accuracy_db) *
                          cost_model.max_cost() / 100.0;
    };

    TabuStats stats;
    stats.initial_cost = costs->cost();
    stats.best_cost = stats.initial_cost;
    stats.feasible = true;
    std::vector<FixedFormat> best_formats(nodes.size());
    auto snapshot = [&] {
        for (size_t i = 0; i < nodes.size(); ++i) {
            best_formats[i] = spec.format(nodes[i]);
        }
    };
    snapshot();
    std::vector<int> tabu(nodes.size() * wls.size(), -1);

    int stagnation = 0;
    for (int iter = 0; iter < options.max_iterations; ++iter) {
        stats.iterations = iter + 1;
        struct Move {
            size_t node_index = 0;
            int wl = 0;
            double score = 0.0;
            double cost = 0.0;
            bool feasible = false;
        };
        std::optional<Move> best_move;
        for (size_t i = 0; i < nodes.size(); ++i) {
            const int current = spec.format(nodes[i]).wl();
            const int ci = wl_index(current);
            for (const int delta : {-1, +1}) {
                const int ni = ci + delta;
                if (ni < 0 || ni >= static_cast<int>(wls.size())) continue;
                const int candidate_wl = wls[static_cast<size_t>(ni)];
                spec.set_wl(nodes[i], candidate_wl);
                const double noise_db = eval->noise_power_db();
                const bool feasible = noise_db <= accuracy_db;
                const double cost = costs->cost();
                spec.set_wl(nodes[i], current);
                const double score = objective(feasible, cost, noise_db);
                const bool is_tabu =
                    tabu[i * wls.size() + static_cast<size_t>(ni)] > iter;
                if (is_tabu && !(feasible && cost < stats.best_cost)) {
                    continue;
                }
                if (!best_move || score < best_move->score) {
                    best_move = Move{i, candidate_wl, score, cost, feasible};
                }
            }
        }
        if (!best_move) break;
        const size_t j = best_move->node_index;
        const int old_wl = spec.format(nodes[j]).wl();
        spec.set_wl(nodes[j], best_move->wl);
        tabu[j * wls.size() + static_cast<size_t>(wl_index(old_wl))] =
            iter + options.tenure;
        moves->push_back({j, best_move->wl});
        if (best_move->feasible && best_move->cost < stats.best_cost) {
            stats.best_cost = best_move->cost;
            stats.improvements++;
            snapshot();
            stagnation = 0;
        } else {
            stagnation++;
            if (stagnation > options.stagnation_limit) break;
        }
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
        spec.set_format(nodes[i], best_formats[i]);
    }
    stats.feasible = !eval->violates(accuracy_db);
    return stats;
}

/// Forwards an additive session but hides its split, as a simulation
/// session would: callers can screen nothing with it.
class SplitlessEvaluator final : public AccuracyEvaluator {
public:
    explicit SplitlessEvaluator(const AccuracyEvaluator& inner)
        : inner_(inner) {}

    double noise_power(const FixedPointSpec& spec) const override {
        return inner_.noise_power(spec);
    }

    std::unique_ptr<EvalSession> open_session(
        FixedPointSpec& spec) const override {
        return std::make_unique<Session>(inner_.open_session(spec));
    }

private:
    class Session final : public EvalSession {
    public:
        explicit Session(std::unique_ptr<EvalSession> inner)
            : inner_(std::move(inner)) {}
        double noise_power() override { return inner_->noise_power(); }
        void begin_probe() override { inner_->begin_probe(); }
        void end_probe() override { inner_->end_probe(); }
        FixedPointSpec& spec() override { return inner_->spec(); }

    private:
        std::unique_ptr<EvalSession> inner_;
    };

    const AccuracyEvaluator& inner_;
};

struct TabuRun {
    bool threw = false;
    std::vector<TabuMove> moves;
    TabuStats stats;
    std::vector<FixedFormat> formats;
};

TabuRun run_tabu(const kernels::BenchmarkKernel& bench,
                 const AccuracyEvaluator& evaluator, const TargetModel& target,
                 double db, bool full_scan) {
    FixedPointSpec spec = build_initial_spec(bench.kernel, bench.range_options);
    TabuRun run;
    try {
        run.stats = full_scan ? full_scan_tabu_wlo(spec, evaluator, target, db,
                                                   &run.moves)
                              : run_tabu_wlo(spec, evaluator, target, db, {},
                                             &run.moves);
    } catch (const Error&) {
        run.threw = true;
    }
    for (const NodeRef node : spec.nodes()) {
        run.formats.push_back(spec.format(node));
    }
    return run;
}

void expect_same_tabu(const TabuRun& got, const TabuRun& want,
                      const std::string& where) {
    ASSERT_EQ(got.threw, want.threw) << where;
    ASSERT_EQ(got.moves.size(), want.moves.size()) << where;
    for (size_t m = 0; m < got.moves.size(); ++m) {
        ASSERT_EQ(got.moves[m], want.moves[m]) << where << ", iteration " << m;
    }
    EXPECT_EQ(got.stats.iterations, want.stats.iterations) << where;
    EXPECT_EQ(got.stats.improvements, want.stats.improvements) << where;
    // Bitwise: the costs land in report bytes.
    EXPECT_EQ(std::bit_cast<uint64_t>(got.stats.initial_cost),
              std::bit_cast<uint64_t>(want.stats.initial_cost))
        << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.stats.best_cost),
              std::bit_cast<uint64_t>(want.stats.best_cost))
        << where;
    EXPECT_EQ(got.stats.feasible, want.stats.feasible) << where;
    EXPECT_EQ(got.formats, want.formats) << where;
}

/// The 4 built-ins, the 7 checked-in .slp kernels, and generated friendly
/// and SLP-hostile kernels of seeds 1-3.
const std::vector<kernels::BenchmarkKernel>& tabu_kernels() {
    static const std::vector<kernels::BenchmarkKernel> benches = [] {
        std::vector<kernels::BenchmarkKernel> out;
        for (const char* name : {"FIR", "IIR", "CONV", "DOT"}) {
            out.push_back(kernels::make_benchmark_kernel(name));
        }
        for (const char* file : {"dotprod", "fft4", "fir8", "matmul4",
                                 "memcpy2", "stencil1d", "stencil2d"}) {
            out.push_back(frontend::load_kernel_file(
                std::string(SLPWLO_SOURCE_DIR "/kernels/") + file + ".slp"));
        }
        frontend::GenOptions hostile;
        hostile.slp_hostile = true;
        for (const uint64_t seed : {1, 2, 3}) {
            out.push_back(frontend::generate_kernel(seed));
            out.push_back(frontend::generate_kernel(seed, hostile));
        }
        return out;
    }();
    return benches;
}

const std::vector<TargetModel>& tabu_targets() {
    static const std::vector<TargetModel> out{
        targets::xentium(), targets::vex4(), targets::by_name("ST240"),
        targets::by_name("VEX-1")};
    return out;
}

// The screen probes only the moves that can still win; every chosen move,
// the stats and the final formats must be the full scan's, bit for bit.
TEST(TabuWlo, ScreenedSearchMatchesFullScan) {
    long moves = 0;
    for (const kernels::BenchmarkKernel& bench : tabu_kernels()) {
        const AccuracyEvaluator& evaluator = cached_evaluator(bench.kernel);
        for (const TargetModel& target : tabu_targets()) {
            for (double db = -5.0; db >= -70.0; db -= 5.0) {
                const TabuRun want =
                    run_tabu(bench, evaluator, target, db, true);
                expect_same_tabu(run_tabu(bench, evaluator, target, db, false),
                                 want,
                                 bench.name + " on " + target.name + " at " +
                                     std::to_string(db) + " dB");
                moves += static_cast<long>(want.moves.size());
            }
        }
    }
    EXPECT_GT(moves, 0);
}

/// An additive evaluator over made-up terms whose means cancel: a term of
/// mean +2^53 first, one term per node of variance k = (32 - WL) / 8 and
/// mean 3k + 1, and a term of mean -2^53 last. Summed in order, every odd
/// running sum rounds at 2^53, so the closed-form V + M^2 of a move and
/// its summed one differ by whole units, as cancelling biases make them
/// differ. Only the screen's rounding margins keep its decisions the full
/// scan's here.
class CancellingEvaluator final : public AccuracyEvaluator {
public:
    explicit CancellingEvaluator(const Kernel& kernel)
        : nodes_(FixedPointSpec(kernel).nodes()) {}

    double noise_power(const FixedPointSpec& spec) const override {
        const NoiseSplit split = sum(spec);
        return split.variance + split.mean * split.mean;
    }

    std::unique_ptr<EvalSession> open_session(
        FixedPointSpec& spec) const override {
        return std::make_unique<Session>(*this, spec);
    }

private:
    NoiseTerm term(const FixedPointSpec& spec, uint32_t t) const {
        if (t == 0) return {0.0, 0x1p53};
        if (t == nodes_.size() + 1) return {0.0, -0x1p53};
        const double k = (32.0 - spec.format(nodes_[t - 1]).wl()) / 8.0;
        return {k, 3.0 * k + 1.0};
    }

    NoiseSplit sum(const FixedPointSpec& spec) const {
        NoiseSplit s;
        s.terms = nodes_.size() + 2;
        for (uint32_t t = 0; t < s.terms; ++t) {
            const NoiseTerm x = term(spec, t);
            s.variance += x.variance;
            s.mean += x.mean;
            s.abs_variance += std::fabs(x.variance);
            s.abs_mean += std::fabs(x.mean);
        }
        return s;
    }

    class Session final : public EvalSession {
    public:
        Session(const CancellingEvaluator& evaluator, FixedPointSpec& spec)
            : evaluator_(evaluator), spec_(spec) {
            for (size_t i = 0; i < evaluator.nodes_.size(); ++i) {
                terms_of_.push_back({static_cast<uint32_t>(i + 1)});
            }
        }
        double noise_power() override {
            return evaluator_.noise_power(spec_);
        }
        bool noise_split(NoiseSplit* split) override {
            *split = evaluator_.sum(spec_);
            return true;
        }
        std::span<const uint32_t> terms_of(NodeRef node) override {
            const auto& nodes = evaluator_.nodes_;
            return terms_of_[static_cast<size_t>(
                std::find(nodes.begin(), nodes.end(), node) - nodes.begin())];
        }
        NoiseTerm term(uint32_t index) override {
            return evaluator_.term(spec_, index);
        }
        FixedPointSpec& spec() override { return spec_; }

    private:
        const CancellingEvaluator& evaluator_;
        FixedPointSpec& spec_;
        std::vector<std::vector<uint32_t>> terms_of_;
    };

    std::vector<NodeRef> nodes_;
};

// Where cancellation makes the closed form and the summed noise disagree,
// the margins must leave the affected moves to the probe.
TEST(TabuWlo, ScreenMarginsHoldUnderCancellation) {
    for (const kernels::BenchmarkKernel& bench : tabu_kernels()) {
        if (bench.name != "fir8" && bench.name != "matmul4") continue;
        const CancellingEvaluator evaluator(bench.kernel);
        for (const TargetModel& target : tabu_targets()) {
            for (double db = 0.0; db <= 60.0; db += 1.0) {
                expect_same_tabu(run_tabu(bench, evaluator, target, db, false),
                                 run_tabu(bench, evaluator, target, db, true),
                                 bench.name + " on " + target.name + " at " +
                                     std::to_string(db) + " dB");
            }
        }
    }
}

// A session without the split leaves every move undecided: the one loop
// then probes the whole neighbourhood, and still matches the full scan.
TEST(TabuWlo, SplitlessSessionProbesEveryMove) {
    for (const kernels::BenchmarkKernel& bench : tabu_kernels()) {
        if (bench.name != "FIR" && bench.name != "fir8" &&
            bench.name != "stencil1d") {
            continue;
        }
        const SplitlessEvaluator splitless(cached_evaluator(bench.kernel));
        const CountingEvaluator screened(cached_evaluator(bench.kernel));
        const CountingEvaluator unscreened(splitless);
        for (const TargetModel& target : tabu_targets()) {
            for (const double db : {-20.0, -45.0, -70.0}) {
                const std::string where = bench.name + " on " + target.name +
                                          " at " + std::to_string(db) + " dB";
                const TabuRun want =
                    run_tabu(bench, splitless, target, db, true);
                expect_same_tabu(run_tabu(bench, unscreened, target, db, false),
                                 want, where + ", split hidden");
                expect_same_tabu(run_tabu(bench, screened, target, db, false),
                                 want, where);
            }
        }
        // Hidden, the split screens nothing; offered, it screens most
        // moves out.
        EXPECT_LT(screened.calls * 2, unscreened.calls) << bench.name;
    }
}

struct AccuracySlpRun {
    std::vector<std::vector<SimdGroup>> groups;
    std::vector<FixedFormat> formats;
    SlpStats stats;
    ConflictProbeStats conflicts;
    long evaluations = 0;
    long pairs = 0;  ///< conflict-hook answers
};

/// accuracy_aware_slp over every block, as run_slp_aware_wlo drives it,
/// with the conflict hook either the library's (closed-form filter, then
/// the memo, then a probe) or the reference: a fresh probe per pair
/// (checkpoint, equation (1) twice, violates, revert).
AccuracySlpRun run_accuracy_slp(const kernels::BenchmarkKernel& bench,
                                const TargetModel& target, double db,
                                bool strict, bool memoized) {
    const Kernel& kernel = bench.kernel;
    FixedPointSpec spec = build_initial_spec(kernel, bench.range_options);
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, target.max_wl());
    }
    const CountingEvaluator counting(cached_evaluator(kernel));
    AccuracySlpRun run;
    AccuracySlpConfig config;
    config.accuracy_db = db;
    config.strict_feasibility = strict;
    config.conflict_stats = &run.conflicts;

    for (const BlockId block : blocks_by_priority(kernel)) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        AccuracySlpHooks accuracy(view, spec, counting, target, config);
        const auto memo_hook = accuracy.hooks.add_conflicts;
        const std::unique_ptr<EvalSession> probe = counting.open_session(spec);
        accuracy.hooks.add_conflicts = [&](const std::vector<Candidate>&
                                               candidates,
                                           ConflictSet& conflicts) {
            // The pairs the hook answers: those not structurally
            // conflicting.
            const size_t n = candidates.size();
            for (size_t i = 0; i < n; ++i) {
                for (size_t j = i + 1; j < n; ++j) {
                    if (!conflicts.conflict(i, j)) run.pairs++;
                }
            }
            if (memoized) return memo_hook(candidates, conflicts);
            int added = 0;
            for (size_t i = 0; i < n; ++i) {
                for (size_t j = i + 1; j < n; ++j) {
                    if (conflicts.conflict(i, j)) continue;
                    const auto cp = spec.checkpoint();
                    for (const size_t k : {i, j}) {
                        const std::vector<OpId> lanes =
                            fused_lanes(view, candidates[k]);
                        set_group_max_wl(spec, lanes,
                                         static_cast<int>(lanes.size()),
                                         target);
                    }
                    const bool violated = probe->violates(db);
                    spec.revert(cp);
                    if (violated) {
                        conflicts.add(i, j);
                        added++;
                    }
                }
            }
            return added;
        };
        run.groups.push_back(
            extract_slp(view, target, config.slp, accuracy.hooks, &run.stats));
        accuracy.finish();
    }
    EXPECT_EQ(spec.open_checkpoints(), 0u);
    for (const NodeRef node : spec.nodes()) {
        run.formats.push_back(spec.format(node));
    }
    run.evaluations = counting.calls;
    return run;
}

void expect_same_run(const AccuracySlpRun& got, const AccuracySlpRun& want,
                     const std::string& where) {
    ASSERT_EQ(got.groups.size(), want.groups.size()) << where;
    for (size_t b = 0; b < got.groups.size(); ++b) {
        ASSERT_EQ(got.groups[b].size(), want.groups[b].size()) << where;
        for (size_t g = 0; g < got.groups[b].size(); ++g) {
            EXPECT_EQ(got.groups[b][g].lanes, want.groups[b][g].lanes)
                << where;
        }
    }
    EXPECT_EQ(got.formats, want.formats) << where;
    const SlpStats& a = got.stats;
    const SlpStats& e = want.stats;
    EXPECT_EQ(a.rounds, e.rounds) << where;
    EXPECT_EQ(a.candidates_seen, e.candidates_seen) << where;
    EXPECT_EQ(a.invalid_candidates, e.invalid_candidates) << where;
    EXPECT_EQ(a.structural_conflicts, e.structural_conflicts) << where;
    EXPECT_EQ(a.extra_conflicts, e.extra_conflicts) << where;
    EXPECT_EQ(a.selected, e.selected) << where;
    EXPECT_EQ(a.rejected_at_select, e.rejected_at_select) << where;
    EXPECT_EQ(a.devirtualized, e.devirtualized) << where;
    EXPECT_EQ(got.pairs, want.pairs) << where;
}

TEST(AccuracySlp, MemoizedConflictsMatchProbePerPair) {
    static const std::vector<kernels::BenchmarkKernel> benches = [] {
        std::vector<kernels::BenchmarkKernel> out{
            kernels::make_benchmark_kernel("CONV")};
        for (const char* file : {"dotprod", "fft4", "fir8", "matmul4",
                                 "memcpy2", "stencil1d", "stencil2d"}) {
            out.push_back(frontend::load_kernel_file(
                std::string(SLPWLO_SOURCE_DIR "/kernels/") + file + ".slp"));
        }
        frontend::GenOptions hostile;
        hostile.slp_hostile = true;
        for (const uint64_t seed : {2, 8}) {
            out.push_back(frontend::generate_kernel(seed));
        }
        for (const uint64_t seed : {1, 2}) {
            out.push_back(frontend::generate_kernel(seed, hostile));
        }
        return out;
    }();
    // VEX-4's 4x8 configuration makes equation (1) bite hard; XENTIUM's
    // 2x16 is the gentler case.
    const std::vector<TargetModel> targets_under_test{targets::xentium(),
                                                      targets::vex4()};
    // -10 dB is far from any violation; -40 to -60 dB is where candidates
    // turn invalid and pairs start to conflict. stencil2d has ~180k pairs
    // per point, each probed by the reference, so it runs at four of them
    // on VEX-4 and at -40 dB on XENTIUM.
    const std::vector<double> constraints{-10.0, -20.0, -30.0,
                                          -40.0, -50.0, -60.0};
    const std::vector<double> stencil2d_vex4{-10.0, -40.0, -50.0, -60.0};
    const std::vector<double> stencil2d_xentium{-40.0};
    // The kernels and points this test began with: on each of these
    // kernels alone, the filter and the memo must answer most pairs
    // without evaluating anything.
    const std::set<std::string> original_kernels{"CONV", "stencil2d",
                                                 "genh_2"};
    const std::set<double> original_dbs{-10.0, -40.0, -50.0, -60.0};
    struct Work {
        long evaluations = 0;
        long pairs = 0;
    };
    std::map<std::string, Work> original;
    // Every other point, summed: the tiniest generated kernels alone have
    // fewer pairs than validity and selection checks.
    Work rest;
    int extra_conflicts = 0;
    long long filter_decided = 0;
    for (const kernels::BenchmarkKernel& bench : benches) {
        for (const TargetModel& target : targets_under_test) {
            const std::vector<double>& dbs =
                bench.name != "stencil2d" ? constraints
                : target.name == "VEX-4"  ? stencil2d_vex4
                                          : stencil2d_xentium;
            for (const double db : dbs) {
                const bool original_point =
                    original_kernels.count(bench.name) != 0 &&
                    target.name == "VEX-4" && original_dbs.count(db) != 0;
                // Strictness changes selection, not conflicts: the
                // non-strict variant runs on VEX-4 for three kernels only.
                const bool lax_too =
                    target.name == "VEX-4" &&
                    original_kernels.count(bench.name) != 0;
                for (const bool strict : {true, false}) {
                    if (!strict && !lax_too) continue;
                    const AccuracySlpRun got =
                        run_accuracy_slp(bench, target, db, strict, true);
                    expect_same_run(
                        got,
                        run_accuracy_slp(bench, target, db, strict, false),
                        bench.name + " on " + target.name + " at " +
                            std::to_string(db) +
                            (strict ? " dB, strict" : " dB"));
                    Work& work =
                        original_point ? original[bench.name] : rest;
                    work.evaluations += got.evaluations;
                    work.pairs += got.pairs;
                    extra_conflicts += got.stats.extra_conflicts;
                    filter_decided += got.conflicts.filter_decided;
                    // Every probe is one evaluation of the wrapped
                    // session.
                    EXPECT_LE(got.conflicts.probes, got.evaluations);
                }
            }
        }
    }
    for (const std::string& name : original_kernels) {
        EXPECT_GT(original[name].pairs, 0) << name;
        EXPECT_LT(original[name].evaluations, original[name].pairs) << name;
    }
    EXPECT_LT(rest.evaluations, rest.pairs);
    // Some pairs must really conflict, or the stored answers were never
    // put to the test; and the filter must have decided some, or the
    // comparison never covered it.
    EXPECT_GT(extra_conflicts, 0);
    EXPECT_GT(filter_decided, 0);
}

/// One candidate's equation-(1) change as the filter sees it: the noise
/// terms it touches and its effect on V and M.
struct TermDelta {
    std::vector<uint32_t> terms;
    double variance = 0.0;
    double mean = 0.0;
};

TermDelta term_delta(const PackedView& view, const Candidate& candidate,
                     FixedPointSpec& spec, EvalSession& session,
                     const TargetModel& target) {
    TermDelta delta;
    const std::vector<OpId> lanes = fused_lanes(view, candidate);
    const int m =
        *target.realized_element_wl(static_cast<int>(lanes.size()));
    for (const OpId lane : lanes) {
        const NodeRef node = spec.node_of(lane);
        if (spec.format(node).wl() <= m) continue;
        for (const uint32_t t : session.terms_of(node)) {
            delta.terms.push_back(t);
        }
    }
    std::sort(delta.terms.begin(), delta.terms.end());
    delta.terms.erase(std::unique(delta.terms.begin(), delta.terms.end()),
                      delta.terms.end());
    std::vector<NoiseTerm> before;
    for (const uint32_t t : delta.terms) before.push_back(session.term(t));
    const auto cp = spec.checkpoint();
    set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()), target);
    for (size_t k = 0; k < delta.terms.size(); ++k) {
        const NoiseTerm after = session.term(delta.terms[k]);
        delta.variance += after.variance - before[k].variance;
        delta.mean += after.mean - before[k].mean;
    }
    spec.revert(cp);
    return delta;
}

// A pair whose closed-form noise sits exactly on the constraint must be
// left to the probe; one dB either side, the filter decides it alone.
TEST(AccuracySlp, FilterDefersInsideItsMargin) {
    const kernels::BenchmarkKernel bench =
        kernels::make_benchmark_kernel("CONV");
    const Kernel& kernel = bench.kernel;
    const TargetModel target = targets::vex4();
    FixedPointSpec spec = build_initial_spec(kernel, bench.range_options);
    for (const NodeRef node : spec.nodes()) {
        spec.set_wl(node, target.max_wl());
    }
    const AccuracyEvaluator& evaluator = cached_evaluator(kernel);
    PackedView view(kernel, blocks_by_priority(kernel).front());
    const std::vector<Candidate> candidates = extract_candidates(view, target);
    const std::unique_ptr<EvalSession> session = evaluator.open_session(spec);
    NoiseSplit base;
    ASSERT_TRUE(session->noise_split(&base));

    // The first pair touching disjoint, non-empty term sets.
    std::vector<TermDelta> deltas;
    for (const Candidate& c : candidates) {
        deltas.push_back(term_delta(view, c, spec, *session, target));
    }
    size_t pi = candidates.size(), pj = candidates.size();
    for (size_t i = 0; i < candidates.size() && pi == candidates.size(); ++i) {
        for (size_t j = i + 1; j < candidates.size(); ++j) {
            const TermDelta& a = deltas[i];
            const TermDelta& b = deltas[j];
            std::vector<uint32_t> shared;
            std::set_intersection(a.terms.begin(), a.terms.end(),
                                  b.terms.begin(), b.terms.end(),
                                  std::back_inserter(shared));
            if (!a.terms.empty() && !b.terms.empty() && shared.empty()) {
                pi = i;
                pj = j;
                break;
            }
        }
    }
    ASSERT_LT(pi, candidates.size()) << "no pair with disjoint terms";
    const double v = base.variance + deltas[pi].variance + deltas[pj].variance;
    const double m = base.mean + deltas[pi].mean + deltas[pj].mean;
    const double closed_form_db = power_to_db(v + m * m);

    // The probe's answer at a constraint: both candidates applied.
    auto probe = [&](double db) {
        const auto cp = spec.checkpoint();
        for (const size_t k : {pi, pj}) {
            const std::vector<OpId> lanes = fused_lanes(view, candidates[k]);
            set_group_max_wl(spec, lanes, static_cast<int>(lanes.size()),
                             target);
        }
        const bool violated = session->violates(db);
        spec.revert(cp);
        return violated;
    };
    struct Case {
        double db;
        long long filter_decided;
        long long probes;
    };
    for (const Case& c : {Case{closed_form_db, 0, 1},
                          Case{closed_form_db + 1.0, 1, 0},
                          Case{closed_form_db - 1.0, 1, 0}}) {
        ConflictProbeStats counts;
        AccuracySlpConfig config;
        config.accuracy_db = c.db;
        config.conflict_stats = &counts;
        AccuracySlpHooks hooks(view, spec, evaluator, target, config);
        hooks.hooks.round_begin();
        // The pair alone as a round: its classes are the ones it has
        // among all the candidates.
        ConflictSet conflicts(2);
        const int added = hooks.hooks.add_conflicts(
            {candidates[pi], candidates[pj]}, conflicts);
        const bool got = conflicts.conflict(0, 1);
        EXPECT_EQ(added, got ? 1 : 0) << c.db << " dB";
        hooks.finish();
        EXPECT_EQ(got, probe(c.db)) << c.db << " dB";
        EXPECT_EQ(counts.filter_decided, c.filter_decided) << c.db << " dB";
        EXPECT_EQ(counts.probes, c.probes) << c.db << " dB";
    }
    EXPECT_EQ(spec.open_checkpoints(), 0u);
}

// --- the round-1 plan against the per-point search -------------------------------

/// What the accuracy hooks decided over one accuracy_aware_slp run per
/// block: every validity verdict and every round's conflict set after
/// the accuracy hook, in the order the engine asked.
struct HookRecord {
    std::vector<bool> verdicts;
    std::vector<ConflictSet> conflicts;
    std::vector<int> added;
    std::vector<std::vector<SimdGroup>> groups;
    std::vector<FixedFormat> formats;
    SlpStats stats;
    ConflictProbeStats probes;
};

/// run_slp_aware_wlo's extraction loop from `spec`'s current state, with
/// the library's hooks, recorded; `plans` null runs every round per point.
HookRecord record_hooks(const Kernel& kernel, FixedPointSpec& spec,
                        const AccuracyEvaluator& evaluator,
                        const TargetModel& target, double db,
                        SlpPlanCache* plans) {
    HookRecord record;
    AccuracySlpConfig config;
    config.accuracy_db = db;
    config.conflict_stats = &record.probes;
    config.plans = plans;
    for (const BlockId block : blocks_by_priority(kernel)) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        AccuracySlpHooks accuracy(view, spec, evaluator, target, config);
        const auto valid = accuracy.hooks.candidate_valid;
        accuracy.hooks.candidate_valid = [&](const Candidate& c) {
            const bool ok = valid(c);
            record.verdicts.push_back(ok);
            return ok;
        };
        const auto add = accuracy.hooks.add_conflicts;
        accuracy.hooks.add_conflicts = [&](const std::vector<Candidate>&
                                               candidates,
                                           ConflictSet& conflicts) {
            const int added = add(candidates, conflicts);
            record.conflicts.push_back(conflicts);
            record.added.push_back(added);
            return added;
        };
        record.groups.push_back(extract_slp(view, target, config.slp,
                                            accuracy.hooks, &record.stats));
        accuracy.finish();
    }
    EXPECT_EQ(spec.open_checkpoints(), 0u);
    for (const NodeRef node : spec.nodes()) {
        record.formats.push_back(spec.format(node));
    }
    return record;
}

void expect_same_record(const HookRecord& got, const HookRecord& want,
                        const std::string& where) {
    EXPECT_EQ(got.verdicts, want.verdicts) << where;
    ASSERT_EQ(got.conflicts.size(), want.conflicts.size()) << where;
    for (size_t r = 0; r < got.conflicts.size(); ++r) {
        EXPECT_TRUE(got.conflicts[r] == want.conflicts[r])
            << where << ", round " << r;
    }
    EXPECT_EQ(got.added, want.added) << where;
    ASSERT_EQ(got.groups.size(), want.groups.size()) << where;
    for (size_t b = 0; b < got.groups.size(); ++b) {
        ASSERT_EQ(got.groups[b].size(), want.groups[b].size()) << where;
        for (size_t g = 0; g < got.groups[b].size(); ++g) {
            EXPECT_EQ(got.groups[b][g].lanes, want.groups[b][g].lanes)
                << where;
        }
    }
    EXPECT_EQ(got.formats, want.formats) << where;
    const SlpStats& a = got.stats;
    const SlpStats& e = want.stats;
    EXPECT_EQ(a.rounds, e.rounds) << where;
    EXPECT_EQ(a.candidates_seen, e.candidates_seen) << where;
    EXPECT_EQ(a.invalid_candidates, e.invalid_candidates) << where;
    EXPECT_EQ(a.structural_conflicts, e.structural_conflicts) << where;
    EXPECT_EQ(a.extra_conflicts, e.extra_conflicts) << where;
    EXPECT_EQ(a.selected, e.selected) << where;
    EXPECT_EQ(a.rejected_at_select, e.rejected_at_select) << where;
    EXPECT_EQ(a.devirtualized, e.devirtualized) << where;
}

/// The 4 built-ins, the 7 checked-in .slp kernels, and generated
/// friendly and SLP-hostile kernels of seeds 1-5.
const std::vector<kernels::BenchmarkKernel>& plan_kernels() {
    static const std::vector<kernels::BenchmarkKernel> benches = [] {
        std::vector<kernels::BenchmarkKernel> out;
        for (const char* name : {"FIR", "IIR", "CONV", "DOT"}) {
            out.push_back(kernels::make_benchmark_kernel(name));
        }
        for (const char* file : {"dotprod", "fft4", "fir8", "matmul4",
                                 "memcpy2", "stencil1d", "stencil2d"}) {
            out.push_back(frontend::load_kernel_file(
                std::string(SLPWLO_SOURCE_DIR "/kernels/") + file + ".slp"));
        }
        frontend::GenOptions hostile;
        hostile.slp_hostile = true;
        for (const uint64_t seed : {1, 2, 3, 4, 5}) {
            out.push_back(frontend::generate_kernel(seed));
            out.push_back(frontend::generate_kernel(seed, hostile));
        }
        return out;
    }();
    return benches;
}

// One plan per kernel, target and block base serves every constraint of
// the grid, and each point reaches exactly what its own search reaches:
// the same validity verdicts, conflict sets, groups, stats and spec.
TEST(AccuracySlp, RoundOnePlanMatchesPerPointSearch) {
    long long planned_probes = 0;
    long long per_point_probes = 0;
    for (const kernels::BenchmarkKernel& bench : plan_kernels()) {
        const Kernel& kernel = bench.kernel;
        const AccuracyEvaluator& evaluator = cached_evaluator(kernel);
        for (const TargetModel& target :
             {targets::xentium(), targets::vex4()}) {
            SlpPlanCache plans;
            int points = 0;
            for (double db = -5.0; db >= -70.0; db -= 5.0) {
                FixedPointSpec base =
                    build_initial_spec(kernel, bench.range_options);
                for (const NodeRef node : base.nodes()) {
                    base.set_wl(node, target.max_wl());
                }
                if (evaluator.violates(base, db)) continue;
                const std::string where = bench.name + " on " + target.name +
                                          " at " + std::to_string(db) + " dB";
                FixedPointSpec planned_spec = base;
                FixedPointSpec reference_spec = base;
                const HookRecord got = record_hooks(
                    kernel, planned_spec, evaluator, target, db, &plans);
                const HookRecord want = record_hooks(
                    kernel, reference_spec, evaluator, target, db, nullptr);
                expect_same_record(got, want, where);
                planned_probes += got.probes.probes;
                per_point_probes += want.probes.probes;
                points++;
            }
            // The first block's plan is shared by every point.
            if (points > 1) {
                EXPECT_LT(plans.size(), static_cast<size_t>(points))
                    << bench.name << " on " << target.name;
            }
        }
    }
    EXPECT_LT(planned_probes, per_point_probes);
}

// Where cancellation makes the closed form and the summed noise disagree,
// the plan's Interval bounds must leave the affected pairs to the probe.
TEST(AccuracySlp, PlanMarginsHoldUnderCancellation) {
    for (const kernels::BenchmarkKernel& bench : plan_kernels()) {
        if (bench.name != "fir8" && bench.name != "matmul4") continue;
        const Kernel& kernel = bench.kernel;
        const CancellingEvaluator evaluator(kernel);
        for (const TargetModel& target :
             {targets::xentium(), targets::vex4()}) {
            SlpPlanCache plans;
            for (double db = 0.0; db <= 60.0; db += 1.0) {
                FixedPointSpec base =
                    build_initial_spec(kernel, bench.range_options);
                for (const NodeRef node : base.nodes()) {
                    base.set_wl(node, target.max_wl());
                }
                FixedPointSpec planned = base;
                FixedPointSpec reference = base;
                expect_same_record(
                    record_hooks(kernel, planned, evaluator, target, db,
                                 &plans),
                    record_hooks(kernel, reference, evaluator, target, db,
                                 nullptr),
                    bench.name + " on " + target.name + " at " +
                        std::to_string(db) + " dB");
            }
        }
    }
}

// A plan serves only the base it was built from: one node a step
// narrower is a different key, planned afresh, and still matches the
// per-point search.
TEST(AccuracySlp, PlanServesOnlyItsOwnBase) {
    for (const kernels::BenchmarkKernel& bench : plan_kernels()) {
        if (bench.name != "FIR" && bench.name != "stencil1d") continue;
        const Kernel& kernel = bench.kernel;
        const AccuracyEvaluator& evaluator = cached_evaluator(kernel);
        const TargetModel target = targets::vex4();
        const double db = -30.0;
        FixedPointSpec base = build_initial_spec(kernel, bench.range_options);
        for (const NodeRef node : base.nodes()) {
            base.set_wl(node, target.max_wl());
        }
        SlpPlanCache plans;
        FixedPointSpec first = base;
        record_hooks(kernel, first, evaluator, target, db, &plans);
        const size_t built = plans.size();
        ASSERT_GT(built, 0u) << bench.name;
        // The same base again: served, nothing new is built.
        FixedPointSpec again = base;
        record_hooks(kernel, again, evaluator, target, db, &plans);
        EXPECT_EQ(plans.size(), built) << bench.name;

        // Narrow one node of the first block: a new base.
        const BlockId block = blocks_by_priority(kernel).front();
        const NodeRef node =
            base.node_of(kernel.block(block).ops.front());
        base.set_wl(node, base.format(node).wl() - 1);
        FixedPointSpec planned = base;
        FixedPointSpec reference = base;
        const HookRecord got =
            record_hooks(kernel, planned, evaluator, target, db, &plans);
        EXPECT_GT(plans.size(), built) << bench.name;
        expect_same_record(
            got,
            record_hooks(kernel, reference, evaluator, target, db, nullptr),
            bench.name + " from a narrowed base");
    }
}

}  // namespace
}  // namespace slpwlo

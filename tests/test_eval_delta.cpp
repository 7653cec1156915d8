// Incremental (delta) evaluation vs full recompute: the sessions'
// contract is strict bit-identity, so every comparison here is on the
// raw IEEE-754 bits, never within a tolerance.
#include <gtest/gtest.h>

#include <cstring>

#include "accuracy/analytic_evaluator.hpp"
#include "core/wl_cost_model.hpp"
#include "frontend/kernel_file.hpp"
#include "kernels/kernel_registry.hpp"
#include "support/rng.hpp"
#include "target/target_model.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::cached_evaluator;
using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::set_uniform_wl;
using ::slpwlo::testing::small_conv;
using ::slpwlo::testing::small_fir;
using ::slpwlo::testing::small_iir;

uint64_t bits_of(double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

const std::vector<const Kernel*>& test_kernels() {
    static const std::vector<const Kernel*> kernels = {
        &small_fir(), &small_iir(), &small_conv()};
    return kernels;
}

constexpr int kWlMenu[] = {8, 10, 12, 16, 20, 24, 32};

/// A random node/WL move drawn from the menu.
struct RandomMoves {
    explicit RandomMoves(const FixedPointSpec& spec, uint64_t seed)
        : nodes_(spec.nodes()), rng_(seed, "test/eval-delta") {}

    NodeRef node() {
        return nodes_[static_cast<size_t>(
            rng_.uniform_int(0, static_cast<int>(nodes_.size()) - 1))];
    }
    int wl() {
        return kWlMenu[static_cast<size_t>(
            rng_.uniform_int(0, static_cast<int>(std::size(kWlMenu)) - 1))];
    }

    std::vector<NodeRef> nodes_;
    Rng rng_;
};

TEST(EvalDelta, SessionTracksRandomCommittedMovesBitExactly) {
    for (const Kernel* kernel : test_kernels()) {
        const AnalyticEvaluator& evaluator = cached_evaluator(*kernel);
        FixedPointSpec spec = initial_spec(*kernel);
        set_uniform_wl(spec, 32);

        const auto session = evaluator.open_session(spec);
        RandomMoves moves(spec, 0xDE17A);
        for (int i = 0; i < 200; ++i) {
            spec.set_wl(moves.node(), moves.wl());
            ASSERT_EQ(bits_of(session->noise_power()),
                      bits_of(evaluator.noise_power(spec)))
                << kernel->name() << " move " << i;
        }
    }
}

TEST(EvalDelta, CostSessionTracksRandomCommittedMovesBitExactly) {
    const TargetModel target = targets::xentium();
    for (const Kernel* kernel : test_kernels()) {
        const WlCostModel model(*kernel, target);
        FixedPointSpec spec = initial_spec(*kernel);
        set_uniform_wl(spec, 32);

        const auto session = model.open_session(spec);
        RandomMoves moves(spec, 0xC057);
        for (int i = 0; i < 200; ++i) {
            spec.set_wl(moves.node(), moves.wl());
            ASSERT_EQ(bits_of(session->cost()), bits_of(model.cost(spec)))
                << kernel->name() << " move " << i;
        }
    }
}

TEST(EvalDelta, PreviewMoveIsExactAndLeavesSpecUnchanged) {
    const TargetModel target = targets::xentium();
    for (const Kernel* kernel : test_kernels()) {
        const AnalyticEvaluator& evaluator = cached_evaluator(*kernel);
        const WlCostModel model(*kernel, target);
        FixedPointSpec spec = initial_spec(*kernel);
        set_uniform_wl(spec, 24);

        const auto eval = evaluator.open_session(spec);
        const auto costs = model.open_session(spec);
        RandomMoves moves(spec, 0x9E3779);
        for (int i = 0; i < 100; ++i) {
            const NodeRef node = moves.node();
            const int wl = moves.wl();
            const FixedFormat before = spec.format(node);

            // Reference: apply the move on a copy, recompute from scratch.
            FixedPointSpec applied = spec;
            applied.set_wl(node, wl);
            const double want_noise = evaluator.noise_power(applied);
            const double want_cost = model.cost(applied);

            ASSERT_EQ(bits_of(eval->preview_move(node, wl)),
                      bits_of(want_noise))
                << kernel->name() << " preview " << i;
            ASSERT_EQ(bits_of(costs->preview_move(node, wl)),
                      bits_of(want_cost))
                << kernel->name() << " preview " << i;

            // The preview must not leak into the spec or the cache.
            ASSERT_EQ(spec.format(node).iwl, before.iwl);
            ASSERT_EQ(spec.format(node).fwl, before.fwl);
            ASSERT_EQ(bits_of(eval->noise_power()),
                      bits_of(evaluator.noise_power(spec)));
            ASSERT_EQ(bits_of(costs->cost()), bits_of(model.cost(spec)));

            // Occasionally commit so the walk covers many base specs.
            if (i % 7 == 0) {
                spec.set_wl(node, wl);
            }
        }
    }
}

/// The registry's kernels and the kernels/*.slp corpus, built once.
const std::vector<kernels::BenchmarkKernel>& registry_and_corpus() {
    static const std::vector<kernels::BenchmarkKernel> benches = [] {
        std::vector<kernels::BenchmarkKernel> out;
        kernels::KernelRegistry& registry =
            kernels::KernelRegistry::instance();
        for (const std::string& name : kernels::benchmark_kernel_names()) {
            out.push_back(registry.get(name));
        }
        for (const std::string& name :
             frontend::load_kernel_corpus(SLPWLO_SOURCE_DIR "/kernels")) {
            out.push_back(registry.get(name));
        }
        return out;
    }();
    return benches;
}

/// Whether the session's noise_power() and the sum its noise_split()
/// describes both carry the full recompute's bits for the spec's
/// current state.
bool session_matches(EvalSession& session, const AccuracyEvaluator& evaluator,
                     const FixedPointSpec& spec) {
    const uint64_t want = bits_of(evaluator.noise_power(spec));
    NoiseSplit split;
    return bits_of(session.noise_power()) == want &&
           session.noise_split(&split) &&
           bits_of(split.variance + split.mean * split.mean) == want;
}

TEST(EvalDelta, ProbeBracketsRestoreTheCacheBitExactly) {
    const TargetModel target = targets::xentium();
    const Kernel& kernel = small_fir();
    const AnalyticEvaluator& evaluator = cached_evaluator(kernel);
    const WlCostModel model(kernel, target);
    FixedPointSpec spec = initial_spec(kernel);
    set_uniform_wl(spec, 16);

    const auto eval = evaluator.open_session(spec);
    const auto costs = model.open_session(spec);
    RandomMoves moves(spec, 0xB0B);
    for (int i = 0; i < 200; ++i) {
        const NodeRef node = moves.node();
        const int wl = moves.wl();
        const FixedFormat saved = spec.format(node);

        // The Tabu candidate shape: a probe window on each session,
        // queries interleaved inside.
        eval->begin_probe();
        costs->begin_probe();
        spec.set_wl(node, wl);
        const double probe_noise = eval->noise_power();
        const double probe_cost = costs->cost();
        ASSERT_EQ(bits_of(probe_noise), bits_of(evaluator.noise_power(spec)));
        ASSERT_EQ(bits_of(probe_cost), bits_of(model.cost(spec)));
        spec.set_format(node, saved);
        eval->end_probe();
        costs->end_probe();

        ASSERT_EQ(bits_of(eval->noise_power()),
                  bits_of(evaluator.noise_power(spec)))
            << "probe " << i;
        ASSERT_EQ(bits_of(costs->cost()), bits_of(model.cost(spec)))
            << "probe " << i;

        if (i % 5 == 0) {
            spec.set_wl(moves.node(), moves.wl());  // drift the base spec
        }
    }

    // The SLP probe shape: windows over 1-6 random nodes reverted through
    // a checkpoint, with a nested checkpoint inside, queries at random
    // points (a term may be refreshed several times in one window, or
    // never), and committed moves between windows that the next window
    // must pick up first.
    int windows = 0;
    for (const kernels::BenchmarkKernel& bench : registry_and_corpus()) {
        const AnalyticEvaluator& full = cached_evaluator(bench.kernel);
        FixedPointSpec base = build_initial_spec(bench.kernel,
                                                 bench.range_options);
        set_uniform_wl(base, 24);
        const auto session = full.open_session(base);
        const WlCostModel cost_model(bench.kernel, targets::xentium());
        const auto costs = cost_model.open_session(base);
        auto costs_match = [&] {
            return bits_of(costs->cost()) == bits_of(cost_model.cost(base));
        };
        RandomMoves walk(base, 0x9B0BE);
        auto draw = [&walk](int lo, int hi) {
            return walk.rng_.uniform_int(lo, hi);
        };
        for (int w = 0; w < 60; ++w) {
            const std::string where =
                bench.name + " window " + std::to_string(w);
            session->begin_probe();
            costs->begin_probe();
            const auto outer = base.checkpoint();
            const int count = draw(1, 6);
            for (int k = 0; k < count; ++k) {
                base.set_wl(walk.node(), walk.wl());
            }
            if (draw(0, 2) != 0) {
                ASSERT_TRUE(session_matches(*session, full, base)) << where;
                ASSERT_TRUE(costs_match()) << where;
            }
            const auto inner = base.checkpoint();
            for (int k = draw(1, 3); k > 0; --k) {
                base.set_wl(walk.node(), walk.wl());
            }
            if (draw(0, 1) != 0) {
                ASSERT_TRUE(session_matches(*session, full, base)) << where;
            }
            if (draw(0, 1) != 0) {
                base.revert(inner);
            } else {
                base.commit(inner);
            }
            if (draw(0, 1) != 0) {
                ASSERT_TRUE(session_matches(*session, full, base)) << where;
            }
            base.revert(outer);
            session->end_probe();
            costs->end_probe();
            ASSERT_TRUE(session_matches(*session, full, base)) << where;
            ASSERT_TRUE(costs_match()) << where;
            windows++;
            for (int k = draw(0, 2); k > 0; --k) {
                base.set_wl(walk.node(), walk.wl());
            }
        }
        EXPECT_EQ(base.open_checkpoints(), 0u);
    }
    EXPECT_GE(windows, 60 * 11);
}

TEST(EvalDelta, SessionsResyncThroughCheckpointRevert) {
    const TargetModel target = targets::xentium();
    for (const Kernel* kernel : test_kernels()) {
        const AnalyticEvaluator& evaluator = cached_evaluator(*kernel);
        const WlCostModel model(*kernel, target);
        FixedPointSpec spec = initial_spec(*kernel);
        set_uniform_wl(spec, 20);

        const auto eval = evaluator.open_session(spec);
        const auto costs = model.open_session(spec);
        RandomMoves moves(spec, 0xCAFE);
        for (int round = 0; round < 20; ++round) {
            const auto cp = spec.checkpoint();
            for (int m = 0; m < 5; ++m) {
                spec.set_wl(moves.node(), moves.wl());
            }
            ASSERT_EQ(bits_of(eval->noise_power()),
                      bits_of(evaluator.noise_power(spec)));
            ASSERT_EQ(bits_of(costs->cost()), bits_of(model.cost(spec)));

            if (round % 2 == 0) {
                spec.revert(cp);
            } else {
                spec.commit(cp);
            }
            ASSERT_EQ(bits_of(eval->noise_power()),
                      bits_of(evaluator.noise_power(spec)))
                << kernel->name() << " round " << round;
            ASSERT_EQ(bits_of(costs->cost()), bits_of(model.cost(spec)))
                << kernel->name() << " round " << round;
        }
    }
}

/// Checkpoints are an undo log; the reference here is the obvious
/// implementation — a full copy of every format per open checkpoint.
/// Random nested checkpoint/set/revert/commit sequences must restore
/// exactly the copied formats, and an open session must keep tracking
/// the spec bit for bit through every revert.
TEST(EvalDelta, UndoLogCheckpointsMatchFullCopies) {
    for (const Kernel* kernel : test_kernels()) {
        const AnalyticEvaluator& evaluator = cached_evaluator(*kernel);
        FixedPointSpec spec = initial_spec(*kernel);
        set_uniform_wl(spec, 20);
        const auto eval = evaluator.open_session(spec);
        RandomMoves moves(spec, 0x5EED);

        auto formats = [&spec] {
            std::vector<FixedFormat> out;
            for (const NodeRef node : spec.nodes()) {
                out.push_back(spec.format(node));
            }
            return out;
        };
        auto same = [](const std::vector<FixedFormat>& a,
                       const std::vector<FixedFormat>& b) {
            if (a.size() != b.size()) return false;
            for (size_t i = 0; i < a.size(); ++i) {
                if (a[i].iwl != b[i].iwl || a[i].fwl != b[i].fwl) return false;
            }
            return true;
        };

        std::vector<std::pair<FixedPointSpec::Checkpoint,
                              std::vector<FixedFormat>>>
            open;
        int reverts = 0;
        for (int step = 0; step < 600; ++step) {
            const int action = moves.rng_.uniform_int(0, 9);
            if (action < 5) {
                const NodeRef node = moves.node();
                if (action == 0) {
                    spec.set_iwl(node, spec.format(node).iwl + 1);
                } else {
                    spec.set_wl(node, moves.wl());
                }
            } else if (action < 7 && open.size() < 6) {
                open.emplace_back(spec.checkpoint(), formats());
            } else if (!open.empty()) {
                if (action < 9) {
                    spec.revert(open.back().first);
                    ASSERT_TRUE(same(formats(), open.back().second))
                        << kernel->name() << " step " << step;
                    ASSERT_EQ(bits_of(eval->noise_power()),
                              bits_of(evaluator.noise_power(spec)))
                        << kernel->name() << " step " << step;
                    reverts++;
                } else {
                    spec.commit(open.back().first);
                }
                open.pop_back();
            }
            ASSERT_EQ(spec.open_checkpoints(), open.size());
        }
        while (!open.empty()) {
            spec.revert(open.back().first);
            ASSERT_TRUE(same(formats(), open.back().second));
            open.pop_back();
        }
        ASSERT_EQ(bits_of(eval->noise_power()),
                  bits_of(evaluator.noise_power(spec)));
        EXPECT_GT(reverts, 20) << kernel->name();
    }
}

}  // namespace
}  // namespace slpwlo

// Tests for the SLP substrate: packed view, candidates, conflicts,
// economics, extraction engine and the plain (WLO-First) extractor.
#include <gtest/gtest.h>

#include <set>

#include "frontend/kernel_file.hpp"
#include "frontend/kernel_gen.hpp"
#include "kernels/kernel_registry.hpp"
#include "slp/plain_extractor.hpp"
#include "support/diagnostics.hpp"
#include "target/target_desc.hpp"
#include "target/target_model.hpp"
#include "target/target_registry.hpp"
#include "test_util.hpp"

namespace slpwlo {
namespace {

using ::slpwlo::testing::initial_spec;
using ::slpwlo::testing::set_uniform_wl;
using ::slpwlo::testing::small_fir;

BlockId hot_block(const Kernel& k) {
    BlockId best = k.blocks_in_order().front();
    for (const BlockId b : k.blocks_in_order()) {
        if (k.block_frequency(b) > k.block_frequency(best)) best = b;
    }
    return best;
}

// --- PackedView ---------------------------------------------------------------

TEST(PackedView, InitialNodesAreScalar) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    EXPECT_EQ(view.size(), 16);  // 4 lanes x (2 loads + mul + add)
    for (int i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view.width(i), 1);
    }
    EXPECT_TRUE(view.groups().empty());
}

TEST(PackedView, FuseCreatesWiderNodes) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    // Find two independent muls.
    std::vector<int> muls;
    for (int i = 0; i < view.size(); ++i) {
        if (view.kind(i) == OpKind::Mul) muls.push_back(i);
    }
    ASSERT_GE(muls.size(), 2u);
    ASSERT_TRUE(view.independent(muls[0], muls[1]));
    view.fuse({{muls[0], muls[1]}});
    EXPECT_EQ(view.size(), 15);
    const auto groups = view.groups();
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].width(), 2);
}

TEST(PackedView, DependenceThroughLanes) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    // The add consuming a mul's result depends on it; fusing keeps that.
    int mul = -1, add = -1;
    for (int i = 0; i < view.size(); ++i) {
        if (view.kind(i) == OpKind::Mul && mul < 0) mul = i;
        if (view.kind(i) == OpKind::Add && add < 0) add = i;
    }
    ASSERT_GE(mul, 0);
    ASSERT_GE(add, 0);
    EXPECT_TRUE(view.depends(add, mul) || view.independent(add, mul));
}

TEST(PackedView, SelfAccumulatorHasExternalUses) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    for (int i = 0; i < view.size(); ++i) {
        if (view.kind(i) == OpKind::Add) {
            // acc feeds the reduction in another block.
            EXPECT_TRUE(view.has_external_uses(view.node(i).lanes[0]));
        }
    }
}

TEST(PackedView, IncrementalDepsMatchFullRebuild) {
    // fuse/split maintain the node dependence matrix incrementally; every
    // intermediate state must match the from-scratch recomputation bit
    // for bit.
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));

    const auto check = [&](const std::string& stage) {
        const auto full = view.full_node_deps();
        for (int i = 0; i < view.size(); ++i) {
            for (int j = 0; j < view.size(); ++j) {
                if (i == j) continue;
                ASSERT_EQ(view.depends(i, j), full[i][j])
                    << stage << ": nodes (" << i << ", " << j << ")";
            }
        }
    };
    check("initial");

    // Greedy rounds of same-kind equal-width pair fusion: round 1 builds
    // 2-lane groups, round 2 widens to 4, exercising multi-lane unions.
    for (int round = 0; round < 3; ++round) {
        std::vector<std::vector<int>> tuples;
        std::vector<bool> used(static_cast<size_t>(view.size()), false);
        for (int i = 0; i < view.size(); ++i) {
            if (used[static_cast<size_t>(i)]) continue;
            for (int j = i + 1; j < view.size(); ++j) {
                if (used[static_cast<size_t>(j)]) continue;
                if (view.kind(i) != view.kind(j)) continue;
                if (view.width(i) != view.width(j)) continue;
                if (!view.independent(i, j)) continue;
                tuples.push_back({i, j});
                used[static_cast<size_t>(i)] = true;
                used[static_cast<size_t>(j)] = true;
                break;
            }
        }
        if (tuples.empty()) break;
        view.fuse(tuples);
        check("after fuse round " + std::to_string(round));
    }
    ASSERT_FALSE(view.groups().empty());

    // Split half the groups (narrowing only the affected rows/columns),
    // then the rest (back to the all-scalar view).
    std::vector<int> wide;
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) >= 2) wide.push_back(i);
    }
    std::vector<int> first_half(wide.begin(),
                                wide.begin() + (wide.size() + 1) / 2);
    view.split_to_scalars(first_half);
    check("after partial split");

    wide.clear();
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) >= 2) wide.push_back(i);
    }
    view.split_to_scalars(wide);
    check("after full split");
    for (int i = 0; i < view.size(); ++i) {
        EXPECT_EQ(view.width(i), 1);
    }
}

// --- candidates -----------------------------------------------------------------

TEST(Candidates, IsomorphismRules) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const TargetModel target = targets::xentium();
    const auto candidates = extract_candidates(view, target);
    EXPECT_FALSE(candidates.empty());
    for (const Candidate& c : candidates) {
        EXPECT_EQ(view.kind(c.nodes.front()), view.kind(c.nodes.back()));
        EXPECT_TRUE(view.independent(c.nodes.front(), c.nodes.back()));
        if (view.kind(c.nodes.front()) == OpKind::Load) {
            EXPECT_EQ(k.op(view.node(c.nodes.front()).lanes[0]).array,
                      k.op(view.node(c.nodes.back()).lanes[0]).array);
        }
    }
}

TEST(Candidates, NoneWithoutSimd) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const auto candidates =
        extract_candidates(view, targets::generic32());
    EXPECT_TRUE(candidates.empty());
}

TEST(Candidates, AdjacentLoadsOrientedAscending) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const auto candidates = extract_candidates(view, targets::xentium());
    for (const Candidate& c : candidates) {
        if (view.kind(c.nodes.front()) != OpKind::Load) continue;
        const auto diff =
            k.op(view.node(c.nodes.back()).lanes[0])
                .index.constant_difference(k.op(view.node(c.nodes.front()).lanes[0]).index);
        if (diff.has_value() && std::abs(*diff) == 1) {
            // Oriented so the pair is ascending-adjacent.
            EXPECT_EQ(*diff, 1);
        }
    }
}

// --- conflicts -------------------------------------------------------------------

// The structural conflict rules written out per pair, scanning every pair
// of members: the all-pairs detection as it was before the bitset rows.
// Kept here, and only here, as the oracle the bitset scan must reproduce.
namespace conflict_oracle {

bool shares_node(const Candidate& x, const Candidate& y) {
    for (const int xn : x.nodes) {
        for (const int yn : y.nodes) {
            if (xn == yn) return true;
        }
    }
    return false;
}

/// Some member of `later` depends on a member of `earlier`.
bool group_depends(const PackedView& view, const Candidate& later,
                   const Candidate& earlier) {
    for (const int l : later.nodes) {
        for (const int e : earlier.nodes) {
            if (view.depends(l, e)) return true;
        }
    }
    return false;
}

bool cyclic_dependency(const PackedView& view, const Candidate& x,
                       const Candidate& y) {
    return group_depends(view, y, x) && group_depends(view, x, y);
}

ConflictSet detect(const PackedView& view,
                   const std::vector<Candidate>& candidates) {
    ConflictSet conflicts(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        for (size_t j = i + 1; j < candidates.size(); ++j) {
            if (shares_node(candidates[i], candidates[j]) ||
                cyclic_dependency(view, candidates[i], candidates[j])) {
                conflicts.add(i, j);
            }
        }
    }
    return conflicts;
}

}  // namespace conflict_oracle

TEST(Conflicts, SharedNodeConflicts) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const std::vector<Candidate> candidates{{1, 2}, {2, 3}, {4, 5}};
    const ConflictSet conflicts =
        detect_structural_conflicts(view, candidates);
    EXPECT_TRUE(conflicts.conflict(0, 1));
    EXPECT_FALSE(conflict_oracle::shares_node(candidates[0], candidates[2]));
    EXPECT_EQ(conflicts, conflict_oracle::detect(view, candidates));
}

TEST(Conflicts, DetectedSetIsSymmetric) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const auto candidates = extract_candidates(view, targets::xentium());
    const ConflictSet conflicts =
        detect_structural_conflicts(view, candidates);
    for (size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_FALSE(conflicts.conflict(i, i));
        for (size_t j = 0; j < candidates.size(); ++j) {
            EXPECT_EQ(conflicts.conflict(i, j), conflicts.conflict(j, i));
        }
    }
}

TEST(Conflicts, CyclicDependencyCase) {
    // a -> b and c -> d with cross dependencies: groups {a,d} and {b,c}
    // would deadlock.
    KernelBuilder b("cycle");
    const ArrayId x = b.input("x", 8, Interval(-1.0, 1.0));
    const ArrayId y = b.output("y", 4);
    const LoopId n = b.begin_loop("n", 0, 4);
    const VarId a1 = b.load(x, Affine::var(n));        // 0
    const VarId a2 = b.load(x, Affine::var(n) + 4);    // 1
    const VarId m1 = b.mul(a1, a1);                    // 2
    const VarId m2 = b.mul(a2, m1);                    // 3: depends on m1
    const VarId m3 = b.mul(a1, m2);                    // 4: depends on m2
    b.store(y, Affine::var(n), b.add(m3, m2));
    b.end_loop();
    const Kernel k = b.take();
    PackedView view(k, k.blocks_in_order()[0]);
    // Candidate {2,4} x candidate {3, anything 3 depends on / that depends
    // on it} — verify the primitive directly: {m1,m3} and a singleton pair
    // containing m2 on both sides is impossible, so check cross deps.
    EXPECT_TRUE(view.depends(4, 3));
    EXPECT_TRUE(view.depends(3, 2));
    // {m1,m3} is NOT a legal candidate (m3 depends on m1 transitively),
    // but the conflict rules take any tuples: {m1,m3} and {a2,m2} each
    // depend on the other (m2 on m1, m3 on m2), so they are cyclic without
    // sharing a node, while {a1,a2} only shares a2 with {a2,m2}.
    EXPECT_FALSE(view.independent(2, 4));
    const std::vector<Candidate> candidates{{2, 4}, {1, 3}, {0, 1}};
    EXPECT_FALSE(conflict_oracle::shares_node(candidates[0], candidates[1]));
    EXPECT_TRUE(
        conflict_oracle::cyclic_dependency(view, candidates[0], candidates[1]));
    const ConflictSet conflicts =
        detect_structural_conflicts(view, candidates);
    EXPECT_TRUE(conflicts.conflict(0, 1));
    EXPECT_FALSE(conflicts.conflict(0, 2));
    EXPECT_TRUE(conflicts.conflict(1, 2));
    EXPECT_EQ(conflicts, conflict_oracle::detect(view, candidates));
}

// The bitset scan against the all-pairs oracle on every block of the
// built-in, corpus and generated (friendly and SLP-hostile) kernels,
// round after round: each round fuses a greedy conflict-free subset of
// the candidates, so later rounds see multi-lane nodes whose dependences
// are unions of their lanes'. Random tuples of view nodes (legal
// candidates or not) ride along to reach cyclic pairs that extraction
// itself would rarely produce. A pair-cliff target (no 2-lane
// configuration) seeds k-lane runs, so candidates of 3 or more nodes are
// compared too.
TEST(Conflicts, BitsetScanMatchesAllPairsOracle) {
    std::vector<kernels::BenchmarkKernel> benches;
    for (const char* name : {"FIR", "IIR", "CONV", "DOT"}) {
        benches.push_back(kernels::make_benchmark_kernel(name));
    }
    for (const char* file : {"dotprod", "fft4", "fir8", "matmul4", "memcpy2",
                             "stencil1d", "stencil2d"}) {
        benches.push_back(frontend::load_kernel_file(
            std::string(SLPWLO_SOURCE_DIR "/kernels/") + file + ".slp"));
    }
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        frontend::GenOptions hostile;
        hostile.slp_hostile = true;
        benches.push_back(frontend::generate_kernel(seed));
        benches.push_back(frontend::generate_kernel(seed, hostile));
    }
    // DSP64 at 128 bits: 4x32 and 8x16 but no 2-lane configuration.
    const TargetModel cliff = targets::by_name("DSP64").with_simd_width(128);
    ASSERT_FALSE(cliff.supports_group_size(2));
    uint64_t rng = 88172645463325252ull;
    auto next = [&rng](int bound) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<int>(rng % static_cast<uint64_t>(bound));
    };
    size_t views = 0;
    size_t multi_lane_views = 0;
    size_t cyclic_only = 0;
    int widest_candidate = 0;  ///< most nodes in one extracted candidate
    size_t largest_round = 0;  ///< most extracted candidates in one round
    for (const kernels::BenchmarkKernel& bench : benches) {
        for (const TargetModel& target :
             {targets::xentium(), targets::vex4(), cliff}) {
            for (const BlockId block : bench.kernel.blocks_in_order()) {
                PackedView view(bench.kernel, block);
                for (int round = 0; round < 4 && view.size() >= 2; ++round) {
                    std::vector<Candidate> candidates =
                        extract_candidates(view, target);
                    const size_t legal = candidates.size();
                    largest_round = std::max(largest_round, legal);
                    for (const Candidate& c : candidates) {
                        widest_candidate =
                            std::max(widest_candidate, c.node_count());
                    }
                    for (int r = 0; r < 24; ++r) {
                        const int a = next(view.size());
                        const int b = next(view.size());
                        if (a != b) candidates.push_back({a, b});
                    }
                    const ConflictSet got =
                        detect_structural_conflicts(view, candidates);
                    const ConflictSet want =
                        conflict_oracle::detect(view, candidates);
                    ASSERT_EQ(got, want)
                        << bench.name << " on " << target.name << ", round "
                        << round;
                    views++;
                    for (int node = 0; node < view.size(); ++node) {
                        if (view.width(node) >= 2) {
                            multi_lane_views++;
                            break;
                        }
                    }
                    for (size_t i = 0; i < candidates.size(); ++i) {
                        for (size_t j = i + 1; j < candidates.size(); ++j) {
                            if (want.conflict(i, j) &&
                                !conflict_oracle::shares_node(candidates[i],
                                                              candidates[j])) {
                                cyclic_only++;
                            }
                        }
                    }
                    // Fuse a greedy conflict-free subset of the legal
                    // candidates.
                    std::vector<std::vector<int>> tuples;
                    std::vector<size_t> taken;
                    for (size_t c = 0; c < legal; ++c) {
                        bool free = true;
                        for (const size_t t : taken) {
                            free = free && !got.conflict(c, t);
                        }
                        if (!free) continue;
                        taken.push_back(c);
                        tuples.push_back(candidates[c].nodes);
                    }
                    if (tuples.empty()) break;
                    view.fuse(tuples);
                }
            }
        }
    }
    EXPECT_GT(views, 50u);
    EXPECT_GT(multi_lane_views, 30u);
    EXPECT_GT(cyclic_only, 0u);
    EXPECT_GE(widest_candidate, 3);
    EXPECT_GT(largest_round, 128u);
}

// --- economics --------------------------------------------------------------------

TEST(Economics, AdjacentLoadPairIsCheap) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const TargetModel target = targets::xentium();
    const auto candidates = extract_candidates(view, target);
    bool found_cheap_load = false;
    for (const Candidate& c : candidates) {
        if (view.kind(c.nodes.front()) != OpKind::Load) continue;
        const Economics econ = evaluate_candidate(view, candidates, c, target);
        if (lanes_memory_adjacent(view, fused_lanes(view, c))) {
            EXPECT_EQ(econ.pack_cost, 0.0);
            found_cheap_load = true;
        } else {
            EXPECT_GT(econ.pack_cost, 0.0);
        }
    }
    EXPECT_TRUE(found_cheap_load);
}

TEST(Economics, SelfAccumulationCountsAsReuse) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    const TargetModel target = targets::xentium();
    const auto candidates = extract_candidates(view, target);
    for (const Candidate& c : candidates) {
        if (view.kind(c.nodes.front()) != OpKind::Add) continue;
        const Economics econ = evaluate_candidate(view, candidates, c, target);
        EXPECT_GE(econ.reuse, 1.0);  // acc operand is a held vector register
    }
}

TEST(Economics, BenefitModes) {
    Economics econ;
    econ.reuse = 2.0;
    econ.pack_cost = 1.0;
    econ.saved_ops = 1.0;
    EXPECT_DOUBLE_EQ(benefit_score(econ, BenefitMode::ReuseOverCost), 1.5);
    EXPECT_DOUBLE_EQ(benefit_score(econ, BenefitMode::SavingsOnly), 1.0);
}

// --- extraction ------------------------------------------------------------------

TEST(Extraction, FirPairsEverythingOn2x16) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    SlpStats stats;
    const auto groups =
        extract_slp_plain(view, targets::xentium(), spec, {}, &stats);
    // 2 load pairs x2, 2 mul pairs, 2 add pairs = 8 groups of width 2.
    EXPECT_EQ(groups.size(), 8u);
    for (const SimdGroup& g : groups) {
        EXPECT_EQ(g.width(), 2);
    }
    EXPECT_GE(stats.rounds, 1);
    EXPECT_EQ(stats.selected, 8);
}

TEST(Extraction, WidensTo4On8BitCapableTarget) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 8);
    const auto groups = extract_slp_plain(view, targets::vex4(), spec, {});
    bool found_quad = false;
    for (const SimdGroup& g : groups) {
        if (g.width() == 4) found_quad = true;
    }
    EXPECT_TRUE(found_quad);
}

TEST(Extraction, EqualWlRuleBlocksMixedGroups) {
    const Kernel& k = small_fir();
    PackedView view(k, hot_block(k));
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    // Make one mul temporary 32-bit: its pair partner stays 16.
    for (const auto& op : k.ops()) {
        if (op.kind == OpKind::Mul) {
            spec.set_wl(NodeRef::of_var(op.dest), 32);
            break;
        }
    }
    const auto groups = extract_slp_plain(view, targets::xentium(), spec, {});
    for (const SimdGroup& g : groups) {
        const int wl = spec.result_format(g.lanes[0]).wl();
        for (const OpId lane : g.lanes) {
            EXPECT_EQ(spec.result_format(lane).wl(), wl);
        }
    }
}

TEST(Extraction, SelectionIsDeterministic) {
    const Kernel& k = small_fir();
    FixedPointSpec spec = initial_spec(k);
    set_uniform_wl(spec, 16);
    std::vector<std::vector<SimdGroup>> runs;
    for (int r = 0; r < 3; ++r) {
        PackedView view(k, hot_block(k));
        runs.push_back(extract_slp_plain(view, targets::xentium(), spec, {}));
    }
    for (size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (size_t g = 0; g < runs[0].size(); ++g) {
            EXPECT_EQ(runs[r][g].lanes, runs[0][g].lanes);
        }
    }
}

TEST(Extraction, GroupsAreDisjointAndIndependent) {
    // Property: no op appears in two groups.
    for (const Kernel* k :
         {&small_fir(), &::slpwlo::testing::small_conv()}) {
        PackedView view(*k, hot_block(*k));
        FixedPointSpec spec = initial_spec(*k);
        set_uniform_wl(spec, 16);
        const auto groups = extract_slp_plain(view, targets::vex4(), spec, {});
        std::set<int32_t> seen;
        for (const SimdGroup& g : groups) {
            for (const OpId lane : g.lanes) {
                EXPECT_TRUE(seen.insert(lane.index()).second)
                    << "op in two groups";
            }
        }
    }
}

// --- selection: indexed rounds vs the pool-rebuilding loop ----------------------

// The selection loop as it was before the per-round CandidateIndex: every
// alive candidate re-scored against a freshly built pool on every pick,
// with the pool scanned for producers and consumers. Kept here, and only
// here, as the oracle the indexed selection must reproduce pick for pick.
namespace oracle {

enum class SuperwordMatch { No, Direct, Reversed };

SuperwordMatch producible_as_superword(
    const PackedView& view, const std::vector<const Candidate*>& available,
    const std::vector<OpId>& defs) {
    if (defs.empty()) return SuperwordMatch::No;
    std::vector<OpId> reversed(defs.rbegin(), defs.rend());

    auto usable = [&view](const std::vector<OpId>& producer_lanes) {
        if (view.kernel().op(producer_lanes.front()).kind != OpKind::Load) {
            return true;
        }
        return lanes_memory_adjacent(view, producer_lanes);
    };

    for (const Candidate* c : available) {
        const std::vector<OpId> lanes = fused_lanes(view, *c);
        if (lanes == defs && usable(lanes)) return SuperwordMatch::Direct;
        if (lanes == reversed && usable(lanes)) return SuperwordMatch::Reversed;
    }
    for (int i = 0; i < view.size(); ++i) {
        if (view.width(i) < 2) continue;
        const std::vector<OpId>& lanes = view.node(i).lanes;
        if (lanes == defs && usable(lanes)) return SuperwordMatch::Direct;
        if (lanes == reversed && usable(lanes)) return SuperwordMatch::Reversed;
    }
    return SuperwordMatch::No;
}

bool is_splat(const PackedView& view, const std::vector<OpId>& lanes,
              int slot) {
    const Kernel& kernel = view.kernel();
    const VarId first = kernel.op(lanes.front()).args[slot];
    for (const OpId lane : lanes) {
        if (view.def_of_arg(lane, slot).valid()) return false;
        if (kernel.op(lane).args[slot] != first) return false;
    }
    return true;
}

Economics evaluate_candidate(const PackedView& view,
                             const std::vector<const Candidate*>& available,
                             const Candidate& c, const TargetModel& target) {
    Economics econ;
    econ.saved_ops = static_cast<double>(c.node_count() - 1);
    const Kernel& kernel = view.kernel();
    const std::vector<OpId> lanes = fused_lanes(view, c);
    const int w = static_cast<int>(lanes.size());
    const OpKind kind = view.kind(c.nodes.front());

    if (kind == OpKind::Load || kind == OpKind::Store) {
        if (!lanes_memory_adjacent(view, lanes)) {
            econ.pack_cost += (w - 1) * target.pack2_ops;
        }
    }

    const int slots = kernel.op(lanes.front()).num_args();
    for (int slot = 0; slot < slots; ++slot) {
        const bool self_accumulation = std::all_of(
            lanes.begin(), lanes.end(), [&](OpId lane) {
                const Op& op = kernel.op(lane);
                return op.dest.valid() && op.args[slot] == op.dest &&
                       !view.def_of_arg(lane, slot).valid();
            });
        if (self_accumulation) {
            econ.reuse += 1.0;
            continue;
        }
        const std::vector<OpId> defs = operand_defs(view, lanes, slot);
        switch (producible_as_superword(view, available, defs)) {
            case SuperwordMatch::Direct:
                econ.reuse += 1.0;
                break;
            case SuperwordMatch::Reversed:
                econ.reuse += 1.0;
                econ.pack_cost += 1.0;
                break;
            case SuperwordMatch::No:
                if (!defs.empty() && lanes_memory_adjacent(view, defs)) {
                    econ.reuse += 0.5;
                } else if (is_splat(view, lanes, slot)) {
                    econ.pack_cost += 1.0;
                } else {
                    econ.pack_cost += (w - 1) * target.pack2_ops;
                }
                break;
        }
    }

    if (kind != OpKind::Store) {
        bool consumed_as_superword = false;
        for (int slot = 0; slot < slots && !consumed_as_superword; ++slot) {
            consumed_as_superword = std::all_of(
                lanes.begin(), lanes.end(), [&](OpId lane) {
                    const Op& op = kernel.op(lane);
                    return op.dest.valid() && op.args[slot] == op.dest;
                });
        }
        const std::vector<OpId> lanes_reversed(lanes.rbegin(), lanes.rend());
        for (const Candidate* d : available) {
            if (*d == c) continue;
            const std::vector<OpId> dl = fused_lanes(view, *d);
            const int dslots = kernel.op(dl.front()).num_args();
            for (int slot = 0; slot < dslots; ++slot) {
                const std::vector<OpId> defs = operand_defs(view, dl, slot);
                if (defs == lanes || defs == lanes_reversed) {
                    econ.reuse += 1.0;
                    consumed_as_superword = true;
                }
            }
        }
        if (!consumed_as_superword) {
            for (const OpId lane : lanes) {
                if (!view.consumers_of(lane).empty() ||
                    view.has_external_uses(lane)) {
                    econ.unpack_cost += target.extract_ops;
                }
            }
        }
    }
    return econ;
}

/// Whether the view stays schedulable with `packs` each contracted into
/// one node: Kahn's algorithm over the contracted node-level dependence
/// graph, a member depending on a member of its own pack counting as a
/// cycle.
bool schedulable(const PackedView& view, const std::vector<Candidate>& packs) {
    const int n = view.size();
    std::vector<int> group(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) group[static_cast<size_t>(i)] = i;
    for (size_t p = 0; p < packs.size(); ++p) {
        for (const int member : packs[p].nodes) {
            group[static_cast<size_t>(member)] = n + static_cast<int>(p);
        }
    }
    const size_t groups = static_cast<size_t>(n) + packs.size();
    std::vector<std::set<int>> successors(groups);
    std::vector<int> in_degree(groups, 0);
    for (int later = 0; later < n; ++later) {
        for (int earlier = 0; earlier < n; ++earlier) {
            if (!view.depends(later, earlier)) continue;
            const int from = group[static_cast<size_t>(earlier)];
            const int to = group[static_cast<size_t>(later)];
            if (from == to) return false;
            if (successors[static_cast<size_t>(from)].insert(to).second) {
                in_degree[static_cast<size_t>(to)]++;
            }
        }
    }
    std::vector<int> ready;
    for (size_t g = 0; g < groups; ++g) {
        if (in_degree[g] == 0) ready.push_back(static_cast<int>(g));
    }
    size_t sorted = 0;
    while (!ready.empty()) {
        const int g = ready.back();
        ready.pop_back();
        sorted++;
        for (const int next : successors[static_cast<size_t>(g)]) {
            if (--in_degree[static_cast<size_t>(next)] == 0) {
                ready.push_back(next);
            }
        }
    }
    // Groups without members (node ids taken over by a pack) sort freely.
    return sorted == groups;
}

std::vector<Candidate> select_candidates(
    const PackedView& view, std::vector<Candidate> candidates,
    const ConflictSet& conflicts, const TargetModel& target, BenefitMode mode,
    double min_benefit, const TrySelect& try_select, int* rejected_count,
    int* cycle_count) {
    std::vector<bool> alive(candidates.size(), true);
    std::vector<Candidate> selected;
    std::vector<Candidate> committed;
    int alive_count = static_cast<int>(candidates.size());

    while (alive_count > 0) {
        double best_score = 0.0;
        double best_saved = 0.0;
        size_t best = candidates.size();
        for (size_t i = 0; i < candidates.size(); ++i) {
            if (!alive[i]) continue;
            std::vector<const Candidate*> pool;
            for (size_t j = 0; j < candidates.size(); ++j) {
                if (alive[j] && !conflicts.conflict(i, j)) {
                    pool.push_back(&candidates[j]);
                }
            }
            for (const Candidate& d : committed) pool.push_back(&d);
            const Economics econ =
                evaluate_candidate(view, pool, candidates[i], target);
            const double score = benefit_score(econ, mode);
            const bool better =
                best == candidates.size() || score > best_score ||
                (score == best_score && econ.saved_ops > best_saved);
            if (better) {
                best = i;
                best_score = score;
                best_saved = econ.saved_ops;
            }
        }
        if (best_score < min_benefit) break;

        alive[best] = false;
        alive_count--;

        committed.push_back(candidates[best]);
        const bool cyclic = !schedulable(view, committed);
        committed.pop_back();
        if (cyclic) (*cycle_count)++;
        if (cyclic || (try_select && !try_select(candidates[best]))) {
            if (rejected_count != nullptr) (*rejected_count)++;
            continue;
        }
        selected.push_back(candidates[best]);
        committed.push_back(candidates[best]);

        for (size_t i = 0; i < candidates.size(); ++i) {
            if (alive[i] && conflicts.conflict(best, i)) {
                alive[i] = false;
                alive_count--;
            }
        }
    }
    return selected;
}

}  // namespace oracle

/// A seeded pseudo-random verdict on a candidate (or a pair): the same
/// answer for the same nodes, however often and in whatever order asked.
uint64_t seeded_hash(uint64_t seed, const std::vector<int>& a,
                     const std::vector<int>& b = {}) {
    uint64_t h = seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull;
    for (const std::vector<int>* nodes : {&a, &b}) {
        for (const int n : *nodes) {
            h ^= static_cast<uint64_t>(n) + 0x9E3779B97F4A7C15ull;
            h *= 0xBF58476D1CE4E5B9ull;
            h ^= h >> 31;
        }
        h = (h ^ 0xFF51AFD7ED558CCDull) * 0x94D049BB54A09ED3ull;
    }
    return h ^ (h >> 29);
}

struct SelectionTally {
    int rounds = 0;
    int picks = 0;
    int rejected = 0;
    int cycles = 0;  ///< picks rejected for closing a dependence cycle
};

/// Drive extraction rounds on every multi-op block of `kernel`, comparing
/// the indexed selection with the oracle on every round. Seeded extra
/// conflicts (about 1 pair in 8) exercise the pool's conflict filter; the
/// optional veto rejects about 1 pick in 3.
void compare_selection(const Kernel& kernel, const TargetModel& target,
                       const SlpOptions& options, bool veto, uint64_t seed,
                       SelectionTally& tally) {
    for (const BlockId block : kernel.blocks_in_order()) {
        if (kernel.block(block).ops.size() < 2) continue;
        PackedView view(kernel, block);
        SlpHooks hooks;
        hooks.add_conflicts = [&](const std::vector<Candidate>& candidates,
                                  ConflictSet& conflicts) {
            int added = 0;
            for (size_t i = 0; i < candidates.size(); ++i) {
                for (size_t j = i + 1; j < candidates.size(); ++j) {
                    if (conflicts.conflict(i, j)) continue;
                    if (seeded_hash(seed, candidates[i].nodes,
                                    candidates[j].nodes) % 8 == 0) {
                        conflicts.add(i, j);
                        added++;
                    }
                }
            }
            return added;
        };
        int round = 0;
        hooks.select_round = [&](std::vector<Candidate> candidates,
                                 const ConflictSet& conflicts, int* rejected) {
            TrySelect try_select;
            if (veto) {
                try_select = [&](const Candidate& c) {
                    return seeded_hash(seed + static_cast<uint64_t>(round),
                                       c.nodes) % 3 != 0;
                };
            }
            int expected_rejected = 0;
            const std::vector<Candidate> expected = oracle::select_candidates(
                view, candidates, conflicts, target, options.benefit_mode,
                options.min_benefit, try_select, &expected_rejected,
                &tally.cycles);
            int got_rejected = 0;
            std::vector<Candidate> got = select_candidates(
                view, std::move(candidates), conflicts, target,
                options.benefit_mode, options.min_benefit, try_select,
                &got_rejected);
            EXPECT_EQ(got, expected)
                << kernel.name() << " on " << target.name << ", round "
                << round << (veto ? " (veto)" : "");
            EXPECT_EQ(got_rejected, expected_rejected)
                << kernel.name() << " on " << target.name << ", round "
                << round;
            tally.rounds++;
            tally.picks += static_cast<int>(got.size());
            tally.rejected += got_rejected;
            *rejected += got_rejected;
            round++;
            return got;
        };
        extract_slp(view, target, options, hooks);
    }
}

std::vector<kernels::BenchmarkKernel> selection_kernels() {
    std::vector<kernels::BenchmarkKernel> out;
    kernels::KernelRegistry& registry = kernels::KernelRegistry::instance();
    for (const std::string& name : kernels::benchmark_kernel_names()) {
        out.push_back(registry.get(name));
    }
    for (const std::string& name :
         frontend::load_kernel_corpus(SLPWLO_SOURCE_DIR "/kernels")) {
        out.push_back(registry.get(name));
    }
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        frontend::GenOptions hostile;
        hostile.slp_hostile = true;
        out.push_back(frontend::generate_kernel(seed));
        out.push_back(frontend::generate_kernel(seed, hostile));
    }
    return out;
}

std::vector<TargetModel> selection_targets() {
    std::vector<TargetModel> out;
    for (const std::string& name : TargetRegistry::instance().names()) {
        out.push_back(TargetRegistry::instance().get(name));
    }
    // No 2-lane configuration: run seeds and virtual widths apply.
    out.push_back(load_target_description(SLPWLO_SOURCE_DIR
                                          "/targets/wide256.target"));
    return out;
}

TEST(Selection, IndexedRoundsMatchPoolRebuildingOracle) {
    const std::vector<kernels::BenchmarkKernel> benches = selection_kernels();
    const std::vector<TargetModel> targets = selection_targets();
    SelectionTally plain, vetoed;
    for (const kernels::BenchmarkKernel& bench : benches) {
        for (const TargetModel& target : targets) {
            compare_selection(bench.kernel, target, {}, false, 11, plain);
            compare_selection(bench.kernel, target, {}, true, 12, vetoed);
        }
    }
    // The comparison must have had something to compare.
    EXPECT_GT(plain.rounds, 100);
    EXPECT_GT(plain.picks, 1000);
    EXPECT_GT(vetoed.rejected, 100);
    // Some picks would have closed a dependence cycle.
    EXPECT_GT(plain.cycles + vetoed.cycles, 0);
}

TEST(Selection, EvaluateCandidateMatchesOracleOnFullPool) {
    const TargetModel target = targets::vex4();
    for (const Kernel* k : {&small_fir(), &::slpwlo::testing::small_conv()}) {
        PackedView view(*k, hot_block(*k));
        const auto candidates = extract_candidates(view, target);
        std::vector<const Candidate*> pool;
        for (const Candidate& c : candidates) pool.push_back(&c);
        for (const Candidate& c : candidates) {
            const Economics got =
                evaluate_candidate(view, candidates, c, target);
            const Economics want =
                oracle::evaluate_candidate(view, pool, c, target);
            EXPECT_EQ(got.reuse, want.reuse);
            EXPECT_EQ(got.pack_cost, want.pack_cost);
            EXPECT_EQ(got.unpack_cost, want.unpack_cost);
            EXPECT_EQ(got.saved_ops, want.saved_ops);
        }
    }
}

}  // namespace
}  // namespace slpwlo

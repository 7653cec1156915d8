// ShardEngine: deterministic shard planning, self-contained manifests,
// serializable/mergeable EvalCache snapshots, and the byte-identical
// merge guarantee (dist/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "dist/cache_snapshot.hpp"
#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "flow/pass.hpp"
#include "frontend/kernel_file.hpp"
#include "kernels/kernel_registry.hpp"
#include "support/diagnostics.hpp"
#include "target/target_model.hpp"

namespace slpwlo {
namespace {

using namespace slpwlo::dist;

std::vector<SweepPoint> small_grid() {
    return SweepDriver::grid({"FIR", "DOT"}, {"XENTIUM", "ST240"},
                             {"WLO-SLP", "Float"}, {-20.0, -35.0, -50.0});
}

/// `parse` must throw an Error naming both the version it found and the
/// one version the reader accepts.
template <typename Parse>
void expect_version_rejected(Parse parse, const std::string& found,
                             const std::string& accepted) {
    try {
        parse();
        ADD_FAILURE() << "version " << found << " was accepted";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("_version " + found + " "), std::string::npos)
            << what;
        EXPECT_NE(what.find("knows " + accepted + ")"), std::string::npos)
            << what;
    }
}

// --- shard planning ------------------------------------------------------------

TEST(ShardPlan, PartitionIsDisjointAndComplete) {
    const std::vector<SweepPoint> grid = small_grid();
    for (const int n : {1, 3, 4, 7, 64}) {
        const std::vector<ShardPlan> plans = make_shard_plans(grid, n);
        ASSERT_EQ(plans.size(), static_cast<size_t>(n));
        std::set<size_t> seen;
        for (const ShardPlan& plan : plans) {
            EXPECT_EQ(plan.shard_count, n);
            EXPECT_EQ(plan.total_slots, grid.size());
            EXPECT_EQ(plan.slots.size(), plan.points.size());
            EXPECT_TRUE(std::is_sorted(plan.slots.begin(), plan.slots.end()));
            for (const size_t slot : plan.slots) {
                EXPECT_LT(slot, grid.size());
                // Disjoint: no slot assigned twice.
                EXPECT_TRUE(seen.insert(slot).second);
            }
        }
        // Complete: every slot assigned.
        EXPECT_EQ(seen.size(), grid.size());
    }
}

TEST(ShardPlan, PlansAreDeterministic) {
    const std::vector<SweepPoint> grid = small_grid();
    const std::vector<ShardPlan> a = make_shard_plans(grid, 4);
    const std::vector<ShardPlan> b = make_shard_plans(grid, 4);
    ASSERT_EQ(a.size(), b.size());
    for (size_t s = 0; s < a.size(); ++s) {
        EXPECT_EQ(a[s].slots, b[s].slots);
        EXPECT_EQ(a[s].grid_fp, b[s].grid_fp);
        ASSERT_EQ(a[s].points.size(), b[s].points.size());
        for (size_t i = 0; i < a[s].points.size(); ++i) {
            EXPECT_EQ(point_fingerprint(a[s].points[i]),
                      point_fingerprint(b[s].points[i]));
        }
    }
    // The grid fingerprint is shard-count independent.
    EXPECT_EQ(a.front().grid_fp, make_shard_plans(grid, 9).front().grid_fp);
}

TEST(ShardPlan, EqualCostsAssignRoundRobin) {
    // estimate_point_cost sees neither the kernel nor which of these
    // flows runs, so on one target and constraint every point costs the
    // same, and LPT's ties (lower slot first, onto the lowest-index
    // lightest shard) deal slot i to shard i % N.
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR", "DOT", "IIR", "CONV"}, {"XENTIUM"},
        {"WLO-SLP", "SLP-Optimal", "WLO-Optimal"}, {-30.0});
    for (const int n : {2, 3, 4, 5, 6, 7}) {
        const std::vector<ShardPlan> plans = make_shard_plans(grid, n);
        for (const ShardPlan& plan : plans) {
            for (const size_t slot : plan.slots) {
                EXPECT_EQ(slot % static_cast<size_t>(n),
                          static_cast<size_t>(plan.shard_index))
                    << "slot " << slot << ", " << n << " shards";
            }
        }
    }
}

TEST(ShardPlan, EmbedsTargetModels) {
    std::vector<SweepPoint> grid = small_grid();
    for (const SweepPoint& point : grid) {
        EXPECT_FALSE(point.target_model.has_value());
    }
    const std::vector<ShardPlan> plans = make_shard_plans(grid, 2);
    for (const ShardPlan& plan : plans) {
        for (const SweepPoint& point : plan.points) {
            ASSERT_TRUE(point.target_model.has_value());
            EXPECT_EQ(point.target_model->name, point.target);
        }
    }
}

TEST(ShardPlan, CostBalancedSpreadsLoad) {
    // A grid whose costs are wildly uneven: expensive strict WLO-First
    // points next to trivial Float references.
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR"}, {"XENTIUM"}, {"WLO-First", "Float"},
        {-10.0, -20.0, -30.0, -40.0, -50.0, -60.0});
    const std::vector<ShardPlan> plans = make_shard_plans(grid, 3);
    std::vector<double> load;
    for (const ShardPlan& plan : plans) {
        EXPECT_FALSE(plan.points.empty());
        double cost = 0.0;
        for (const SweepPoint& point : plan.points) {
            cost += estimate_point_cost(point);
        }
        load.push_back(cost);
    }
    const double max = *std::max_element(load.begin(), load.end());
    const double min = *std::min_element(load.begin(), load.end());
    // LPT keeps the spread well under the cost of the heaviest point.
    EXPECT_LT(max - min, 6.0);
    EXPECT_GT(min, 0.0);
}

TEST(ShardPlan, FingerprintSeesModelAndOptionChanges) {
    std::vector<SweepPoint> grid = small_grid();
    embed_target_models(grid);
    const uint64_t base = grid_fingerprint(grid);

    std::vector<SweepPoint> tweaked_model = grid;
    tweaked_model[0].target_model->issue_width += 1;
    EXPECT_NE(grid_fingerprint(tweaked_model), base);

    std::vector<SweepPoint> tweaked_options = grid;
    FlowOptions options;
    options.wlo_slp.scaling_optim = false;
    tweaked_options[0].options = options;
    EXPECT_NE(grid_fingerprint(tweaked_options), base);
}

// --- manifests -----------------------------------------------------------------

TEST(ShardManifest, RoundTripsExactly) {
    std::vector<SweepPoint> grid = small_grid();
    // A per-point override and a derived-width model exercise the parts a
    // worker could never reconstruct from names.
    FlowOptions overrides;
    overrides.quant_mode = QuantMode::Round;
    overrides.wlo_slp.slp.min_benefit = 0.125;
    overrides.wlo_first.tabu.max_iterations = 77;
    grid[3].options = overrides;
    grid[5].target_model = targets::xentium().with_simd_width(64);
    grid[5].target = grid[5].target_model->name;

    FlowOptions defaults;
    defaults.accuracy_db = -33.5;
    defaults.wlo_first.tabu.tenure = 11;

    const std::vector<ShardPlan> plans = make_shard_plans(grid, 3);
    for (const ShardPlan& plan : plans) {
        const std::string text = shard_manifest_text(plan, defaults);
        const ShardManifest manifest =
            parse_shard_manifest(text, "<round-trip>");

        EXPECT_EQ(manifest.shard_index, plan.shard_index);
        EXPECT_EQ(manifest.shard_count, plan.shard_count);
        EXPECT_EQ(manifest.total_slots, plan.total_slots);
        EXPECT_EQ(manifest.grid_fp, plan.grid_fp);
        EXPECT_EQ(manifest.slots, plan.slots);
        EXPECT_EQ(flow_options_kv(manifest.defaults, ""),
                  flow_options_kv(defaults, ""));
        ASSERT_EQ(manifest.points.size(), plan.points.size());
        for (size_t i = 0; i < plan.points.size(); ++i) {
            // point_fingerprint covers kernel, labels, flow, constraint
            // bits, options and the embedded model's content hash.
            EXPECT_EQ(point_fingerprint(manifest.points[i]),
                      point_fingerprint(plan.points[i]));
        }
    }
}

TEST(ShardManifest, KeepsNamesOfRenamedIdenticalModels) {
    // with_simd_width at the native width only renames the model, so its
    // name-free content fingerprint matches the base ISA's. The manifest
    // must still embed both (the name lands in the report bytes).
    const TargetModel base = targets::xentium();
    const TargetModel renamed = base.with_simd_width(base.simd_width_bits);
    ASSERT_EQ(target_fingerprint(base), target_fingerprint(renamed));
    ASSERT_NE(base.name, renamed.name);

    std::vector<SweepPoint> grid{
        SweepPoint{"FIR", base.name, "WLO-SLP", -20.0, {}, base, {}},
        SweepPoint{"FIR", renamed.name, "WLO-SLP", -20.0, {}, renamed, {}}};
    const std::vector<ShardPlan> plans = make_shard_plans(grid, 1);
    const ShardManifest manifest =
        parse_shard_manifest(shard_manifest_text(plans[0]), "<renamed>");
    ASSERT_EQ(manifest.points.size(), 2u);
    EXPECT_EQ(manifest.points[0].target_model->name, base.name);
    EXPECT_EQ(manifest.points[1].target_model->name, renamed.name);
    // And the points do not alias in conflict detection either.
    EXPECT_NE(point_fingerprint(plans[0].points[0]),
              point_fingerprint(plans[0].points[1]));
}

TEST(ShardManifest, EmbedsFileKernelSourceAndRoundTrips) {
    // A DSL-registered kernel must travel inside the manifest: the worker
    // has no .slp file, only the bytes the planner embedded. The embedded
    // form is the canonical source, so writer and reader agree byte for
    // byte and the point fingerprints match across the wire.
    frontend::register_kernel_source(
        "# shipped with the manifest\n"
        "kernel manifest_trip {\n"
        "  input x[6] range(-1.0, 1.0);\n"
        "  output y[4];\n"
        "  loop n = 0..4 unroll 2 { y[n] = x[n] * 0.5 + x[n + 2] * 0.25; }\n"
        "}\n");
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"manifest_trip", "FIR"}, {"XENTIUM"}, {"WLO-SLP"}, {-20.0});
    const std::vector<ShardPlan> plans = make_shard_plans(grid, 1);
    ASSERT_EQ(plans[0].points.size(), 2u);

    // Planning embedded the canonical source for the DSL kernel only.
    const kernels::KernelEntry entry =
        kernels::KernelRegistry::instance().entry("manifest_trip");
    ASSERT_TRUE(plans[0].points[0].kernel_source.has_value());
    EXPECT_EQ(*plans[0].points[0].kernel_source, entry.dsl_source);
    EXPECT_FALSE(plans[0].points[1].kernel_source.has_value());

    const std::string text = shard_manifest_text(plans[0]);
    EXPECT_NE(text.find("begin_kernel k0"), std::string::npos) << text;
    EXPECT_NE(text.find("kernel_source = k0"), std::string::npos) << text;
    // The comment line never reaches the manifest.
    EXPECT_EQ(text.find("shipped with"), std::string::npos) << text;

    const ShardManifest manifest = parse_shard_manifest(text, "<kernel>");
    ASSERT_EQ(manifest.points.size(), 2u);
    ASSERT_TRUE(manifest.points[0].kernel_source.has_value());
    EXPECT_EQ(*manifest.points[0].kernel_source, entry.dsl_source);
    EXPECT_FALSE(manifest.points[1].kernel_source.has_value());
    for (size_t i = 0; i < manifest.points.size(); ++i) {
        EXPECT_EQ(point_fingerprint(manifest.points[i]),
                  point_fingerprint(plans[0].points[i]));
    }
}

TEST(ShardManifest, RejectsMalformedInput) {
    const std::vector<ShardPlan> plans = make_shard_plans(small_grid(), 2);
    const std::string good = shard_manifest_text(plans[0]);
    EXPECT_NO_THROW(parse_shard_manifest(good));

    // The reader accepts only the version the writer emits (6): older
    // and newer headers are rejected, naming both versions.
    for (const char* version : {"1", "4", "5", "7"}) {
        std::string text = good;
        const size_t pos = text.find("manifest_version = 6");
        ASSERT_NE(pos, std::string::npos);
        text.replace(pos, 20, std::string("manifest_version = ") + version);
        expect_version_rejected([&] { parse_shard_manifest(text); }, version,
                                "6");
    }
    // Keys older versions carried — the noise backend (4), the optimizer
    // axis (5) — are unknown now, not silently ignored.
    for (const char* old_key : {"option.evaluator = tape\n",
                                "option.solver.optimizer = heuristic\n"}) {
        std::string text = good;
        const size_t pos = text.find("end_defaults");
        ASSERT_NE(pos, std::string::npos);
        text.insert(pos, old_key);
        EXPECT_THROW(parse_shard_manifest(text), Error) << old_key;
    }
    // So is the shard strategy header version 5 carried.
    {
        std::string text = good;
        const size_t pos = text.find("total_slots = ");
        ASSERT_NE(pos, std::string::npos);
        text.insert(pos, "strategy = round-robin\n");
        EXPECT_THROW(parse_shard_manifest(text), Error);
    }
    // Unterminated point block.
    {
        std::string text = good;
        const size_t pos = text.rfind("end_point");
        text.resize(pos);
        EXPECT_THROW(parse_shard_manifest(text), Error);
    }
    // Unknown keys are errors, not extensions.
    EXPECT_THROW(parse_shard_manifest(good + "\nmystery_key = 1\n"), Error);
    // Unknown model reference.
    {
        std::string text = good;
        const size_t pos = text.find("model = t0");
        text.replace(pos, 10, "model = t9");
        EXPECT_THROW(parse_shard_manifest(text), Error);
    }
    // Slot out of range.
    {
        std::string text = good;
        const size_t pos = text.find("slot = 0");
        text.replace(pos, 8, "slot = 999");
        EXPECT_THROW(parse_shard_manifest(text), Error);
    }
    EXPECT_THROW(parse_shard_manifest("kernel = FIR\n"), Error);
}

// --- cache snapshots -----------------------------------------------------------

EvalCache::StageEntry synthetic_stage_entry() {
    EvalCache::StageEntry stage;
    stage.quant_mode = QuantMode::Round;
    stage.formats = {FixedFormat(3, 12), FixedFormat(1, 0), FixedFormat(2, 7)};
    BlockGroups bg;
    bg.block = BlockId(1);
    bg.groups.push_back(SimdGroup{{OpId(4), OpId(9)}});
    stage.groups.push_back(std::move(bg));
    stage.slp_stats.rounds = 2;
    stage.slp_stats.candidates_seen = 11;
    stage.slp_stats.selected = 3;
    stage.scaling_stats.reuses_examined = 5;
    stage.scaling_stats.equalized = 1;
    stage.tabu_stats.iterations = 42;
    stage.tabu_stats.improvements = 6;
    // Odd doubles (negative, -inf) must survive the text round-trip
    // bit-exactly, like the eval entries' noise field.
    stage.tabu_stats.initial_cost = 19.75;
    stage.tabu_stats.best_cost = -std::numeric_limits<double>::infinity();
    stage.tabu_stats.feasible = true;
    // Solver stats (snapshot_version 3): a warm-started exact flow must
    // reproduce the cold run's solver block byte for byte.
    stage.solver_stats.ran = true;
    stage.solver_stats.nodes = 137;
    stage.solver_stats.solves = 1;
    stage.solver_stats.proven_optimal = true;
    stage.solver_stats.heuristic_objective = 64.0;
    stage.solver_stats.best_objective = 61.5;
    stage.solver_stats.gap = 2.5;
    stage.group_count = 1;
    return stage;
}

CacheSnapshot synthetic_snapshot() {
    EvalCache cache;
    cache.store(0x1111, EvalCache::Entry{100, 40, -38.5});
    cache.store(0x2222, EvalCache::Entry{250, 90, -51.25});
    // The -inf noise of an exact spec must survive the text round-trip.
    cache.store(0x3333,
                EvalCache::Entry{7, 7, -std::numeric_limits<double>::infinity()});
    cache.store_stage(0xaaaa, synthetic_stage_entry());
    return snapshot_cache(cache);
}

TEST(CacheSnapshot, RoundTripsBitExactly) {
    const CacheSnapshot snapshot = synthetic_snapshot();
    EXPECT_EQ(snapshot.entries.size(), 3u);
    const std::string text = cache_snapshot_text(snapshot);
    const CacheSnapshot loaded = parse_cache_snapshot(text, "<round-trip>");
    EXPECT_EQ(snapshot_fingerprint(loaded), snapshot_fingerprint(snapshot));
    ASSERT_EQ(loaded.entries.size(), snapshot.entries.size());
    for (size_t i = 0; i < loaded.entries.size(); ++i) {
        EXPECT_EQ(loaded.entries[i].first, snapshot.entries[i].first);
        EXPECT_TRUE(loaded.entries[i].second == snapshot.entries[i].second);
    }
    // Stage-memo entries (snapshot_version 2) round-trip field for field.
    ASSERT_EQ(loaded.stage_entries.size(), 1u);
    EXPECT_EQ(loaded.stage_entries[0].first, 0xaaaaull);
    EXPECT_TRUE(loaded.stage_entries[0].second == synthetic_stage_entry());
    // And the serialization itself is stable.
    EXPECT_EQ(cache_snapshot_text(loaded), text);
}

TEST(CacheSnapshot, PreloadWarmsACache) {
    const CacheSnapshot snapshot = synthetic_snapshot();
    EvalCache cache;
    preload_cache(cache, snapshot);
    EXPECT_EQ(cache.size(), 3u);
    const auto entry = cache.lookup(0x2222);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->scalar_cycles, 250);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheSnapshot, PreloadIsCounterNeutralAndDeterministic) {
    const CacheSnapshot snapshot = synthetic_snapshot();

    // A warm start must not masquerade as cache traffic: no hits, no
    // misses, no evictions from the preload itself.
    EvalCache cold;
    preload_cache(cold, snapshot);
    EXPECT_EQ(cold.hits(), 0u);
    EXPECT_EQ(cold.misses(), 0u);
    EXPECT_EQ(cold.evictions(), 0u);
    EXPECT_EQ(cold.size(), snapshot.entries.size());

    // Preloading into a capacity-bounded cache keeps a deterministic
    // survivor set (the highest-keyed `capacity` entries — what FIFO
    // insertion in snapshot order would leave resident) and still does
    // not count the overflow as evictions.
    EvalCache bounded_a, bounded_b;
    bounded_a.set_capacity(2);
    bounded_b.set_capacity(2);
    preload_cache(bounded_a, snapshot);
    preload_cache(bounded_b, snapshot);
    EXPECT_EQ(bounded_a.size(), 2u);
    EXPECT_EQ(bounded_a.hits(), 0u);
    EXPECT_EQ(bounded_a.misses(), 0u);
    EXPECT_EQ(bounded_a.evictions(), 0u);
    const auto exported_a = bounded_a.export_entries();
    const auto exported_b = bounded_b.export_entries();
    ASSERT_EQ(exported_a.size(), exported_b.size());
    for (size_t i = 0; i < exported_a.size(); ++i) {
        EXPECT_EQ(exported_a[i].first, exported_b[i].first);
        EXPECT_TRUE(exported_a[i].second == exported_b[i].second);
    }
    // Survivors are the snapshot's last (highest-keyed) two entries.
    ASSERT_EQ(exported_a.size(), 2u);
    EXPECT_EQ(exported_a[0].first,
              snapshot.entries[snapshot.entries.size() - 2].first);
    EXPECT_EQ(exported_a[1].first, snapshot.entries.back().first);

    // Preload over existing contents: resident keys win, counters still
    // untouched.
    EvalCache warm;
    warm.store(snapshot.entries.front().first, EvalCache::Entry{7, 7, -7.0});
    preload_cache(warm, snapshot);
    EXPECT_EQ(warm.hits(), 0u);
    EXPECT_EQ(warm.misses(), 0u);
    EXPECT_EQ(warm.lookup(snapshot.entries.front().first)->scalar_cycles, 7);

    // Preload into a bounded cache that already holds sweep entries:
    // residents are never displaced (and no evictions are counted) —
    // only the free slot fills, with the snapshot's highest-keyed entry.
    EvalCache busy;
    busy.set_capacity(2);
    busy.store(0x9999, EvalCache::Entry{1, 1, -1.0});
    preload_cache(busy, snapshot);
    EXPECT_EQ(busy.size(), 2u);
    EXPECT_EQ(busy.evictions(), 0u);
    EXPECT_TRUE(busy.lookup(0x9999).has_value());
    EXPECT_TRUE(busy.lookup(snapshot.entries.back().first).has_value());

    // Snapshot keys already resident do not consume free slots: with one
    // of the three snapshot keys resident and two slots free, the whole
    // snapshot fits.
    EvalCache overlap;
    overlap.set_capacity(3);
    overlap.store(snapshot.entries[1].first, EvalCache::Entry{5, 5, -5.0});
    preload_cache(overlap, snapshot);
    EXPECT_EQ(overlap.size(), 3u);
    EXPECT_EQ(overlap.evictions(), 0u);
    for (const auto& [key, entry] : snapshot.entries) {
        (void)entry;
        EXPECT_TRUE(overlap.lookup(key).has_value());
    }
}

TEST(CacheSnapshot, MergeDeduplicatesAndDetectsConflicts) {
    const CacheSnapshot a = synthetic_snapshot();
    CacheSnapshot b;
    b.entries.emplace_back(0x2222, EvalCache::Entry{250, 90, -51.25});
    b.entries.emplace_back(0x4444, EvalCache::Entry{1, 2, -3.0});

    const CacheSnapshot merged = merge_cache_snapshots({a, b});
    EXPECT_EQ(merged.entries.size(), 4u);  // 0x2222 deduplicated
    EXPECT_TRUE(std::is_sorted(
        merged.entries.begin(), merged.entries.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; }));

    CacheSnapshot conflict;
    conflict.entries.emplace_back(0x2222, EvalCache::Entry{999, 90, -51.25});
    EXPECT_THROW(merge_cache_snapshots({a, conflict}), Error);
}

TEST(CacheSnapshot, RejectsMalformedInput) {
    const std::string good = cache_snapshot_text(synthetic_snapshot());
    EXPECT_NO_THROW(parse_cache_snapshot(good));
    EXPECT_THROW(parse_cache_snapshot("entries = 0\n"), Error);  // no version
    EXPECT_THROW(parse_cache_snapshot("snapshot_version = 9\n"), Error);
    EXPECT_THROW(
        parse_cache_snapshot("snapshot_version = 3\nentries = 2\n"), Error);
    EXPECT_THROW(parse_cache_snapshot("snapshot_version = 3\n"
                                      "entry = zzz 1 2 0000000000000000\n"),
                 Error);
    // Duplicate header keys must not silently last-win.
    EXPECT_THROW(
        parse_cache_snapshot("snapshot_version = 3\nsnapshot_version = 3\n"),
        Error);
    // Only the version the writer emits (3) reads: a well-formed
    // version-1 file (no stage lines) and the writer's own bytes under a
    // version-2 header are both rejected, naming both versions.
    expect_version_rejected(
        [] {
            parse_cache_snapshot(
                "snapshot_version = 1\n"
                "entry = 0000000000000001 1 2 0000000000000000\n");
        },
        "1", "3");
    {
        std::string text = good;
        const size_t pos = text.find("snapshot_version = 3");
        ASSERT_NE(pos, std::string::npos);
        text.replace(pos, 20, "snapshot_version = 2");
        expect_version_rejected([&] { parse_cache_snapshot(text); }, "2",
                                "3");
    }
    // Truncated or trailing stage_entry token streams are rejected.
    EXPECT_THROW(parse_cache_snapshot("snapshot_version = 3\n"
                                      "stage_entry = 0000000000000001 0 1\n"),
                 Error);
    EXPECT_THROW(parse_cache_snapshot("snapshot_version = 3\n"
                                      "stage_entries = 3\n"),
                 Error);
}

TEST(CacheSnapshot, StageEntriesMergeAndDetectConflicts) {
    CacheSnapshot a;
    a.stage_entries.emplace_back(0xaaaa, synthetic_stage_entry());
    CacheSnapshot b;
    b.stage_entries.emplace_back(0xaaaa, synthetic_stage_entry());
    b.stage_entries.emplace_back(0xbbbb, synthetic_stage_entry());

    const CacheSnapshot merged = merge_cache_snapshots({a, b});
    ASSERT_EQ(merged.stage_entries.size(), 2u);  // 0xaaaa deduplicated
    EXPECT_TRUE(merged.stage_entries[0].second == synthetic_stage_entry());

    CacheSnapshot conflict;
    EvalCache::StageEntry other = synthetic_stage_entry();
    other.tabu_stats.best_cost = 0.0;  // any single-field difference
    conflict.stage_entries.emplace_back(0xaaaa, std::move(other));
    EXPECT_THROW(merge_cache_snapshots({a, conflict}), Error);
}

// --- EvalCache capacity bound --------------------------------------------------

TEST(EvalCacheCapacity, EvictsInInsertionOrder) {
    EvalCache cache;
    cache.set_capacity(2);
    cache.store(1, EvalCache::Entry{10, 10, -1.0});
    cache.store(2, EvalCache::Entry{20, 20, -2.0});
    cache.store(3, EvalCache::Entry{30, 30, -3.0});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.lookup(1).has_value());  // oldest insertion evicted
    EXPECT_TRUE(cache.lookup(2).has_value());
    EXPECT_TRUE(cache.lookup(3).has_value());
}

TEST(EvalCacheCapacity, ShrinkingEvictsImmediately) {
    EvalCache cache;
    for (uint64_t key = 1; key <= 5; ++key) {
        cache.store(key, EvalCache::Entry{});
    }
    EXPECT_EQ(cache.size(), 5u);
    EXPECT_EQ(cache.capacity(), 0u);  // unlimited by default
    cache.set_capacity(2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.lookup(3).has_value());
    EXPECT_TRUE(cache.lookup(4).has_value());
    EXPECT_TRUE(cache.lookup(5).has_value());
}

TEST(EvalCacheCapacity, FirstStoreWinsWithoutEviction) {
    EvalCache cache;
    cache.set_capacity(2);
    cache.store(1, EvalCache::Entry{10, 10, -1.0});
    cache.store(1, EvalCache::Entry{99, 99, -9.0});  // ignored duplicate
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.lookup(1)->scalar_cycles, 10);
}

// --- merge ---------------------------------------------------------------------

ShardResultsFile tiny_results(int index, int count, size_t total,
                              uint64_t grid_fp) {
    ShardResultsFile file;
    file.shard_index = index;
    file.shard_count = count;
    file.total_slots = total;
    file.grid_fp = grid_fp;
    return file;
}

TEST(ShardMerger, DetectsConflictsAndHoles) {
    ShardResultsFile a = tiny_results(0, 2, 2, 0xabc);
    a.rows.push_back(ShardRow{0, 0x1, "{\"x\":1}"});
    ShardResultsFile b = tiny_results(1, 2, 2, 0xabc);
    b.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}"});

    // The happy path: disjoint, complete, consistent.
    EXPECT_EQ(merge_shard_results({a, b}),
              "[\n  {\"x\":1},\n  {\"x\":2}\n]\n");

    // Same slot, different fingerprint: hard conflict.
    ShardResultsFile conflicting = tiny_results(1, 2, 2, 0xabc);
    conflicting.rows.push_back(ShardRow{0, 0x9, "{\"x\":9}"});
    try {
        merge_shard_results({a, conflicting});
        FAIL() << "conflict not detected";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos);
    }

    // Same slot, same content: still an overlap error.
    EXPECT_THROW(merge_shard_results({a, a}), Error);

    // Missing slots are listed.
    try {
        merge_shard_results({a});
        FAIL() << "hole not detected";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
    }

    // Grids must match.
    ShardResultsFile other_grid = tiny_results(1, 2, 2, 0xdef);
    other_grid.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}"});
    EXPECT_THROW(merge_shard_results({a, other_grid}), Error);
}

TEST(ShardMerger, ResultsFileRoundTrips) {
    ShardResultsFile file = tiny_results(1, 4, 9, 0x1234567890abcdefull);
    file.eval_hits = 3;
    file.eval_misses = 5;
    file.eval_entries = 4;
    file.rows.push_back(ShardRow{1, 0xa, "{\"flow\":\"WLO-SLP\",\"x\":1}", 12345});
    file.rows.push_back(ShardRow{5, 0xb, "{\"note\":\"has # inside\"}", 0});

    const ShardResultsFile loaded =
        parse_shard_results(shard_results_text(file), "<round-trip>");
    EXPECT_EQ(loaded.shard_index, file.shard_index);
    EXPECT_EQ(loaded.shard_count, file.shard_count);
    EXPECT_EQ(loaded.total_slots, file.total_slots);
    EXPECT_EQ(loaded.grid_fp, file.grid_fp);
    EXPECT_EQ(loaded.eval_hits, file.eval_hits);
    EXPECT_EQ(loaded.eval_misses, file.eval_misses);
    EXPECT_EQ(loaded.eval_entries, file.eval_entries);
    ASSERT_EQ(loaded.rows.size(), file.rows.size());
    for (size_t i = 0; i < file.rows.size(); ++i) {
        EXPECT_EQ(loaded.rows[i].slot, file.rows[i].slot);
        EXPECT_EQ(loaded.rows[i].point_fp, file.rows[i].point_fp);
        EXPECT_EQ(loaded.rows[i].json, file.rows[i].json);
        // The measured wall-clock column round-trips (but is excluded
        // from row identity — see the merge tests).
        EXPECT_EQ(loaded.rows[i].micros, file.rows[i].micros);
    }

    // A concatenation of two results files (duplicate headers) must not
    // silently last-win its way past the merge checks.
    const std::string text = shard_results_text(file);
    EXPECT_THROW(parse_shard_results(text + text, "<concat>"), Error);

    // Only the version the writer emits (4) reads: a well-formed
    // version-3 file (three leading row columns, no measured_ns) is
    // rejected, naming both versions.
    expect_version_rejected(
        [] {
            parse_shard_results("results_version = 3\n"
                                "shard_index = 0\n"
                                "shard_count = 1\n"
                                "total_slots = 1\n"
                                "grid_fingerprint = 0000000000000001\n"
                                "rows = 1\n"
                                "row = 0 000000000000000a 12 {\"x\":1}\n",
                                "<v3>");
        },
        "3", "4");
}

// --- end to end (in-process) ---------------------------------------------------

TEST(ShardEngine, ShardedSweepIsByteIdenticalToSingleProcess) {
    // The exact flows travel by name, like any other flow.
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR", "DOT"}, {"XENTIUM"},
        {"WLO-SLP", "WLO-First", "SLP-Optimal", "WLO-Optimal"},
        {-20.0, -30.0});

    ExecOptions options;
    options.threads = 2;
    SweepDriver reference(options);
    const std::string reference_json = sweep_to_json(reference.run(grid));

    const std::vector<ShardPlan> plans = make_shard_plans(grid, 2);
    std::vector<ShardResultsFile> shard_files;
    std::vector<CacheSnapshot> snapshots;
    for (const ShardPlan& plan : plans) {
        // Through the manifest text, exactly as a worker process would.
        const ShardManifest manifest =
            parse_shard_manifest(shard_manifest_text(plan), "<manifest>");
        ShardRunOptions run_options;
        run_options.threads = 1;
        const ShardRunOutput out = run_shard(manifest, run_options);
        shard_files.push_back(out.results);
        snapshots.push_back(out.snapshot);
    }
    EXPECT_EQ(merge_shard_results(shard_files), reference_json);

    // Warm restart: a shard preloaded with the merged snapshot hits.
    const CacheSnapshot warm = merge_cache_snapshots(snapshots);
    const ShardManifest manifest =
        parse_shard_manifest(shard_manifest_text(plans[0]), "<manifest>");
    ShardRunOptions warm_options;
    warm_options.threads = 1;
    warm_options.warm = &warm;
    const ShardRunOutput warm_out = run_shard(manifest, warm_options);
    EXPECT_GT(warm_out.results.eval_hits, 0u);
    // Stage-memo hits: the warm worker restored the optimization stages
    // (skipping Tabu/SLP) for every preloaded point, and the rows below
    // are still byte-identical to the cold run's.
    EXPECT_GT(warm_out.results.stage_hits, 0u);
    EXPECT_EQ(warm_out.results.stage_misses, 0u);
    ASSERT_EQ(warm_out.results.rows.size(), shard_files[0].rows.size());
    for (size_t i = 0; i < warm_out.results.rows.size(); ++i) {
        EXPECT_EQ(warm_out.results.rows[i].json, shard_files[0].rows[i].json);
    }
}

}  // namespace
}  // namespace slpwlo

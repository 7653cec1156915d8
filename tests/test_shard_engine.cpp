// ShardEngine: deterministic shard planning, self-contained manifests,
// in-memory EvalCache warm starts, and the byte-identical merge
// guarantee (dist/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "dist/cache_snapshot.hpp"
#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
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

TEST(PointCost, SeesTargetModelOverrides) {
    SweepPoint base{"FIR", "XENTIUM", "WLO-SLP", -30.0, {}, {}};
    SweepPoint embedded = base;
    embedded.target_model = targets::xentium();
    SweepPoint wide = base;
    wide.target_model = targets::xentium().with_simd_width(64);

    // A width-derived model admits more lanes and must cost more than its
    // base; an un-embedded point stays at the neutral weight.
    EXPECT_GT(estimate_point_cost(wide), estimate_point_cost(embedded));
    EXPECT_GT(estimate_point_cost(embedded), estimate_point_cost(base));

    // The Float reference skips the SLP machinery: width is free there.
    SweepPoint float_base = base;
    float_base.flow = "Float";
    SweepPoint float_wide = float_base;
    float_wide.target_model = wide.target_model;
    EXPECT_EQ(estimate_point_cost(float_base),
              estimate_point_cost(float_wide));
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

TEST(ShardManifest, RequireWholeGridRejectsPartialPlans) {
    const std::vector<SweepPoint> grid = small_grid();
    const ShardManifest whole = parse_shard_manifest(
        shard_manifest_text(make_shard_plans(grid, 1).front()), "<whole>");
    EXPECT_NO_THROW(require_whole_grid(whole, "<whole>"));

    // Each shard of a 2-way plan is a proper subset of the grid.
    for (const ShardPlan& plan : make_shard_plans(grid, 2)) {
        const ShardManifest part =
            parse_shard_manifest(shard_manifest_text(plan), "<part>");
        try {
            require_whole_grid(part, "<part>");
            ADD_FAILURE() << "shard " << plan.shard_index << " was accepted";
        } catch (const Error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("<part>: manifest covers " +
                                std::to_string(plan.points.size()) + " of " +
                                std::to_string(grid.size())),
                      std::string::npos)
                << what;
        }
    }

    // A full count at the wrong positions is not a whole grid either.
    ShardManifest shuffled = whole;
    std::swap(shuffled.slots[0], shuffled.slots[1]);
    EXPECT_THROW(require_whole_grid(shuffled, "<shuffled>"), Error);
}

// --- cache snapshots -----------------------------------------------------------

CacheSnapshot synthetic_snapshot() {
    EvalCache cache;
    cache.store(0x1111, EvalCache::Entry{100, 40, -38.5});
    cache.store(0x2222, EvalCache::Entry{250, 90, -51.25});
    // An exact spec's -inf noise must survive the copy bit-exactly.
    cache.store(0x3333,
                EvalCache::Entry{7, 7, -std::numeric_limits<double>::infinity()});
    return snapshot_cache(cache);
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
    // misses from the preload itself.
    EvalCache cold;
    preload_cache(cold, snapshot);
    EXPECT_EQ(cold.hits(), 0u);
    EXPECT_EQ(cold.misses(), 0u);
    EXPECT_EQ(cold.size(), snapshot.entries.size());

    // Preload over existing contents: resident keys win, counters still
    // untouched.
    EvalCache warm;
    warm.store(snapshot.entries.front().first, EvalCache::Entry{7, 7, -7.0});
    preload_cache(warm, snapshot);
    EXPECT_EQ(warm.hits(), 0u);
    EXPECT_EQ(warm.misses(), 0u);
    EXPECT_EQ(warm.lookup(snapshot.entries.front().first)->scalar_cycles, 7);
}

// --- merge ---------------------------------------------------------------------

ShardResultsFile tiny_results(size_t total, uint64_t grid_fp) {
    ShardResultsFile file;
    file.total_slots = total;
    file.grid_fp = grid_fp;
    return file;
}

TEST(RowAccumulator, DetectsConflictsHolesAndGridMismatch) {
    ShardResultsFile a = tiny_results(2, 0xabc);
    a.rows.push_back(ShardRow{0, 0x1, "{\"x\":1}"});
    ShardResultsFile b = tiny_results(2, 0xabc);
    b.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}"});

    // The happy path: disjoint, complete, consistent.
    RowAccumulator merged(2, 0xabc);
    EXPECT_EQ(merged.add(a), 1u);
    EXPECT_EQ(merged.add(b), 1u);
    EXPECT_EQ(merged.report(), "[\n  {\"x\":1},\n  {\"x\":2}\n]\n");

    // Same slot, different fingerprint and bytes: hard conflict.
    ShardResultsFile conflicting = tiny_results(2, 0xabc);
    conflicting.rows.push_back(ShardRow{0, 0x9, "{\"x\":9}"});
    RowAccumulator with_conflict(2, 0xabc);
    with_conflict.add(a);
    try {
        with_conflict.add(conflicting);
        FAIL() << "conflict not detected";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos);
    }

    // Missing slots are listed.
    RowAccumulator with_hole(2, 0xabc);
    with_hole.add(a);
    EXPECT_FALSE(with_hole.complete());
    try {
        with_hole.report();
        FAIL() << "hole not detected";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("missing (first: 1)"), std::string::npos) << what;
    }
    EXPECT_THROW(with_hole.rows_file(), Error);

    // Grids must match: another fingerprint or another slot count.
    ShardResultsFile other_grid = tiny_results(2, 0xdef);
    other_grid.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}"});
    EXPECT_THROW(with_hole.add(other_grid), Error);
    ShardResultsFile other_size = tiny_results(3, 0xabc);
    other_size.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}"});
    EXPECT_THROW(with_hole.add(other_size), Error);
    EXPECT_EQ(with_hole.done_slots(), 1u);
}

TEST(RowAccumulator, DeduplicatesIdenticalReissuedRows) {
    ShardResultsFile a = tiny_results(2, 0xabc);
    a.rows.push_back(ShardRow{0, 0x1, "{\"x\":1}", 100});
    a.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}", 100});
    // The re-run of slot 1 (a straggler and its re-issued replacement
    // both finished): identical bytes, different measured micros.
    ShardResultsFile b = tiny_results(2, 0xabc);
    b.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}", 999});

    RowAccumulator merged(2, 0xabc);
    EXPECT_EQ(merged.add(a), 2u);
    EXPECT_EQ(merged.add(b), 0u) << "an identical duplicate fills nothing";
    EXPECT_EQ(merged.report(), "[\n  {\"x\":1},\n  {\"x\":2}\n]\n");
    // The first row wins, measurements included.
    EXPECT_EQ(merged.rows_file().rows[1].micros, 100);

    // Differing bytes for the same slot stay a hard conflict.
    ShardResultsFile conflict = tiny_results(2, 0xabc);
    conflict.rows.push_back(ShardRow{1, 0x2, "{\"x\":9}", 999});
    EXPECT_THROW(merged.add(conflict), Error);
}

TEST(ShardMerger, ResultsFileRoundTrips) {
    ShardResultsFile file = tiny_results(9, 0x1234567890abcdefull);
    file.rows.push_back(
        ShardRow{1, 0xa, "{\"flow\":\"WLO-SLP\",\"x\":1}", 12345, 678});
    file.rows.push_back(ShardRow{5, 0xb, "{\"note\":\"has # inside\"}", 0});

    const ShardResultsFile loaded =
        parse_shard_results(shard_results_text(file), "<round-trip>");
    EXPECT_EQ(loaded.total_slots, file.total_slots);
    EXPECT_EQ(loaded.grid_fp, file.grid_fp);
    ASSERT_EQ(loaded.rows.size(), file.rows.size());
    for (size_t i = 0; i < file.rows.size(); ++i) {
        EXPECT_EQ(loaded.rows[i].slot, file.rows[i].slot);
        EXPECT_EQ(loaded.rows[i].point_fp, file.rows[i].point_fp);
        EXPECT_EQ(loaded.rows[i].json, file.rows[i].json);
        // The measured columns round-trip (but are excluded from row
        // identity — see the RowAccumulator tests).
        EXPECT_EQ(loaded.rows[i].micros, file.rows[i].micros);
        EXPECT_EQ(loaded.rows[i].measured_ns, file.rows[i].measured_ns);
    }

    // A concatenation of two results files (duplicate headers) must not
    // silently last-win its way past the merge checks.
    const std::string text = shard_results_text(file);
    EXPECT_THROW(parse_shard_results(text + text, "<concat>"), Error);

    // Only the version the writer emits (5) reads: a well-formed
    // version-4 file (with its shard header) is rejected, naming both
    // versions.
    expect_version_rejected(
        [] {
            parse_shard_results("results_version = 4\n"
                                "shard_index = 0\n"
                                "shard_count = 1\n"
                                "total_slots = 1\n"
                                "grid_fingerprint = 0000000000000001\n"
                                "rows = 1\n"
                                "row = 0 000000000000000a 12 0 {\"x\":1}\n",
                                "<v4>");
        },
        "4", "5");
    // The dropped version-4 keys are unknown keys now, not ignored ones.
    for (const char* key : {"shard_index = 0", "shard_count = 1",
                            "eval_hits = 3", "stage_misses = 0"}) {
        try {
            parse_shard_results(std::string("results_version = 5\n") + key +
                                    "\ntotal_slots = 1\n",
                                "<v5>");
            ADD_FAILURE() << "`" << key << "` was accepted";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("unknown key"),
                      std::string::npos)
                << e.what();
        }
    }
}

// --- warm start (in-process) ---------------------------------------------------

TEST(CacheSnapshot, PreloadedDriverReproducesColdRowsFromStageMemo) {
    // Heuristic and exact flows alike: every stage result a warm driver
    // restores must render the cold run's bytes.
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR", "DOT"}, {"XENTIUM"},
        {"WLO-SLP", "WLO-First", "SLP-Optimal", "WLO-Optimal"},
        {-20.0, -30.0});

    ExecOptions options;
    options.threads = 2;
    SweepDriver cold(options);
    const std::string cold_json = sweep_to_json(cold.run(grid));
    const CacheSnapshot snapshot = snapshot_cache(cold.eval_cache());
    EXPECT_FALSE(snapshot.stage_entries.empty());

    SweepDriver warm(options);
    preload_cache(warm.eval_cache(), snapshot);
    EXPECT_EQ(sweep_to_json(warm.run(grid)), cold_json);
    const SweepCacheStats stats = warm.cache_stats();
    EXPECT_GT(stats.eval_hits, 0u);
    // The warm driver restored every point's optimization stages
    // (skipping Tabu/SLP and the solver) from the preloaded memo.
    EXPECT_GT(stats.stage_hits, 0u);
    EXPECT_EQ(stats.stage_misses, 0u);
}

}  // namespace
}  // namespace slpwlo

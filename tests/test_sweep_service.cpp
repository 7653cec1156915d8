// SweepService and the WorkSource seam: VectorSource/PlanSource
// equivalence with SweepDriver::run, point cost estimates, and the
// duplicate-row merge policy (flow/work_source.hpp). The elastic path
// over the same seam is covered in tests/test_farm.cpp.
#include <gtest/gtest.h>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_runner.hpp"
#include "flow/work_source.hpp"
#include "support/diagnostics.hpp"
#include "target/target_model.hpp"

namespace slpwlo {
namespace {

using namespace slpwlo::dist;

std::vector<SweepPoint> tiny_grid() {
    return SweepDriver::grid({"FIR"}, {"XENTIUM"}, {"WLO-SLP"},
                             {-20.0, -30.0});
}

/// The single-process reference bytes every other execution shape must
/// reproduce exactly.
std::string reference_json(const std::vector<SweepPoint>& grid) {
    ExecOptions options;
    options.threads = 2;
    SweepDriver driver(options);
    return sweep_to_json(driver.run(grid));
}

/// Run one lease's points on `driver` and package the rows the way
/// SweepService::drain does.
std::vector<WorkRow> run_lease(SweepDriver& driver, const Lease& lease) {
    std::vector<long long> micros;
    std::vector<SweepResult> results = driver.run_timed(lease.points, &micros);
    std::vector<WorkRow> rows;
    rows.reserve(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        rows.push_back(WorkRow{std::move(results[i]), micros[i]});
    }
    return rows;
}

// --- VectorSource mechanics ----------------------------------------------------

TEST(VectorSource, AcquireCompleteAbandonRoundTrip) {
    std::vector<SweepPoint> grid = tiny_grid();
    grid.push_back(grid.front());  // 3 points
    VectorSource source(grid);
    EXPECT_EQ(source.total_slots(), 3u);

    // Bounded acquires hand out ascending slots.
    Lease first = source.acquire(2);
    ASSERT_EQ(first.slots, (std::vector<size_t>{0, 1}));
    Lease second = source.acquire(0);
    ASSERT_EQ(second.slots, (std::vector<size_t>{2}));
    EXPECT_TRUE(source.acquire(0).empty());

    // Abandoned slots come back first.
    source.abandon(first);
    Lease retry = source.acquire(0);
    ASSERT_EQ(retry.slots, (std::vector<size_t>{0, 1}));

    SweepDriver driver;
    source.complete(retry, run_lease(driver, retry));
    source.complete(second, run_lease(driver, second));
    const std::vector<SweepResult> results = source.take_results();
    ASSERT_EQ(results.size(), 3u);
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].point.accuracy_db, grid[i].accuracy_db);
    }
}

TEST(VectorSource, IncompleteDrainThrows) {
    VectorSource source(tiny_grid());
    Lease lease = source.acquire(1);
    SweepDriver driver;
    source.complete(lease, run_lease(driver, lease));
    EXPECT_THROW(source.take_results(), Error);  // slot 1 never completed
}

// --- SweepService equivalence --------------------------------------------------

TEST(SweepService, ChunkedVectorSourceMatchesDriverRunBytes) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const std::string reference = reference_json(grid);

    // One point per lease, single-threaded: maximally different execution
    // shape from the one-pool-run reference, identical bytes required.
    VectorSource source(grid);
    SweepService service(ExecOptions{});
    EXPECT_EQ(service.drain(source, 1), grid.size());
    EXPECT_EQ(sweep_to_json(source.take_results()), reference);
}

TEST(SweepService, PlanSourceMatchesDriverRunBytes) {
    const std::vector<SweepPoint> grid = tiny_grid();
    const std::string reference = reference_json(grid);

    const std::vector<ShardPlan> plans = make_shard_plans(grid, 2);
    std::vector<ShardResultsFile> files;
    for (const ShardPlan& plan : plans) {
        const ShardManifest manifest =
            parse_shard_manifest(shard_manifest_text(plan), "<test>");
        PlanSource source(manifest);
        SweepService service(ExecOptions{});
        service.drain(source, 1);
        PlanSource::Output out = source.take();
        EXPECT_EQ(out.sweep.size(), plan.points.size());
        files.push_back(std::move(out.results));
    }
    EXPECT_EQ(merge_shard_results(files), reference);
}

TEST(SweepService, RunShardStillMatchesReferenceSlice) {
    // dist::run_shard is now a PlanSource + SweepService wrapper; its rows
    // must still be the exact reference slice (the pre-redesign contract).
    const std::vector<SweepPoint> grid = tiny_grid();
    const std::string reference = reference_json(grid);

    const std::vector<ShardPlan> plans = make_shard_plans(grid, 2);
    std::vector<ShardResultsFile> files;
    for (const ShardPlan& plan : plans) {
        const ShardManifest manifest =
            parse_shard_manifest(shard_manifest_text(plan), "<test>");
        files.push_back(run_shard(manifest).results);
    }
    EXPECT_EQ(merge_shard_results(files), reference);
}

// --- estimate_point_cost width awareness ---------------------------------------

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

// --- merge duplicate policy ----------------------------------------------------

TEST(MergePolicy, AllowIdenticalResolvesReissuedDuplicates) {
    ShardResultsFile a;
    a.total_slots = 2;
    a.grid_fp = 0xabc;
    a.rows.push_back(ShardRow{0, 0x1, "{\"x\":1}", 100});
    a.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}", 100});
    ShardResultsFile b;
    b.total_slots = 2;
    b.grid_fp = 0xabc;
    // The re-run of slot 1: identical bytes, different measured micros.
    b.rows.push_back(ShardRow{1, 0x2, "{\"x\":2}", 999});

    // Default policy still refuses overlap (static plans are disjoint).
    EXPECT_THROW(merge_shard_results({a, b}), Error);
    EXPECT_EQ(merge_shard_results({a, b}, DuplicatePolicy::AllowIdentical),
              "[\n  {\"x\":1},\n  {\"x\":2}\n]\n");

    // Differing bytes stay a hard conflict under either policy.
    ShardResultsFile conflict;
    conflict.total_slots = 2;
    conflict.grid_fp = 0xabc;
    conflict.rows.push_back(ShardRow{1, 0x2, "{\"x\":9}", 999});
    EXPECT_THROW(
        merge_shard_results({a, conflict}, DuplicatePolicy::AllowIdentical),
        Error);
}

}  // namespace
}  // namespace slpwlo

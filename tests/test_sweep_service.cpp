// SweepService and the WorkSource seam: VectorSource equivalence with
// SweepDriver::run and point cost estimates (flow/work_source.hpp). The
// elastic path over the same seam is covered in tests/test_farm.cpp.
#include <gtest/gtest.h>

#include "dist/shard_plan.hpp"
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

}  // namespace
}  // namespace slpwlo

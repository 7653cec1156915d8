// WorkSource: the lease-based seam between "what work is there" and "how
// it runs".
//
// Every execution path in the project is the same loop: take some sweep
// points, run them on a SweepDriver, hand the results back to whoever is
// assembling the report. WorkSource abstracts that seam once:
//
//   acquire(max_slots) -> Lease      some slots and their points
//   complete(lease, rows)            results (plus measured wall-clock)
//   abandon(lease)                   the work goes back to the pool
//
// and SweepService is the one consumer: it drains any source through a
// SweepDriver, producing results whose bytes are identical no matter how
// the work was chopped into leases (the driver's slot-ordered determinism
// guarantee). Sources differ only in where work lives:
//
//   VectorSource           a point vector in this process (SweepDriver::run
//                          and the local `run` verb drain one);
//   farm::SocketWorkSource one job of a farm daemon, handing chunks to
//                          worker processes on demand (elastic sweeps with
//                          heartbeat expiry and re-issue;
//                          farm/farm_client.hpp) — the one way to
//                          distribute a sweep.
//
// A source is consumed by one service at a time (methods are not
// thread-safe); concurrency across *workers* comes from several processes
// or threads each draining their own source object over shared state.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "flow/sweep.hpp"

namespace slpwlo {

/// One unit of acquired work: parallel slot/point arrays, slots ascending.
/// `id` identifies the lease to its source (the daemon's lease id for
/// farm chunks; sources that never re-issue may leave it 0).
struct Lease {
    uint64_t id = 0;
    std::vector<size_t> slots;       ///< grid slots, ascending
    std::vector<SweepPoint> points;  ///< points[i] runs at slots[i]

    bool empty() const { return points.empty(); }
};

/// One completed point of a lease: the sweep result plus its measured
/// wall-clock. The measurement is for cost models and scheduling — it is
/// never part of report bytes or fingerprints (reports stay bit-identical
/// across thread counts, machines and re-runs).
struct WorkRow {
    SweepResult result;
    long long micros = 0;  ///< measured wall-clock, microseconds
};

/// Where sweep work comes from and where results go. acquire() returning
/// an empty lease means the source is drained — for sources shared across
/// workers it may block (poll) while other workers still hold leases that
/// could expire back into the pool.
class WorkSource {
public:
    virtual ~WorkSource() = default;

    /// Number of grid slots this source covers (for sizing and progress).
    virtual size_t total_slots() const = 0;

    /// Acquire up to `max_slots` slots of work (0 = no bound; sources
    /// with a natural granularity, e.g. the farm daemon's pre-cut chunks,
    /// may round a positive bound up to it). Empty lease <=> drained.
    virtual Lease acquire(size_t max_slots) = 0;

    /// Report a lease finished; `rows[i]` corresponds to
    /// `lease.points[i]`.
    virtual void complete(const Lease& lease, std::vector<WorkRow> rows) = 0;

    /// Return a lease unfinished; its slots become acquirable again.
    virtual void abandon(const Lease& lease) = 0;
};

/// A point vector as a work source: slots are the vector indices, results
/// accumulate in slot order. This is SweepDriver::run's backing source.
class VectorSource final : public WorkSource {
public:
    explicit VectorSource(std::vector<SweepPoint> points);

    size_t total_slots() const override { return points_.size(); }
    Lease acquire(size_t max_slots) override;
    void complete(const Lease& lease, std::vector<WorkRow> rows) override;
    void abandon(const Lease& lease) override;

    /// All rows in slot order; throws when any slot was never completed.
    std::vector<WorkRow> take_rows();

    /// take_rows() stripped to the results (the SweepDriver::run shape).
    std::vector<SweepResult> take_results();

private:
    std::vector<SweepPoint> points_;
    std::deque<size_t> pending_;  ///< un-leased slots, ascending
    std::vector<std::optional<WorkRow>> rows_;
};

/// The one execution loop behind every sweep entry point: acquire, run on
/// a SweepDriver, complete; abandon and rethrow when a point fails. The
/// report bytes produced from the rows are independent of how the source
/// chops work into leases (driver results are slot-deterministic).
class SweepService {
public:
    /// Own a driver configured with `options`.
    explicit SweepService(ExecOptions options = {});
    /// Borrow an existing driver (shared contexts and EvalCache).
    explicit SweepService(SweepDriver& driver);
    ~SweepService();

    SweepDriver& driver() { return *driver_; }
    const SweepDriver& driver() const { return *driver_; }

    /// Pump the source dry: acquire up to `max_slots` (0 = everything the
    /// source will give at once), run, complete, repeat until an empty
    /// lease. Returns the number of points executed by *this* service —
    /// under elastic sources other workers may have run the rest.
    size_t drain(WorkSource& source, size_t max_slots = 0);

private:
    std::unique_ptr<SweepDriver> owned_;
    SweepDriver* driver_;
};

}  // namespace slpwlo

// FarmService job state: every decision the daemon makes, with the
// socket layer peeled off.
//
// The JobBoard owns the farm's entire job lifecycle — submitted
// manifests chopped into demand-paged chunks, worker claims, heartbeat
// liveness, expiry re-issue, and the per-job streaming merge — as a
// plain in-memory state machine. Time is an explicit `now_ms` parameter
// on every mutating call, never a clock read: the socket server passes
// its steady clock, tests pass literal milliseconds, so the whole
// expiry/re-issue state machine is unit-testable at ttl 0 without a
// single sleep.
//
// This is the repository's one elastic sweep path:
//
//   * a job is a whole-grid manifest (slots 0..n-1), cut into
//     cost-balanced chunks by dist::chunk_grid_slots;
//   * workers claim chunks (each claim issues a fresh lease id), renew
//     liveness by heartbeat, and a worker whose heartbeat goes stale for
//     ttl_ms has every claimed chunk silently re-issued;
//   * chunks are dealt by affinity (acquire): a worker walks forward
//     through a contiguous run of chunks, so the per-kernel work its
//     driver caches is shared by the neighbouring points it runs next;
//   * a straggler that completes after its chunk was re-issued is not an
//     error: the RowAccumulator deduplicates byte-identical rows, and
//     anything else is a conflict;
//   * completed rows stream into a per-job dist::RowAccumulator the
//     moment they arrive, and the job finalizes — report bytes ready —
//     the instant the last slot lands. No separate merge step exists;
//     byte-identity to the 1-process sweep is RowAccumulator's
//     construction guarantee.
//
// Incremental re-sweeps ride the same path: a submit may carry rows from
// a previous run, and every slot whose point fingerprint matches an old
// row is spliced into the accumulator up front (dist::splice_rows) —
// only the changed slots are chunked and served.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"

namespace slpwlo::farm {

class JobBoard {
public:
    /// `ttl_ms` is the heartbeat time-to-live: a worker whose last
    /// heartbeat is `ttl_ms` or more milliseconds old is expired and its
    /// claims re-issued. ttl 0 expires everything on the next tick
    /// (tests); negative throws.
    explicit JobBoard(long long ttl_ms);

    /// Enqueue a manifest (whole grid required: slots must be exactly
    /// 0..n-1) as a new job; returns its id (0, 1, ...). `splice_rows_text`
    /// is an optional previous run's rows file ("" = none): matching
    /// slots are pre-filled (see splice_count). A job whose every slot
    /// splices finalizes immediately with zero chunks.
    size_t submit(const std::string& manifest_text,
                  const dist::ChunkOptions& chunking,
                  const std::string& splice_rows_text, long long now_ms);

    /// Record a worker's liveness (hello, heartbeat, or any claim).
    void heartbeat(const std::string& worker, long long now_ms);

    /// Re-issue every chunk claimed by a worker whose heartbeat went
    /// stale; returns how many chunks went back to the pool. The server
    /// calls this on every tick.
    size_t expire(long long now_ms);

    /// The job a worker should drain next: the first job with claimable
    /// chunks, else the first unfinished job (worth polling — expiry may
    /// free chunks), else nullopt (everything finalized: drain done).
    std::optional<size_t> next_job() const;

    /// True when every submitted job is finalized. An empty board is
    /// trivially drained — workers connecting before the first submit
    /// should poll next_job(), not drained().
    bool drained() const;

    size_t job_count() const { return jobs_.size(); }

    /// The manifest text as submitted — served verbatim so the worker
    /// parses byte-identical input.
    const std::string& manifest_text(size_t job) const;

    struct Acquired {
        uint64_t lease = 0;
        std::vector<size_t> slots;  ///< empty = nothing claimed
        /// With empty slots: true = unfinished chunks are claimed
        /// elsewhere, poll again (they may expire back); false = the job
        /// is finalized, move on.
        bool wait = false;
    };

    /// Claim a pending chunk of `job` for `worker`, whole: one chunk per
    /// lease, never split. Claims count as heartbeats. Chunks are dealt by
    /// affinity, so each worker runs a contiguous run of the grid and
    /// reuses what its driver built for the neighbouring points:
    ///   * the chunk after the worker's last claim in this job, if it is
    ///     still pending;
    ///   * otherwise a new run inside the longest run of pending chunks
    ///     (the first such run on ties): its first chunk when nobody
    ///     walks into it (the chunk before it is not claimed), else its
    ///     middle chunk.
    /// Expired and abandoned chunks are pending again and dealt by the
    /// same rule. The daemon's `complete` reply claims through here too.
    Acquired acquire(const std::string& worker, size_t job, long long now_ms);

    /// Fold one completed lease in: `rows_text` is a shard results file
    /// whose rows cover exactly the lease's slots. Atomic — a validation
    /// error rejects the whole frame and no row lands. Stragglers
    /// (leases already re-issued, even already completed by the
    /// replacement) are accepted when byte-identical. Returns true when
    /// this completion finalized the job.
    bool complete(const std::string& worker, size_t job, uint64_t lease,
                  const std::string& rows_text, long long now_ms);

    /// Return a lease's chunk to the pool unfinished (worker shutting
    /// down cleanly). Unknown/stale leases are ignored.
    void abandon(size_t job, uint64_t lease);

    bool job_finalized(size_t job) const;

    /// Slots pre-filled from the splice file at submit time.
    size_t splice_count(size_t job) const;

    /// The finalized job's merged JSON report — byte-identical to the
    /// 1-process sweep_to_json. Throws while slots are missing.
    std::string report(size_t job) const;

    /// The finalized job's whole-grid rows file text (for --rows-out /
    /// future splices).
    std::string rows_text(size_t job) const;

    /// Total chunks re-issued by heartbeat expiry, across all jobs.
    size_t reissues() const { return reissues_; }

    /// Machine-readable daemon state: per-job chunk/slot progress,
    /// per-worker heartbeat ages and claims, global re-issue count. The
    /// `status` verb's response body.
    std::string status_json(long long now_ms) const;

private:
    struct Chunk {
        enum class State { Pending, Claimed, Done };
        std::vector<size_t> slots;
        State state = State::Pending;
        std::string worker;  ///< claimant while Claimed
        uint64_t lease = 0;  ///< current lease id while Claimed
        int issues = 0;      ///< times handed out (>1 = re-issued)
    };

    struct Job {
        std::string text;  ///< manifest as submitted, served verbatim
        dist::ShardManifest manifest;
        std::vector<Chunk> chunks;
        dist::RowAccumulator rows;
        size_t spliced = 0;
        bool finalized = false;
        long long submitted_ms = 0;
        long long finalized_ms = -1;
    };

    struct Worker {
        long long last_heartbeat_ms = 0;
        size_t completed_chunks = 0;
        /// Stale at an expire() sweep, and so holding no claim, until
        /// the next heartbeat.
        bool expired = false;
        /// (job, chunk) of the latest claim: the run this worker walks.
        std::optional<std::pair<size_t, size_t>> last_claim;
    };

    Job& job_at(size_t job);
    const Job& job_at(size_t job) const;
    /// The chunk acquire() deals next in `job` (see there); `after` is
    /// the claimant's last claim in that job. nullopt = nothing pending.
    static std::optional<size_t> deal(const Job& job,
                                      std::optional<size_t> after);
    void finalize_if_complete(Job& job, long long now_ms);

    long long ttl_ms_;
    std::vector<Job> jobs_;
    std::map<std::string, Worker> workers_;
    /// Every lease ever issued, by id: stragglers completing a re-issued
    /// chunk still resolve to it.
    std::map<uint64_t, std::pair<size_t, size_t>> leases_;  ///< id -> (job, chunk)
    uint64_t next_lease_ = 1;
    size_t reissues_ = 0;
};

}  // namespace slpwlo::farm

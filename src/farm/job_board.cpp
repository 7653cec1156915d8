#include "farm/job_board.hpp"

#include <algorithm>
#include <sstream>

#include "farm/framing.hpp"
#include "flow/report.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo::farm {

JobBoard::JobBoard(long long ttl_ms) : ttl_ms_(ttl_ms) {
    SLPWLO_CHECK(ttl_ms_ >= 0, "farm: heartbeat ttl must be >= 0 ms");
}

size_t JobBoard::submit(const std::string& manifest_text,
                        const dist::ChunkOptions& chunking,
                        const std::string& splice_rows_text, long long now_ms) {
    const std::string source = "job " + std::to_string(jobs_.size());
    dist::ShardManifest manifest =
        dist::parse_shard_manifest(manifest_text, source);

    // Slot i must be grid slot i, so a worker can look any lease slot up
    // directly in manifest.points.
    dist::require_whole_grid(manifest, source);

    const size_t total_slots = manifest.total_slots;
    const uint64_t grid_fp = manifest.grid_fp;
    Job job{manifest_text,
            std::move(manifest),
            {},
            dist::RowAccumulator(total_slots, grid_fp),
            0,
            false,
            now_ms,
            -1};

    // Incremental re-sweep: pre-fill every slot whose point fingerprint
    // matches a row of the previous run, then chunk only what's left.
    if (!splice_rows_text.empty()) {
        const dist::ShardResultsFile old_rows = dist::parse_shard_results(
            splice_rows_text, source + " splice rows");
        std::vector<uint64_t> slot_fps;
        slot_fps.reserve(job.manifest.points.size());
        for (const SweepPoint& point : job.manifest.points) {
            slot_fps.push_back(dist::point_fingerprint(point));
        }
        const dist::ShardResultsFile spliced =
            dist::splice_rows({old_rows}, slot_fps, job.manifest.grid_fp);
        job.spliced = job.rows.add(spliced);
    }

    std::vector<size_t> missing;
    std::vector<SweepPoint> missing_points;
    for (size_t slot = 0; slot < job.manifest.total_slots; ++slot) {
        if (job.rows.has_slot(slot)) continue;
        missing.push_back(slot);
        missing_points.push_back(job.manifest.points[slot]);
    }
    if (!missing.empty()) {
        for (const std::vector<size_t>& chunk :
             dist::chunk_grid_slots(missing_points, missing, chunking)) {
            Chunk state;
            state.slots = chunk;
            job.chunks.push_back(std::move(state));
        }
    }

    jobs_.push_back(std::move(job));
    finalize_if_complete(jobs_.back(), now_ms);
    return jobs_.size() - 1;
}

void JobBoard::heartbeat(const std::string& worker, long long now_ms) {
    SLPWLO_CHECK(!worker.empty(), "farm: worker id must not be empty");
    Worker& state = workers_[worker];
    state.last_heartbeat_ms = now_ms;
    state.expired = false;
}

size_t JobBoard::expire(long long now_ms) {
    size_t reissued = 0;
    for (auto& [name, worker] : workers_) {
        // An expired worker's claims went back at the sweep that expired
        // it, and it claims nothing until a heartbeat clears the flag.
        if (worker.expired || now_ms - worker.last_heartbeat_ms < ttl_ms_) {
            continue;
        }
        worker.expired = true;
        for (Job& job : jobs_) {
            for (Chunk& chunk : job.chunks) {
                if (chunk.state != Chunk::State::Claimed ||
                    chunk.worker != name) {
                    continue;
                }
                // Back to the pool; the stale lease id stays resolvable
                // so a straggler's late complete is still accepted.
                chunk.state = Chunk::State::Pending;
                chunk.worker.clear();
                chunk.lease = 0;
                reissued++;
            }
        }
    }
    reissues_ += reissued;
    return reissued;
}

std::optional<size_t> JobBoard::next_job() const {
    std::optional<size_t> unfinished;
    for (size_t i = 0; i < jobs_.size(); ++i) {
        if (jobs_[i].finalized) continue;
        if (!unfinished) unfinished = i;
        for (const Chunk& chunk : jobs_[i].chunks) {
            if (chunk.state == Chunk::State::Pending) return i;
        }
    }
    return unfinished;
}

bool JobBoard::drained() const {
    return std::all_of(jobs_.begin(), jobs_.end(),
                       [](const Job& job) { return job.finalized; });
}

const std::string& JobBoard::manifest_text(size_t job) const {
    return job_at(job).text;
}

JobBoard::Acquired JobBoard::acquire(const std::string& worker, size_t job_id,
                                     long long now_ms) {
    heartbeat(worker, now_ms);
    Job& job = job_at(job_id);
    Acquired out;
    if (job.finalized) return out;  // empty, wait = false: move on

    Worker& claimant = workers_[worker];
    std::optional<size_t> after;
    if (claimant.last_claim && claimant.last_claim->first == job_id) {
        after = claimant.last_claim->second;
    }
    const std::optional<size_t> index = deal(job, after);
    if (!index) {
        // Nothing pending. Unfinished chunks are claimed elsewhere —
        // worth polling, they may expire back.
        out.wait = true;
        return out;
    }
    // The chunk whole: one chunk per lease, never split.
    Chunk& chunk = job.chunks[*index];
    out.lease = next_lease_++;
    leases_[out.lease] = {job_id, *index};
    chunk.state = Chunk::State::Claimed;
    chunk.worker = worker;
    chunk.lease = out.lease;
    chunk.issues++;
    out.slots = chunk.slots;
    claimant.last_claim = {job_id, *index};
    return out;
}

std::optional<size_t> JobBoard::deal(const Job& job,
                                     std::optional<size_t> after) {
    const std::vector<Chunk>& chunks = job.chunks;
    const auto pending = [&chunks](size_t index) {
        return chunks[index].state == Chunk::State::Pending;
    };
    // Walk on through the claimant's own run.
    if (after && *after + 1 < chunks.size() && pending(*after + 1)) {
        return *after + 1;
    }
    // Else open a run inside the longest run of pending chunks.
    size_t run_begin = 0;
    size_t run_length = 0;
    for (size_t begin = 0; begin < chunks.size();) {
        if (!pending(begin)) {
            ++begin;
            continue;
        }
        size_t end = begin + 1;
        while (end < chunks.size() && pending(end)) ++end;
        if (end - begin > run_length) {
            run_begin = begin;
            run_length = end - begin;
        }
        begin = end;
    }
    if (run_length == 0) return std::nullopt;
    // A claimed chunk just before the run means its holder walks into the
    // run's front next, so split the run instead.
    const bool walked_into =
        run_begin > 0 && chunks[run_begin - 1].state == Chunk::State::Claimed;
    return walked_into ? run_begin + run_length / 2 : run_begin;
}

bool JobBoard::complete(const std::string& worker, size_t job_id,
                        uint64_t lease, const std::string& rows_text,
                        long long now_ms) {
    heartbeat(worker, now_ms);
    Job& job = job_at(job_id);

    // Resolve the lease's chunk. Stale ids stay in the map, so a
    // straggler whose chunk was re-issued (even already completed by the
    // replacement) still resolves.
    const auto it = leases_.find(lease);
    SLPWLO_CHECK(it != leases_.end(), "farm: unknown lease " +
                                          std::to_string(lease) +
                                          " for job " +
                                          std::to_string(job_id));
    SLPWLO_CHECK(it->second.first == job_id,
                 "farm: lease " + std::to_string(lease) + " belongs to job " +
                     std::to_string(it->second.first) + ", not job " +
                     std::to_string(job_id));
    const size_t chunk_index = it->second.second;
    std::vector<size_t> expected = job.chunks[chunk_index].slots;

    const dist::ShardResultsFile rows = dist::parse_shard_results(
        rows_text, "lease " + std::to_string(lease) + " rows");
    std::vector<size_t> got;
    got.reserve(rows.rows.size());
    for (const dist::ShardRow& row : rows.rows) got.push_back(row.slot);
    std::sort(got.begin(), got.end());
    SLPWLO_CHECK(got == expected,
                 "farm: lease " + std::to_string(lease) + " completion covers " +
                     std::to_string(got.size()) + " slots, expected the " +
                     std::to_string(expected.size()) +
                     " slots of its chunk(s) exactly");

    // Atomic: RowAccumulator::add validates everything before inserting
    // anything, so a conflicting frame is rejected whole.
    job.rows.add(rows);

    Chunk& chunk = job.chunks[chunk_index];
    if (chunk.state != Chunk::State::Done) {
        chunk.state = Chunk::State::Done;
        chunk.worker.clear();
        chunk.lease = 0;
    }
    workers_[worker].completed_chunks++;

    const bool was_finalized = job.finalized;
    finalize_if_complete(job, now_ms);
    return job.finalized && !was_finalized;
}

void JobBoard::abandon(size_t job_id, uint64_t lease) {
    Job& job = job_at(job_id);
    const auto it = leases_.find(lease);
    if (it == leases_.end() || it->second.first != job_id) return;
    Chunk& chunk = job.chunks[it->second.second];
    if (chunk.state != Chunk::State::Claimed || chunk.lease != lease) {
        return;  // stale: expired and re-issued, or already done
    }
    chunk.state = Chunk::State::Pending;
    chunk.worker.clear();
    chunk.lease = 0;
}

bool JobBoard::job_finalized(size_t job) const {
    return job_at(job).finalized;
}

size_t JobBoard::splice_count(size_t job) const { return job_at(job).spliced; }

std::string JobBoard::report(size_t job) const {
    return job_at(job).rows.report();
}

std::string JobBoard::rows_text(size_t job) const {
    return dist::shard_results_text(job_at(job).rows.rows_file());
}

std::string JobBoard::status_json(long long now_ms) const {
    std::ostringstream os;
    os << "{\n";
    os << "  \"protocol\": \"" << kProtocolTag << "\",\n";
    os << "  \"drained\": " << (drained() ? "true" : "false") << ",\n";
    os << "  \"reissues\": " << reissues_ << ",\n";
    os << "  \"jobs\": [";
    for (size_t i = 0; i < jobs_.size(); ++i) {
        const Job& job = jobs_[i];
        size_t pending = 0;
        size_t claimed = 0;
        size_t done = 0;
        for (const Chunk& chunk : job.chunks) {
            switch (chunk.state) {
                case Chunk::State::Pending: pending++; break;
                case Chunk::State::Claimed: claimed++; break;
                case Chunk::State::Done: done++; break;
            }
        }
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"job\": " << i << ", \"grid_fingerprint\": \""
           << fingerprint_hex(job.manifest.grid_fp) << "\", \"total_slots\": "
           << job.rows.total_slots() << ", \"done_slots\": "
           << job.rows.done_slots() << ", \"spliced_slots\": " << job.spliced
           << ", \"chunks\": " << job.chunks.size()
           << ", \"pending_chunks\": " << pending
           << ", \"claimed_chunks\": " << claimed
           << ", \"done_chunks\": " << done << ", \"age_ms\": "
           << (now_ms - job.submitted_ms) << ", \"finalized\": "
           << (job.finalized ? "true" : "false") << "}";
    }
    os << (jobs_.empty() ? "" : "\n  ") << "],\n";
    os << "  \"workers\": [";
    size_t emitted = 0;
    for (const auto& [name, worker] : workers_) {
        size_t claimed = 0;
        for (const Job& job : jobs_) {
            for (const Chunk& chunk : job.chunks) {
                if (chunk.state == Chunk::State::Claimed &&
                    chunk.worker == name) {
                    claimed++;
                }
            }
        }
        os << (emitted++ == 0 ? "\n" : ",\n");
        os << "    {\"worker\": " << json_escape(name)
           << ", \"heartbeat_age_ms\": "
           << (now_ms - worker.last_heartbeat_ms) << ", \"alive\": "
           << (worker.expired ? "false" : "true")
           << ", \"claimed_chunks\": " << claimed
           << ", \"completed_chunks\": " << worker.completed_chunks << "}";
    }
    os << (emitted == 0 ? "" : "\n  ") << "]\n";
    os << "}\n";
    return os.str();
}

JobBoard::Job& JobBoard::job_at(size_t job) {
    SLPWLO_CHECK(job < jobs_.size(), "farm: no such job " +
                                         std::to_string(job) + " (" +
                                         std::to_string(jobs_.size()) +
                                         " submitted)");
    return jobs_[job];
}

const JobBoard::Job& JobBoard::job_at(size_t job) const {
    return const_cast<JobBoard*>(this)->job_at(job);
}

void JobBoard::finalize_if_complete(Job& job, long long now_ms) {
    if (job.finalized || !job.rows.complete()) return;
    job.finalized = true;
    job.finalized_ms = now_ms;
}

}  // namespace slpwlo::farm

// FarmService: wire framing edge cases, the JobBoard state machine at
// ttl 0 (explicit clocks, no sleeps), incremental-re-sweep splicing, and
// socket end-to-end runs whose reports must be byte-identical to the
// 1-process sweep — at 1 and 4 workers, and with a worker that dies
// mid-`complete` — plus the daemon's and worker's option range checks and
// the worker's strict parse of `acquire` slot lists.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "farm/farm_client.hpp"
#include "farm/farm_server.hpp"
#include "farm/framing.hpp"
#include "farm/job_board.hpp"
#include "flow/sweep.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo {
namespace {

using namespace slpwlo::farm;
using namespace slpwlo::dist;

// --- framing -------------------------------------------------------------------

Message ping(const std::string& body = "") {
    Message m;
    m.verb = "hello";
    m.fields["worker"] = "w1";
    m.body = body;
    return m;
}

TEST(FarmFraming, FrameRoundTrip) {
    const Message sent = ping("opaque \x01 bytes\nwith newlines\n");
    std::string buffer = encode_frame(sent);
    const std::optional<Message> got = take_frame(buffer);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->verb, "hello");
    EXPECT_EQ(got->field("worker"), "w1");
    EXPECT_EQ(got->body, sent.body);
    EXPECT_TRUE(buffer.empty()) << "frame bytes must be consumed";
}

TEST(FarmFraming, PartialFramesWaitForMoreBytes) {
    const std::string frame = encode_frame(ping("some body"));
    // Byte by byte: no prefix short of the full frame may yield a
    // message (frames are atomic) — and none may throw.
    std::string buffer;
    for (size_t i = 0; i + 1 < frame.size(); ++i) {
        buffer += frame[i];
        std::string probe = buffer;
        EXPECT_FALSE(take_frame(probe).has_value()) << "at byte " << i;
        EXPECT_EQ(probe, buffer) << "incomplete frames must not consume";
    }
    buffer += frame.back();
    EXPECT_TRUE(take_frame(buffer).has_value());
}

TEST(FarmFraming, BackToBackFramesDrainInOrder) {
    Message second = ping();
    second.verb = "status";
    second.fields.clear();
    std::string buffer = encode_frame(ping()) + encode_frame(second);
    const std::optional<Message> a = take_frame(buffer);
    const std::optional<Message> b = take_frame(buffer);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->verb, "hello");
    EXPECT_EQ(b->verb, "status");
    EXPECT_FALSE(take_frame(buffer).has_value());
}

TEST(FarmFraming, GarbageHeaderPoisonsTheConnection) {
    std::string buffer = "GET / HTTP/1.1\r\nHost: farm\r\n\r\n";
    EXPECT_THROW(take_frame(buffer), Error);
    // No newline at all: tolerated only until the header-size bound.
    std::string silent(kMaxFrameBytes > 128 ? 128 : 65, 'x');
    EXPECT_THROW(take_frame(silent), Error);
    std::string still_arriving = "slpwlo-far";  // short, could become valid
    EXPECT_FALSE(take_frame(still_arriving).has_value());
}

TEST(FarmFraming, VersionMismatchIsNamedNotGarbage) {
    std::string buffer = "slpwlo-farm/2 5\nhello";
    try {
        take_frame(buffer);
        FAIL() << "a future protocol version must be rejected";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("slpwlo-farm/2"), std::string::npos) << what;
    }
}

TEST(FarmFraming, OversizedLengthRejectedBeforePayload) {
    // Only the header has arrived — the bogus length alone must kill the
    // connection (no buffering 2^60 bytes first).
    std::string buffer =
        "slpwlo-farm/1 " + std::to_string(kMaxFrameBytes + 1) + "\n";
    EXPECT_THROW(take_frame(buffer), Error);
    std::string absurd = "slpwlo-farm/1 1152921504606846976\n";
    EXPECT_THROW(take_frame(absurd), Error);
    std::string not_a_number = "slpwlo-farm/1 12q4\n";
    EXPECT_THROW(take_frame(not_a_number), Error);
}

TEST(FarmFraming, MessageFieldAccessors) {
    Message m = ping();
    EXPECT_EQ(m.field("missing"), "");
    EXPECT_THROW(m.require_field("missing"), Error);
    m.fields["n"] = "42";
    EXPECT_EQ(m.require_ll("n"), 42);
    m.fields["n"] = "4x2";
    EXPECT_THROW(m.require_ll("n"), Error);
}

TEST(FarmFraming, DecodeRejectsMalformedPayloads) {
    EXPECT_THROW(decode_message("no verb line\n\n"), Error);
    EXPECT_THROW(decode_message("worker = w1\nverb = hello\n\n"), Error)
        << "fields before the verb line";
    EXPECT_THROW(decode_message("verb = a\nverb = b\n\n"), Error);
    EXPECT_THROW(decode_message("verb = a\nk = 1\nk = 2\n\n"), Error);
}

// --- JobBoard at ttl 0 ----------------------------------------------------------

/// A small real whole-grid manifest (no flows are run — the board only
/// parses points and fingerprints).
std::string whole_grid_manifest(const std::vector<SweepPoint>& grid) {
    const std::vector<dist::ShardPlan> plans = dist::make_shard_plans(grid, 1);
    return shard_manifest_text(plans.front());
}

std::vector<SweepPoint> board_grid() {
    return SweepDriver::grid({"FIR", "DOT"}, {"XENTIUM"}, {"WLO-SLP"},
                             {-20.0, -30.0});
}

/// Synthetic rows for `slots` of `manifest` — content-correct headers and
/// fingerprints, placeholder JSON (the board never interprets row bytes).
std::string synthetic_rows(const ShardManifest& manifest,
                           const std::vector<size_t>& slots,
                           const std::string& tag = "r") {
    ShardResultsFile file;
    file.total_slots = manifest.total_slots;
    file.grid_fp = manifest.grid_fp;
    for (const size_t slot : slots) {
        ShardRow row;
        row.slot = slot;
        row.point_fp = dist::point_fingerprint(manifest.points[slot]);
        row.json = "{\"" + tag + "\": " + std::to_string(slot) + "}";
        file.rows.push_back(row);
    }
    return shard_results_text(file);
}

TEST(FarmJobBoard, RejectsPartialGridManifests) {
    JobBoard board(0);
    const std::vector<dist::ShardPlan> plans =
        dist::make_shard_plans(board_grid(), 2);
    EXPECT_THROW(
        board.submit(shard_manifest_text(plans[0]), ChunkOptions{}, "", 0),
        Error);
}

TEST(FarmJobBoard, ChunkLifecycleToFinalizedReport) {
    JobBoard board(1000);
    const std::string text = whole_grid_manifest(board_grid());
    const ShardManifest manifest = parse_shard_manifest(text, "<test>");

    ChunkOptions chunking;
    chunking.max_chunk_slots = 1;  // one slot per chunk: 4 chunks
    const size_t job = board.submit(text, chunking, "", 0);
    EXPECT_EQ(job, 0u);
    EXPECT_FALSE(board.drained());
    EXPECT_EQ(board.next_job(), std::optional<size_t>(0));
    EXPECT_EQ(board.manifest_text(job), text);

    // Claim all four chunks across two workers; every claim is a lease.
    std::vector<std::pair<uint64_t, std::vector<size_t>>> leases;
    for (int i = 0; i < 4; ++i) {
        const JobBoard::Acquired got =
            board.acquire(i % 2 == 0 ? "w1" : "w2", job, 10);
        ASSERT_FALSE(got.slots.empty());
        leases.push_back({got.lease, got.slots});
    }
    // Pool empty but unfinished: an idle worker should wait, not leave.
    const JobBoard::Acquired empty = board.acquire("w3", job, 11);
    EXPECT_TRUE(empty.slots.empty());
    EXPECT_TRUE(empty.wait);

    bool finalized = false;
    for (const auto& [lease, slots] : leases) {
        EXPECT_FALSE(finalized);
        finalized = board.complete(lease % 2 == 1 ? "w1" : "w2", job, lease,
                                   synthetic_rows(manifest, slots), 20);
    }
    EXPECT_TRUE(finalized) << "the last completion finalizes the job";
    EXPECT_TRUE(board.job_finalized(job));
    EXPECT_TRUE(board.drained());
    EXPECT_EQ(board.next_job(), std::nullopt);
    EXPECT_EQ(board.reissues(), 0u);

    // The streamed merge renders all rows in slot order.
    const std::string report = board.report(job);
    for (size_t slot = 0; slot < manifest.total_slots; ++slot) {
        EXPECT_NE(report.find("{\"r\": " + std::to_string(slot) + "}"),
                  std::string::npos);
    }
    // After finalize: acquire returns empty with wait=false — move on.
    const JobBoard::Acquired done = board.acquire("w1", job, 30);
    EXPECT_TRUE(done.slots.empty());
    EXPECT_FALSE(done.wait);
}

TEST(FarmJobBoard, TtlZeroExpiryReissuesAndAcceptsStragglers) {
    // ttl 0: every worker is stale at the next expire() sweep. Explicit
    // clocks make the whole re-issue machine sleep-free.
    JobBoard board(0);
    const std::string text = whole_grid_manifest(board_grid());
    const ShardManifest manifest = parse_shard_manifest(text, "<test>");
    ChunkOptions chunking;
    chunking.chunk_cost = 1e18;  // a single chunk covering the grid
    const size_t job = board.submit(text, chunking, "", 0);

    const JobBoard::Acquired first = board.acquire("slow", job, 1);
    ASSERT_FALSE(first.slots.empty());
    EXPECT_EQ(board.expire(1), 1u) << "ttl 0 expires the claim immediately";
    EXPECT_EQ(board.reissues(), 1u);

    // The replacement claims the same chunk under a fresh lease.
    const JobBoard::Acquired second = board.acquire("fast", job, 2);
    ASSERT_EQ(second.slots, first.slots);
    EXPECT_NE(second.lease, first.lease);

    const std::string rows = synthetic_rows(manifest, second.slots);
    EXPECT_TRUE(board.complete("fast", job, second.lease, rows, 3));

    // The straggler finishes too: identical bytes deduplicate quietly
    // (stale lease ids stay resolvable), different bytes are a conflict
    // rejected whole.
    EXPECT_FALSE(board.complete("slow", job, first.lease, rows, 4));
    EXPECT_THROW(board.complete("slow", job, first.lease,
                                synthetic_rows(manifest, first.slots, "evil"),
                                5),
                 Error);
    EXPECT_TRUE(board.job_finalized(job));
}

TEST(FarmJobBoard, CompletionIsAtomic) {
    JobBoard board(1000);
    const std::string text = whole_grid_manifest(board_grid());
    const ShardManifest manifest = parse_shard_manifest(text, "<test>");
    ChunkOptions chunking;
    chunking.chunk_cost = 1e18;  // cost never cuts...
    chunking.max_chunk_slots = 2;  // ...so the slot cap rules: 2x2
    const size_t job = board.submit(text, chunking, "", 0);
    const JobBoard::Acquired got = board.acquire("w1", job, 1);
    ASSERT_EQ(got.slots.size(), 2u);

    // Rows that do not cover the lease's slots exactly: rejected, and
    // nothing lands (no half-applied frame).
    EXPECT_THROW(board.complete("w1", job, got.lease,
                                synthetic_rows(manifest, {got.slots[0]}), 2),
                 Error);
    EXPECT_THROW(board.complete(
                     "w1", job, got.lease,
                     synthetic_rows(manifest, {got.slots[0], 3}), 2),
                 Error);
    EXPECT_FALSE(board.job_finalized(job));
    EXPECT_THROW(board.report(job), Error) << "no slot may have landed";

    // Unknown lease ids are a hard error (a confused worker, not a race).
    EXPECT_THROW(board.complete("w1", job, 9999,
                                synthetic_rows(manifest, got.slots), 3),
                 Error);
}

TEST(FarmJobBoard, AbandonReturnsChunksToThePool) {
    JobBoard board(1000);
    const std::string text = whole_grid_manifest(board_grid());
    ChunkOptions chunking;
    chunking.chunk_cost = 1e18;  // one chunk for the whole grid
    const size_t job = board.submit(text, chunking, "", 0);
    const JobBoard::Acquired got = board.acquire("w1", job, 1);
    ASSERT_FALSE(got.slots.empty());
    board.abandon(job, got.lease);
    const JobBoard::Acquired again = board.acquire("w2", job, 2);
    EXPECT_EQ(again.slots, got.slots);
    board.abandon(job, got.lease);  // stale: ignored, w2 keeps its claim
    const JobBoard::Acquired blocked = board.acquire("w3", job, 3);
    EXPECT_TRUE(blocked.slots.empty());
    EXPECT_TRUE(blocked.wait);
}

TEST(FarmJobBoard, SubmitWithSpliceRowsFinalizesUnchangedGrids) {
    JobBoard board(1000);
    const std::string text = whole_grid_manifest(board_grid());
    const ShardManifest manifest = parse_shard_manifest(text, "<test>");

    // First run: everything executed (synthetically here).
    ChunkOptions chunking;
    chunking.chunk_cost = 1e18;  // one chunk for the whole grid
    const size_t first = board.submit(text, chunking, "", 0);
    const JobBoard::Acquired got = board.acquire("w1", first, 1);
    board.complete("w1", first, got.lease,
                   synthetic_rows(manifest, got.slots), 2);
    const std::string rows = board.rows_text(first);

    // Re-submit the identical grid with the previous rows: every slot
    // splices, the job finalizes with zero chunks served.
    const size_t second = board.submit(text, chunking, rows, 10);
    EXPECT_TRUE(board.job_finalized(second));
    EXPECT_EQ(board.splice_count(second), manifest.total_slots);
    EXPECT_EQ(board.report(second), board.report(first))
        << "a fully-spliced job reproduces the original report bytes";
    const JobBoard::Acquired none = board.acquire("w1", second, 11);
    EXPECT_TRUE(none.slots.empty());
    EXPECT_FALSE(none.wait);
}

TEST(FarmJobBoard, StatusJsonTracksLiveState) {
    JobBoard board(0);
    EXPECT_NE(board.status_json(0).find("\"drained\": true"),
              std::string::npos)
        << "an empty board is trivially drained";

    const std::string text = whole_grid_manifest(board_grid());
    const ShardManifest manifest = parse_shard_manifest(text, "<test>");
    ChunkOptions chunking;
    chunking.chunk_cost = 1e18;  // one chunk for the whole grid
    const size_t job = board.submit(text, chunking, "", 0);
    const JobBoard::Acquired got = board.acquire("wo\"rker", job, 1);

    std::string status = board.status_json(5);
    EXPECT_NE(status.find("\"drained\": false"), std::string::npos);
    EXPECT_NE(status.find("\"claimed_chunks\": 1"), std::string::npos);
    EXPECT_NE(status.find("\"wo\\\"rker\""), std::string::npos)
        << "worker names are JSON-escaped";

    board.expire(6);
    status = board.status_json(7);
    EXPECT_NE(status.find("\"alive\": false"), std::string::npos);
    EXPECT_NE(status.find("\"reissues\": 1"), std::string::npos);

    board.complete("wo\"rker", job, got.lease,
                   synthetic_rows(manifest, got.slots), 8);
    status = board.status_json(9);
    EXPECT_NE(status.find("\"drained\": true"), std::string::npos);
    EXPECT_NE(status.find("\"finalized\": true"), std::string::npos);
}

// --- RowAccumulator atomicity / splice ------------------------------------------

TEST(FarmMergeSupport, AccumulatorAddIsAllOrNothing) {
    RowAccumulator acc(4, 0xABCD);

    ShardResultsFile good;
    good.total_slots = 4;
    good.grid_fp = 0xABCD;
    good.rows.push_back({0, 11, "{\"a\": 0}", 0, 0});
    EXPECT_EQ(acc.add(good), 1u);

    // One fresh row, one conflicting row in the same file: the fresh row
    // must not land either.
    ShardResultsFile mixed;
    mixed.total_slots = 4;
    mixed.grid_fp = 0xABCD;
    mixed.rows.push_back({1, 22, "{\"a\": 1}", 0, 0});
    mixed.rows.push_back({0, 11, "{\"a\": 666}", 0, 0});
    EXPECT_THROW(acc.add(mixed), Error);
    EXPECT_EQ(acc.done_slots(), 1u);
    EXPECT_FALSE(acc.has_slot(1)) << "the fresh row of a rejected file";
    EXPECT_EQ(acc.missing(8), (std::vector<size_t>{1, 2, 3}));
}

TEST(FarmMergeSupport, SpliceReSlotsByPointFingerprint) {
    ShardResultsFile old_file;
    old_file.total_slots = 3;
    old_file.grid_fp = 0x1;
    old_file.rows.push_back({0, 100, "{\"p\": 100}", 7, 0});
    old_file.rows.push_back({1, 200, "{\"p\": 200}", 7, 0});
    old_file.rows.push_back({2, 300, "{\"p\": 300}", 7, 0});

    // New grid: one point dropped, order permuted, one new point.
    const std::vector<uint64_t> slot_fps = {300, 999, 100};
    const ShardResultsFile spliced =
        dist::splice_rows({old_file}, slot_fps, 0x2);
    EXPECT_EQ(spliced.grid_fp, 0x2u);
    ASSERT_EQ(spliced.rows.size(), 2u);
    EXPECT_EQ(spliced.rows[0].slot, 0u);
    EXPECT_EQ(spliced.rows[0].json, "{\"p\": 300}");
    EXPECT_EQ(spliced.rows[1].slot, 2u);
    EXPECT_EQ(spliced.rows[1].json, "{\"p\": 100}");

    // Two old rows with one fingerprint but different bytes cannot both
    // be "the" result of that point: conflict.
    ShardResultsFile other = old_file;
    other.rows[0].json = "{\"p\": -1}";
    EXPECT_THROW(dist::splice_rows({old_file, other}, slot_fps, 0x2), Error);
}

// --- socket end to end ----------------------------------------------------------

int connect_loopback(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/// A FarmServer on an ephemeral loopback port, run()ning on its own
/// thread for the duration of a test.
class FarmE2E : public ::testing::Test {
protected:
    void start(long long ttl_ms, long long tick_ms = 20) {
        ServerOptions options;
        options.port = 0;
        options.ttl_ms = ttl_ms;
        options.tick_ms = tick_ms;
        server_ = std::make_unique<FarmServer>(options);
        thread_ = std::thread([this] { server_->run(); });
    }

    void TearDown() override {
        if (server_ != nullptr) server_->stop();
        if (thread_.joinable()) thread_.join();
    }

    size_t submit_over_wire(const std::string& manifest_text,
                            size_t chunk_slots) {
        FarmClient client("127.0.0.1", server_->port());
        Message request;
        request.verb = "submit";
        request.fields["chunk_slots"] = std::to_string(chunk_slots);
        request.body = manifest_text;
        const Message response = client.call(request);
        return static_cast<size_t>(response.require_ll("job"));
    }

    std::string fetch_report(size_t job) {
        FarmClient client("127.0.0.1", server_->port());
        Message request;
        request.verb = "report";
        request.fields["job"] = std::to_string(job);
        return client.call(request).body;
    }

    // The board belongs to the server thread, so the test thread reads
    // its state through the `status` verb, never through board().
    std::string fetch_status() {
        FarmClient client("127.0.0.1", server_->port());
        Message request;
        request.verb = "status";
        return client.call(request).body;
    }

    bool job_finalized(size_t job) {
        const std::string status = fetch_status();
        const size_t at =
            status.find("{\"job\": " + std::to_string(job) + ",");
        if (at == std::string::npos) {
            ADD_FAILURE() << "job " << job << " missing from " << status;
            return false;
        }
        const std::string entry =
            status.substr(at, status.find('}', at) - at);
        return entry.find("\"finalized\": true") != std::string::npos;
    }

    size_t reissues() {
        const std::string status = fetch_status();
        const std::string key = "\"reissues\": ";
        const size_t at = status.find(key);
        if (at == std::string::npos) {
            ADD_FAILURE() << "no reissues in " << status;
            return 0;
        }
        return std::stoul(status.substr(at + key.size()));
    }

    std::unique_ptr<FarmServer> server_;
    std::thread thread_;
};

/// The same farm sweep at several worker counts.
class FarmE2EWorkers : public FarmE2E,
                       public ::testing::WithParamInterface<size_t> {};

TEST_P(FarmE2EWorkers, FarmSweepIsByteIdenticalToSingleProcess) {
    // Heuristic and exact flows: the exact flows travel by name through
    // the manifest like any other.
    const std::vector<SweepPoint> grid = SweepDriver::grid(
        {"FIR", "DOT"}, {"XENTIUM"},
        {"WLO-SLP", "WLO-First", "SLP-Optimal", "WLO-Optimal"},
        {-20.0, -30.0});
    ExecOptions options;
    options.threads = 1;
    SweepDriver reference(options);
    const std::string reference_json = sweep_to_json(reference.run(grid));

    start(/*ttl_ms=*/10000);
    const size_t job = submit_over_wire(whole_grid_manifest(grid), 1);

    // The workers race for the single-slot chunks.
    const size_t worker_count = GetParam();
    std::vector<std::thread> workers;
    std::vector<size_t> ran(worker_count, 0);
    for (size_t w = 0; w < worker_count; ++w) {
        workers.emplace_back([this, w, &ran] {
            FarmWorkerOptions options;
            options.worker = "worker" + std::to_string(w);
            options.heartbeat_ms = 50;
            options.poll_ms = 20;
            options.exec.threads = 1;
            ran[w] = run_farm_worker("127.0.0.1", server_->port(), options);
        });
    }
    for (std::thread& t : workers) t.join();

    EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), size_t{0}), grid.size())
        << "the workers together executed the whole grid";
    EXPECT_TRUE(job_finalized(job));
    EXPECT_EQ(fetch_report(job), reference_json)
        << "the streamed farm merge must reproduce the 1-process bytes";

    // The status verb over the wire reflects the finished state.
    const std::string body = fetch_status();
    EXPECT_NE(body.find("\"drained\": true"), std::string::npos);
    EXPECT_NE(body.find("\"protocol\": \"slpwlo-farm/1\""),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, FarmE2EWorkers,
                         ::testing::Values(size_t{1}, size_t{4}));

TEST_F(FarmE2E, WorkerKilledMidCompleteDeliversNothing) {
    const std::vector<SweepPoint> grid =
        SweepDriver::grid({"FIR"}, {"XENTIUM"}, {"WLO-SLP"}, {-20.0});
    ExecOptions options;
    options.threads = 1;
    SweepDriver reference(options);
    const std::string reference_json = sweep_to_json(reference.run(grid));

    start(/*ttl_ms=*/150, /*tick_ms=*/20);
    const size_t job = submit_over_wire(whole_grid_manifest(grid), 1);

    // A ghost worker claims the only chunk...
    uint64_t ghost_lease = 0;
    {
        FarmClient ghost("127.0.0.1", server_->port());
        Message acquire;
        acquire.verb = "acquire";
        acquire.fields["worker"] = "ghost";
        acquire.fields["job"] = std::to_string(job);
        const Message got = ghost.call(acquire);
        ghost_lease = static_cast<uint64_t>(got.require_ll("lease"));
        EXPECT_FALSE(got.field("slots").empty());
    }
    // ...then dies mid-`complete`: half a frame, then SIGKILL (socket
    // close). The frame never completed, so the server must act on none
    // of it — not even parse it.
    {
        Message complete;
        complete.verb = "complete";
        complete.fields["worker"] = "ghost";
        complete.fields["job"] = std::to_string(job);
        complete.fields["lease"] = std::to_string(ghost_lease);
        complete.body = "# slpwlo shard results\ngarbage that would never "
                        "validate\n";
        const std::string frame = encode_frame(complete);
        const int fd = connect_loopback(server_->port());
        const size_t half = frame.size() / 2;
        ASSERT_EQ(::send(fd, frame.data(), half, MSG_NOSIGNAL),
                  static_cast<ssize_t>(half));
        ::close(fd);
    }
    EXPECT_FALSE(job_finalized(job));

    // The ghost's heartbeat goes stale; the chunk expires back and a
    // real worker drains it. The report must still be byte-identical.
    FarmWorkerOptions worker;
    worker.worker = "real";
    worker.heartbeat_ms = 30;
    worker.poll_ms = 20;
    worker.exec.threads = 1;
    EXPECT_EQ(run_farm_worker("127.0.0.1", server_->port(), worker),
              grid.size());
    EXPECT_TRUE(job_finalized(job));
    EXPECT_GE(reissues(), 1u)
        << "the ghost's chunk must have been re-issued by expiry";
    EXPECT_EQ(fetch_report(job), reference_json);
}

TEST_F(FarmE2E, ServerAnswersProtocolErrorsAndStaysUp) {
    start(/*ttl_ms=*/10000);

    // Version mismatch: the server answers with a version-1 error frame
    // naming the peer's version, then closes that connection.
    {
        const int fd = connect_loopback(server_->port());
        const std::string frame = "slpwlo-farm/2 5\nhello";
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        const std::optional<Message> response = read_frame(fd);
        ASSERT_TRUE(response.has_value());
        EXPECT_EQ(response->verb, "error");
        EXPECT_NE(response->field("message").find("slpwlo-farm/2"),
                  std::string::npos);
        ::close(fd);
    }
    // Garbage: same shape, different diagnosis.
    {
        const int fd = connect_loopback(server_->port());
        const std::string junk = "GET /status HTTP/1.1\r\n\r\n";
        ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(junk.size()));
        const std::optional<Message> response = read_frame(fd);
        ASSERT_TRUE(response.has_value());
        EXPECT_EQ(response->verb, "error");
        ::close(fd);
    }
    // Unknown verbs and bad requests keep the connection usable.
    {
        FarmClient client("127.0.0.1", server_->port());
        Message bogus;
        bogus.verb = "frobnicate";
        EXPECT_THROW(client.call(bogus), Error);
        Message status;
        status.verb = "status";
        EXPECT_EQ(client.call(status).verb, "ok")
            << "an error response must not poison the connection";
    }
}

/// `call` must throw an Error whose message contains `needle`.
template <typename Call>
void expect_error_naming(Call call, const std::string& needle) {
    try {
        call();
        ADD_FAILURE() << "accepted; expected an error naming `" << needle
                      << "`";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(FarmOptions, ServerRejectsOutOfRangePortAndTick) {
    // Out-of-range ports used to truncate to another port (70000 bound
    // 4464); a non-positive tick made poll() block without a timeout.
    for (const int port : {-1, 65536, 70000}) {
        ServerOptions options;
        options.port = port;
        expect_error_naming([&] { FarmServer server(options); },
                            "port " + std::to_string(port) + " out of range");
    }
    for (const long long tick :
         {-1LL, 0LL, static_cast<long long>(INT_MAX) + 1}) {
        ServerOptions options;
        options.tick_ms = tick;
        expect_error_naming([&] { FarmServer server(options); },
                            "tick period");
    }
    ServerOptions edge;
    edge.tick_ms = INT_MAX;
    EXPECT_NO_THROW(FarmServer server(edge));
}

TEST(FarmOptions, WorkerRejectsNonPositivePoll) {
    // Checked before connecting: a zero poll period would spin next_job
    // against the daemon. Port 1 has no daemon, so a missing check shows
    // up as a connection error instead.
    for (const long long poll : {0LL, -5LL}) {
        FarmWorkerOptions options;
        options.worker = "w";
        options.poll_ms = poll;
        expect_error_naming(
            [&] { run_farm_worker("127.0.0.1", 1, options); },
            "poll period must be positive");
    }
}

TEST(FarmEndpoint, ParseEndpointForms) {
    std::string host;
    int port = 0;
    parse_endpoint("farmhost:7477", host, port);
    EXPECT_EQ(host, "farmhost");
    EXPECT_EQ(port, 7477);
    parse_endpoint(":8080", host, port);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);
    parse_endpoint("9090", host, port);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9090);
    EXPECT_THROW(parse_endpoint("host:", host, port), Error);
    EXPECT_THROW(parse_endpoint("host:0", host, port), Error);
    EXPECT_THROW(parse_endpoint("host:x", host, port), Error);
    EXPECT_THROW(parse_endpoint("host:70000", host, port), Error);
}

TEST(FarmWorker, AcquireSlotListParsesStrictly) {
    EXPECT_EQ(parse_slot_list("3", 10), (std::vector<size_t>{3}));
    EXPECT_EQ(parse_slot_list("0,1,7", 10), (std::vector<size_t>{0, 1, 7}));
    EXPECT_EQ(parse_slot_list("9", 10), (std::vector<size_t>{9}));

    // Each malformed reply is a clean Error naming why, never a
    // std::invalid_argument escaping the worker.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"", "empty slot"},
        {"1,,2", "empty slot"},
        {",1", "empty slot"},
        {"1,", "empty slot"},
        {"x", "not a slot number"},
        {"3abc", "not a slot number"},
        {"-1", "not a slot number"},
        {"+3", "not a slot number"},
        {" 3", "not a slot number"},
        {"1, 2", "not a slot number"},
        {"10", "beyond the 10-slot manifest grid"},
        {"99999999999999999999999", "beyond the 10-slot manifest grid"},
        {"2,2", "not strictly ascending"},
        {"3,1", "not strictly ascending"},
    };
    for (const auto& [text, why] : bad) {
        expect_error_naming([&] { parse_slot_list(text, 10); }, why);
    }
}

}  // namespace
}  // namespace slpwlo

#include "farm/farm_client.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "support/diagnostics.hpp"
#include "support/kv_format.hpp"

namespace slpwlo::farm {

namespace {

int connect_to(const std::string& host, int port) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* results = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                                 &hints, &results);
    if (rc != 0) {
        throw Error("farm: cannot resolve '" + host + "': " +
                    ::gai_strerror(rc));
    }
    int fd = -1;
    std::string reason = "no addresses";
    for (addrinfo* entry = results; entry != nullptr; entry = entry->ai_next) {
        fd = ::socket(entry->ai_family, entry->ai_socktype,
                      entry->ai_protocol);
        if (fd < 0) {
            reason = std::strerror(errno);
            continue;
        }
        if (::connect(fd, entry->ai_addr, entry->ai_addrlen) == 0) break;
        reason = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(results);
    if (fd < 0) {
        throw Error("farm: cannot connect to " + host + ":" +
                    std::to_string(port) + ": " + reason);
    }
    return fd;
}

void sleep_ms(long long ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Package one completed point as the row the daemon's merge consumes:
/// `json` is exactly sweep_result_to_json, `point_fp` the point's
/// fingerprint, `micros` and `measured_ns` the measurements (never part
/// of row identity).
dist::ShardRow make_shard_row(size_t slot, const SweepPoint& point,
                              const SweepResult& result, long long micros) {
    dist::ShardRow out;
    out.slot = slot;
    out.point_fp = dist::point_fingerprint(point);
    out.json = sweep_result_to_json(result);
    out.micros = micros;
    out.measured_ns = result.flow.measured_ns;
    return out;
}

/// One acquired chunk of a farm job: the daemon's lease id and the grid
/// slots the chunk covers, ascending. No slots = the job is finalized.
struct Chunk {
    uint64_t lease = 0;
    std::vector<size_t> slots;
};

/// The chunk an `acquire` or `complete` reply leases; no slots when the
/// reply carries no lease.
Chunk leased_chunk(const Message& response,
                   const dist::ShardManifest& manifest) {
    Chunk chunk;
    if (response.field("lease").empty()) return chunk;
    chunk.lease = static_cast<uint64_t>(response.require_ll("lease"));
    chunk.slots = parse_slot_list(response.require_field("slots"),
                                  manifest.points.size());
    return chunk;
}

/// The `acquire` verb. Polls while the daemon says wait: unfinished
/// chunks are claimed elsewhere and may expire back into the pool.
Chunk acquire_chunk(FarmClient& client, const FarmWorkerOptions& options,
                    size_t job, const dist::ShardManifest& manifest) {
    Message request;
    request.verb = "acquire";
    request.fields["worker"] = options.worker;
    request.fields["job"] = std::to_string(job);
    while (true) {
        const Message response = client.call(request);
        Chunk chunk = leased_chunk(response, manifest);
        if (!chunk.slots.empty() || response.field("wait") != "1") {
            return chunk;
        }
        sleep_ms(options.poll_ms);
    }
}

/// The `complete` verb: the chunk's rows as one results file in one
/// atomic frame. Returns the daemon's reply, which leases the next chunk
/// when one is pending.
Message complete_chunk(FarmClient& client, const FarmWorkerOptions& options,
                       size_t job, const dist::ShardManifest& manifest,
                       const Chunk& chunk,
                       const std::vector<SweepResult>& results,
                       const std::vector<long long>& micros) {
    dist::ShardResultsFile file;
    file.total_slots = manifest.total_slots;
    file.grid_fp = manifest.grid_fp;
    file.rows.reserve(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
        const size_t slot = chunk.slots[i];
        file.rows.push_back(make_shard_row(slot, manifest.points[slot],
                                           results[i], micros[i]));
    }
    if (options.straggle_ms > 0) sleep_ms(options.straggle_ms);

    Message request;
    request.verb = "complete";
    request.fields["worker"] = options.worker;
    request.fields["job"] = std::to_string(job);
    request.fields["lease"] = std::to_string(chunk.lease);
    request.body = dist::shard_results_text(file);
    return client.call(request);
}

/// The `abandon` verb: the chunk goes back to the pool.
void abandon_chunk(FarmClient& client, size_t job, const Chunk& chunk) {
    Message request;
    request.verb = "abandon";
    request.fields["job"] = std::to_string(job);
    request.fields["lease"] = std::to_string(chunk.lease);
    try {
        client.call(request);
    } catch (const Error&) {
        // abandon runs on the failure path; if the daemon is gone too,
        // the ttl will re-issue the chunk. Don't mask the original error.
    }
}

}  // namespace

FarmClient::FarmClient(const std::string& host, int port)
    : fd_(connect_to(host, port)) {}

FarmClient::~FarmClient() {
    if (fd_ >= 0) ::close(fd_);
}

Message FarmClient::call(const Message& request) {
    write_frame(fd_, request);
    std::optional<Message> response = read_frame(fd_);
    if (!response) {
        throw Error("farm: daemon closed the connection mid-'" +
                    request.verb + "'");
    }
    if (response->verb == "error") {
        throw Error("farm: daemon rejected '" + request.verb + "': " +
                    response->field("message"));
    }
    return *response;
}

Message submit_request(std::string manifest_text, double chunk_cost,
                       size_t chunk_slots, const std::string& splice_text) {
    Message request;
    request.verb = "submit";
    if (chunk_cost > 0.0) {
        request.fields["chunk_cost"] = kv::exact_double(chunk_cost);
    }
    if (chunk_slots > 0) {
        request.fields["chunk_slots"] = std::to_string(chunk_slots);
    }
    request.body = std::move(manifest_text);
    if (!splice_text.empty()) {
        request.fields["splice_bytes"] = std::to_string(splice_text.size());
        request.body += splice_text;
    }
    return request;
}

void parse_endpoint(const std::string& endpoint, std::string& host,
                    int& port) {
    const size_t colon = endpoint.rfind(':');
    const std::string host_part =
        colon == std::string::npos ? "" : endpoint.substr(0, colon);
    const std::string port_part =
        colon == std::string::npos ? endpoint : endpoint.substr(colon + 1);
    host = host_part.empty() ? "127.0.0.1" : host_part;
    try {
        size_t used = 0;
        port = std::stoi(port_part, &used);
        if (used == port_part.size() && port > 0 && port <= 65535) return;
    } catch (const std::exception&) {
    }
    throw Error("farm: '" + endpoint +
                "' is not a host:port endpoint (port must be 1..65535)");
}

Heartbeater::Heartbeater(std::string host, int port, std::string worker,
                         long long period_ms) {
    SLPWLO_CHECK(period_ms > 0, "farm: heartbeat period must be positive");
    thread_ = std::thread([this, host = std::move(host), port,
                           worker = std::move(worker), period_ms] {
        try {
            FarmClient client(host, port);
            Message beat;
            beat.verb = "heartbeat";
            beat.fields["worker"] = worker;
            while (true) {
                {
                    std::unique_lock<std::mutex> lock(mutex_);
                    wake_.wait_for(lock,
                                   std::chrono::milliseconds(period_ms),
                                   [this] { return stop_.load(); });
                }
                if (stop_.load()) return;
                client.call(beat);
            }
        } catch (const Error&) {
            // Daemon unreachable: go quiet and let the server-side ttl
            // expire this worker — exactly what a crash would look like.
        }
    });
}

Heartbeater::~Heartbeater() {
    stop_.store(true);
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
}

std::vector<size_t> parse_slot_list(const std::string& text,
                                    size_t grid_size) {
    const auto bad = [&text](const std::string& why) {
        return Error("farm: daemon leased slots `" + text + "`: " + why);
    };
    std::vector<size_t> slots;
    size_t pos = 0;
    while (true) {
        const size_t end = std::min(text.find(',', pos), text.size());
        if (end == pos) throw bad("empty slot");
        size_t slot = 0;
        for (size_t i = pos; i < end; ++i) {
            if (text[i] < '0' || text[i] > '9') throw bad("not a slot number");
            // Bounded digit by digit, so the value cannot overflow.
            slot = slot * 10 + static_cast<size_t>(text[i] - '0');
            if (slot >= grid_size) {
                throw bad("beyond the " + std::to_string(grid_size) +
                          "-slot manifest grid");
            }
        }
        if (!slots.empty() && slot <= slots.back()) {
            throw bad("slots not strictly ascending");
        }
        slots.push_back(slot);
        if (end == text.size()) return slots;
        pos = end + 1;
    }
}

size_t run_farm_worker(const std::string& host, int port,
                       const FarmWorkerOptions& options) {
    SLPWLO_CHECK(!options.worker.empty(), "farm: worker id must not be empty");
    // A zero or negative poll period would spin next_job/acquire against
    // the daemon instead of waiting.
    SLPWLO_CHECK(options.poll_ms > 0, "farm: poll period must be positive");
    FarmClient client(host, port);

    Message hello;
    hello.verb = "hello";
    hello.fields["worker"] = options.worker;
    client.call(hello);  // also the protocol handshake: frames must parse

    Heartbeater heartbeater(host, port, options.worker,
                            options.heartbeat_ms);

    Message next;
    next.verb = "next_job";
    size_t executed = 0;
    while (true) {
        const Message response = client.call(next);
        if (response.field("drained") == "1") break;
        if (response.field("wait") == "1") {
            sleep_ms(options.poll_ms);
            continue;
        }
        const size_t job =
            static_cast<size_t>(response.require_ll("job"));

        Message fetch;
        fetch.verb = "manifest";
        fetch.fields["job"] = std::to_string(job);
        const dist::ShardManifest manifest = dist::parse_shard_manifest(
            client.call(fetch).body, "farm job " + std::to_string(job));

        dist::require_whole_grid(manifest, "farm job " + std::to_string(job));

        // Per-job driver: different jobs legitimately carry different
        // sweep-wide flow defaults, and the defaults shape result bytes.
        ExecOptions exec = options.exec;
        exec.flow_options = manifest.defaults;
        SweepDriver driver(exec);
        Chunk chunk = acquire_chunk(client, options, job, manifest);
        while (!chunk.slots.empty()) {
            std::vector<SweepPoint> points;
            points.reserve(chunk.slots.size());
            for (const size_t slot : chunk.slots) {
                points.push_back(manifest.points[slot]);
            }
            std::vector<long long> micros;
            std::vector<SweepResult> results;
            try {
                results = driver.run_timed(points, &micros);
            } catch (...) {
                abandon_chunk(client, job, chunk);
                throw;
            }
            executed += results.size();
            const Message reply = complete_chunk(
                client, options, job, manifest, chunk, results, micros);
            chunk = leased_chunk(reply, manifest);
            if (chunk.slots.empty() && reply.field("finalized") != "1") {
                chunk = acquire_chunk(client, options, job, manifest);
            }
        }
    }
    return executed;
}

}  // namespace slpwlo::farm

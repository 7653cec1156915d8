#include "farm/farm_client.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "dist/shard_merger.hpp"
#include "dist/shard_plan.hpp"
#include "support/diagnostics.hpp"

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
                              const WorkRow& row) {
    dist::ShardRow out;
    out.slot = slot;
    out.point_fp = dist::point_fingerprint(point);
    out.json = sweep_result_to_json(row.result);
    out.micros = row.micros;
    out.measured_ns = row.result.flow.measured_ns;
    return out;
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

SocketWorkSource::SocketWorkSource(FarmClient& client, std::string worker,
                                   size_t job,
                                   const dist::ShardManifest& manifest,
                                   long long poll_ms, long long straggle_ms)
    : client_(client),
      worker_(std::move(worker)),
      job_(job),
      manifest_(manifest),
      poll_ms_(poll_ms),
      straggle_ms_(straggle_ms) {
    dist::require_whole_grid(manifest_, "farm job " + std::to_string(job));
}

size_t SocketWorkSource::total_slots() const { return manifest_.total_slots; }

Lease SocketWorkSource::acquire(size_t /*max_slots*/) {
    Message request;
    request.verb = "acquire";
    request.fields["worker"] = worker_;
    request.fields["job"] = std::to_string(job_);
    while (true) {
        const Message response = client_.call(request);
        if (response.field("lease").empty()) {
            if (response.field("wait") == "1") {
                // Unfinished chunks are claimed elsewhere; they may
                // expire back into the pool, so poll.
                sleep_ms(poll_ms_);
                continue;
            }
            return {};  // job finalized: drained
        }
        Lease lease;
        lease.id = static_cast<uint64_t>(response.require_ll("lease"));
        const std::string& slots = response.require_field("slots");
        size_t pos = 0;
        while (pos < slots.size()) {
            size_t comma = slots.find(',', pos);
            if (comma == std::string::npos) comma = slots.size();
            const size_t slot =
                static_cast<size_t>(std::stoull(slots.substr(pos, comma - pos)));
            SLPWLO_CHECK(slot < manifest_.points.size(),
                         "farm: daemon leased slot " + std::to_string(slot) +
                             " beyond the manifest grid");
            lease.slots.push_back(slot);
            lease.points.push_back(manifest_.points[slot]);
            pos = comma + 1;
        }
        SLPWLO_CHECK(!lease.slots.empty(),
                     "farm: daemon sent a lease with no slots");
        return lease;
    }
}

void SocketWorkSource::complete(const Lease& lease,
                                std::vector<WorkRow> rows) {
    SLPWLO_CHECK(rows.size() == lease.slots.size(),
                 "farm: lease completion row count mismatch");
    dist::ShardResultsFile file;
    file.total_slots = manifest_.total_slots;
    file.grid_fp = manifest_.grid_fp;
    file.rows.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        file.rows.push_back(make_shard_row(
            lease.slots[i], manifest_.points[lease.slots[i]], rows[i]));
    }
    if (straggle_ms_ > 0) sleep_ms(straggle_ms_);

    Message request;
    request.verb = "complete";
    request.fields["worker"] = worker_;
    request.fields["job"] = std::to_string(job_);
    request.fields["lease"] = std::to_string(lease.id);
    request.body = dist::shard_results_text(file);
    client_.call(request);
}

void SocketWorkSource::abandon(const Lease& lease) {
    Message request;
    request.verb = "abandon";
    request.fields["job"] = std::to_string(job_);
    request.fields["lease"] = std::to_string(lease.id);
    try {
        client_.call(request);
    } catch (const Error&) {
        // abandon runs on the failure path; if the daemon is gone too,
        // the ttl will re-issue the chunk. Don't mask the original error.
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

        // Per-job service: different jobs legitimately carry different
        // sweep-wide flow defaults, and the defaults shape result bytes.
        ExecOptions exec = options.exec;
        exec.flow_options = manifest.defaults;
        if (options.measure) exec.flow_options.measure = true;
        SweepService service(exec);
        SocketWorkSource source(client, options.worker, job, manifest,
                                options.poll_ms, options.straggle_ms);
        executed += service.drain(source);
    }
    return executed;
}

}  // namespace slpwlo::farm

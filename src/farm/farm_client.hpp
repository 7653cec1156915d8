// Farm worker side: the daemon's chunk protocol over a socket.
//
// Two layers:
//
//   FarmClient   one connection, synchronous request/response RPC
//                (write a frame, read the answer, `error` responses
//                become thrown slpwlo::Error);
//   Heartbeater  a second connection on a background thread sending
//                `heartbeat` every period_ms. A separate connection
//                because the worker's RPC socket is silent for the
//                whole duration of a running chunk (the sweep blocks
//                in the flow) — exactly when liveness must keep
//                flowing.
//
// run_farm_worker() is the whole worker loop the CLI's `work --connect`
// verb wraps: register, then per job — fetch the manifest, build a
// SweepDriver whose flow defaults are *that job's* manifest defaults,
// and repeat `acquire` (polling while the daemon says wait: claimed
// chunks elsewhere may expire back), SweepDriver::run_timed and
// `complete` (the rows as one results file in one atomic frame) until
// the daemon reports the job finalized; a point that throws sends
// `abandon` and rethrows. Because every chunk runs through run_timed,
// farm results inherit the slot-determinism guarantee: report bytes
// are identical to the 1-process sweep no matter how chunks landed on
// workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "farm/framing.hpp"
#include "flow/sweep.hpp"

namespace slpwlo::farm {

/// One synchronous connection to a farm daemon. Not thread-safe: one
/// thread, one client (the Heartbeater brings its own).
class FarmClient {
public:
    /// Resolve and connect; throws Error when the daemon is unreachable.
    FarmClient(const std::string& host, int port);
    ~FarmClient();

    FarmClient(const FarmClient&) = delete;
    FarmClient& operator=(const FarmClient&) = delete;

    /// Send `request`, wait for the response. Throws Error when the
    /// connection drops or the daemon answers `verb = error` (carrying
    /// the daemon's message).
    Message call(const Message& request);

private:
    int fd_ = -1;
};

/// Parse "host:port" (or ":port" / "port" for localhost).
void parse_endpoint(const std::string& endpoint, std::string& host,
                    int& port);

/// Background liveness: `heartbeat` frames for `worker` every
/// `period_ms` on a dedicated connection. Starts on construction, stops
/// (promptly) on destruction. A lost connection ends the thread quietly
/// — the daemon will expire the worker, which is the correct outcome.
class Heartbeater {
public:
    Heartbeater(std::string host, int port, std::string worker,
                long long period_ms);
    ~Heartbeater();

    Heartbeater(const Heartbeater&) = delete;
    Heartbeater& operator=(const Heartbeater&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::condition_variable wake_;
    std::thread thread_;
};

/// Parse the slot list of an `acquire` reply: comma-separated decimal
/// slots, strictly ascending, each below `grid_size`. Throws Error on an
/// empty list or item, a character that is not a digit, a slot beyond
/// the grid or a slot out of order.
std::vector<size_t> parse_slot_list(const std::string& text,
                                    size_t grid_size);

/// Options for one farm worker process.
struct FarmWorkerOptions {
    std::string worker;           ///< worker id (must be unique per farm)
    long long heartbeat_ms = 1000;  ///< must be positive
    long long poll_ms = 200;        ///< must be positive
    ExecOptions exec;             ///< flow_options overridden per job
    /// Test hook: delay each `complete` frame this long, widening the
    /// window in which killing the worker leaves a claimed chunk behind
    /// (CI's SIGKILL run).
    long long straggle_ms = 0;
    /// Worker-local timing, re-applied on top of every job's manifest
    /// defaults (each job replaces flow_options wholesale); it never
    /// changes row bytes.
    bool measure = false;
};

/// The complete worker loop: register, drain every job the daemon hands
/// out (a fresh SweepDriver per job, flow defaults from that job's
/// manifest), return the number of points this worker executed once the
/// daemon reports drained.
size_t run_farm_worker(const std::string& host, int port,
                       const FarmWorkerOptions& options);

}  // namespace slpwlo::farm

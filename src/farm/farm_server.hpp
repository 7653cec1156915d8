// FarmServer: the JobBoard behind a TCP socket.
//
// A deliberately small daemon: one thread, one poll() loop, no
// dependencies beyond POSIX sockets. Connections are non-blocking with
// per-connection input/output buffers, and a request is acted on only
// once its entire frame has arrived (framing.hpp's atomicity rule) — a
// worker killed mid-`complete` delivers nothing, a slow or hostile
// client cannot stall the others, and every poll timeout doubles as the
// heartbeat-expiry tick.
//
// The verb set (request -> response; errors come back as
// `verb = error` with a `message` field, the connection stays usable):
//
//   hello      worker=<id>                      -> ok  protocol=slpwlo-farm/2
//   submit     [chunk_cost=] [chunk_slots=]     -> ok  job= spliced=
//              [splice_bytes=N]
//              body: manifest text, then (when
//              splice_bytes is set) N bytes of a
//              previous run's rows file
//   next_job                                    -> ok  job= | drained=1 | wait=1
//   manifest   job=                             -> ok  body: manifest text
//   acquire    worker= job=                     -> ok  lease= slots=a,b,c
//                                                      | wait=0|1 (empty)
//   complete   worker= job= lease=              -> ok  finalized=0|1
//              body: rows file covering the            [lease= slots=]
//              lease's slots exactly                   (the worker's
//                                                      next chunk, dealt
//                                                      as by acquire)
//   abandon    job= lease=                      -> ok
//   heartbeat  worker=<id>                      -> ok
//   status                                      -> ok  body: status JSON
//   report     job=                             -> ok  body: merged report
//   rows       job=                             -> ok  body: whole-grid rows
//   shutdown                                    -> ok  (server stops)
//
// Time: the server stamps every JobBoard call with a steady monotonic
// clock (milliseconds since server start). Wall clocks never appear —
// results must not depend on when the farm ran.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "farm/framing.hpp"
#include "farm/job_board.hpp"

namespace slpwlo::farm {

struct ServerOptions {
    /// TCP port to listen on, 0..65535; 0 picks an ephemeral port (see
    /// port()).
    int port = 0;
    /// Bind all interfaces instead of loopback only. Off by default:
    /// the protocol is unauthenticated, exposing it is an operator
    /// decision.
    bool all_interfaces = false;
    /// Heartbeat time-to-live (JobBoard).
    long long ttl_ms = 10000;
    /// poll() timeout — the expiry tick period, 1..INT_MAX.
    long long tick_ms = 100;
};

class FarmServer {
public:
    /// Binds and listens immediately (so port() is valid before run());
    /// throws Error when the port is taken or an option is out of range.
    explicit FarmServer(const ServerOptions& options = {});
    ~FarmServer();

    FarmServer(const FarmServer&) = delete;
    FarmServer& operator=(const FarmServer&) = delete;

    /// The bound port (the actual one when options.port was 0).
    int port() const { return port_; }

    /// Serve until stop() or a `shutdown` frame. Blocking — callers
    /// wanting a background daemon run this on their own thread.
    void run();

    /// Ask a run() loop (typically on another thread) to return at its
    /// next tick.
    void stop() { stop_.store(true); }

    /// The state machine, exposed for in-process tests and for the CLI
    /// to pre-submit jobs before serving.
    JobBoard& board() { return board_; }

    /// Milliseconds since server start (the steady clock run() stamps
    /// JobBoard calls with).
    long long now_ms() const;

private:
    struct Connection {
        int fd = -1;
        std::string in;
        std::string out;
        bool close_after_flush = false;
    };

    Message handle(const Message& request, long long now);
    void flush(Connection& connection);

    ServerOptions options_;
    JobBoard board_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    long long start_ns_ = 0;
    std::vector<Connection> connections_;
};

}  // namespace slpwlo::farm

// FarmService wire framing: length-prefixed message frames over a byte
// stream.
//
// Every farm exchange — worker registration, lease acquire/complete,
// heartbeats, status polls — is one request frame answered by one
// response frame. A frame is an ASCII header line followed by an exact
// byte count of payload:
//
//   slpwlo-farm/2 <payload-bytes>\n
//   <payload...>
//
// The header carries the protocol version explicitly so a client and
// server from different builds fail loudly at the first frame instead of
// corrupting each other's state. The payload is itself line-oriented: a
// `verb = <name>` line, further `key = value` fields, a blank line, then
// a raw body (manifest text, a rows file, a JSON report) whose bytes are
// never inspected by the framing layer:
//
//   verb = complete
//   job = 0
//   lease = 17
//   worker = w1
//
//   # slpwlo shard results
//   ...
//
// Defensive rules (exercised by tests/test_farm.cpp):
//   * a header that is not `slpwlo-farm/<ver> <len>\n` is garbage — the
//     connection is poisoned and must close;
//   * a known tag with an unknown version is a *version mismatch*, named
//     as such so operators see "upgrade the worker" instead of "garbage";
//   * a length above kMaxFrameBytes is rejected before any allocation —
//     a hostile or corrupt prefix cannot OOM the daemon;
//   * EOF mid-frame is a truncation error, distinct from EOF at a frame
//     boundary (clean close). Frames are atomic: a receiver acts on a
//     message only once every payload byte has arrived, so a worker
//     killed mid-`complete` delivers nothing rather than half a result.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace slpwlo::farm {

/// Protocol tag sent on every frame; bump the version on any change an
/// old peer cannot ignore. Version 2: a `complete` reply may carry the
/// worker's next lease, which a version-1 worker would leave claimed
/// and unrun for as long as it heartbeats.
inline constexpr const char* kProtocolTag = "slpwlo-farm/2";
inline constexpr int kProtocolVersion = 2;

/// Hard cap on one frame's payload. Large enough for a whole-grid
/// manifest plus splice rows, small enough that a corrupt length prefix
/// cannot balloon the daemon.
inline constexpr size_t kMaxFrameBytes = 64ull << 20;  // 64 MiB

/// One request or response: a verb, sorted `key = value` fields, and an
/// opaque body. Field keys/values must survive the kv line format (no
/// newlines, no `#`, no outer whitespace) — encode_message enforces it.
struct Message {
    std::string verb;
    std::map<std::string, std::string> fields;
    std::string body;

    /// Field accessors: `field` returns "" when absent, `require_field`
    /// throws Error naming the verb and key.
    const std::string& field(const std::string& key) const;
    const std::string& require_field(const std::string& key) const;
    long long require_ll(const std::string& key) const;
};

/// Serialize the payload (verb line, fields, blank line, body).
std::string encode_message(const Message& message);

/// Parse a payload produced by encode_message; throws Error on a missing
/// or misplaced verb line.
Message decode_message(const std::string& payload);

/// Header + payload, ready to write to a socket.
std::string encode_frame(const Message& message);

/// Try to take one complete frame off the front of `buffer` (erasing its
/// bytes). Returns nullopt when more bytes are needed — the caller keeps
/// reading. Throws Error on a malformed header, a protocol-version
/// mismatch, or an oversized length prefix; the connection is then
/// unusable and must close.
std::optional<Message> take_frame(std::string& buffer);

// --- blocking fd helpers (client side) -----------------------------------------

/// Write one frame to `fd`, looping over short writes; throws Error when
/// the peer is gone. Uses MSG_NOSIGNAL — a dead peer is an Error, never
/// a SIGPIPE.
void write_frame(int fd, const Message& message);

/// Read one frame from `fd`, blocking. Returns nullopt on EOF at a frame
/// boundary (clean close); throws Error on EOF mid-frame (truncation),
/// read failure, or any take_frame error.
std::optional<Message> read_frame(int fd);

}  // namespace slpwlo::farm

// Line-oriented `key = value` text helpers shared by every serialized
// artifact in the project: target descriptions (target/target_desc.hpp)
// and the shard manifests and result files (dist/).
//
// The format rules are common to all of them:
//   * `#` starts a comment, blank lines are ignored;
//   * one `key = value` pair per line, both sides trimmed;
//   * malformed values are reported with `source:line:` positions.
//
// `KvReader` walks a text one significant line at a time and exposes the
// raw line too, so container formats can embed verbatim blocks (e.g. a
// shard manifest embedding a whole target description between
// begin_target / end_target markers).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace slpwlo::kv {

/// Strip leading/trailing spaces, tabs and carriage returns.
std::string trim(const std::string& s);

/// Throw Error with a `source:line: message` position prefix.
[[noreturn]] void fail(const std::string& source, int line,
                       const std::string& message);

// --- value conversions (all report `source:line: key ...` on error) ------------
long long to_ll(const std::string& source, int line, const std::string& key,
                const std::string& value);
int to_int(const std::string& source, int line, const std::string& key,
           const std::string& value);
double to_double(const std::string& source, int line, const std::string& key,
                 const std::string& value);
bool to_bool(const std::string& source, int line, const std::string& key,
             const std::string& value);
/// Comma- or whitespace-separated integer list ("32, 16, 8" == "32 16 8").
std::vector<int> to_int_list(const std::string& source, int line,
                             const std::string& key, const std::string& value);
/// uint64 from exactly 16 lowercase hex digits (the fingerprint form that
/// fingerprint_hex in flow/report.hpp emits).
uint64_t to_fingerprint(const std::string& source, int line,
                        const std::string& key, const std::string& value);

/// `%.17g` rendering: round-trips any finite double exactly, so a
/// serialize-parse cycle preserves content fingerprints bit-for-bit.
std::string exact_double(double value);

// --- write side ----------------------------------------------------------------
// The parser splits lines first, strips `#` comments, then trims both
// sides of the `=`. A value that embeds any of those would therefore not
// round-trip — it would silently come back as something else (an embedded
// `\n` even smuggles extra lines into the file). Writers must hard-error
// instead of corrupting.

/// Throws Error (naming `what`) when `value` would not survive a
/// write -> parse round trip of the line format: it embeds a newline or
/// carriage return, contains `#`, or carries leading/trailing whitespace
/// the reader would trim away.
void check_round_trips(const std::string& what, const std::string& value);

/// Emit one `key = value\n` line after validating both sides
/// (check_round_trips; keys additionally must be non-empty and free of
/// `=`, which would split the line at the wrong place).
void write_pair(std::ostream& os, const std::string& key,
                const std::string& value);

/// One significant line of a kv text.
struct KvLine {
    int line = 0;       ///< 1-based line number in the source text
    std::string raw;    ///< the line as written (comments not stripped)
    std::string key;    ///< empty when the line is not `key = value`
    std::string value;
};

/// Iterates the significant (non-blank, non-comment) lines of a text.
/// Lines that do not parse as `key = value` are still returned (with an
/// empty key) so callers can treat them as block markers or raw payload.
class KvReader {
public:
    KvReader(const std::string& text, std::string source);

    /// Advance to the next significant line; false at end of text.
    bool next(KvLine& out);

    /// The name used in error positions (a path, "<string>", ...).
    const std::string& source() const { return source_; }

    /// Position-prefixed error for the line most recently returned.
    [[noreturn]] void fail_here(const std::string& message) const;

private:
    std::string text_;
    std::string source_;
    size_t offset_ = 0;
    int line_ = 0;
};

}  // namespace slpwlo::kv

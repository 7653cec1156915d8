// Reporting helpers shared by the experiment harnesses in bench/:
// human-readable one-liners and machine-readable JSON.
#pragma once

#include <string>

#include "flow/flow.hpp"

namespace slpwlo {

/// Speedup as the paper defines it (equation 2): cycles of the reference
/// version divided by cycles of the measured version.
double speedup(long long reference_cycles, long long measured_cycles);

/// A content fingerprint as 16 lowercase hex digits (the form reports
/// and JSON emission use for target fingerprints).
std::string fingerprint_hex(uint64_t fingerprint);

/// One-line summary of a flow result.
std::string summarize(const FlowResult& result);

/// Multi-line WL histogram of a spec (how many nodes at each WL) — a quick
/// visual of what the optimizer decided.
std::string wl_histogram(const FixedPointSpec& spec);

// --- structured emission -------------------------------------------------------

/// JSON string literal with the required escapes.
std::string json_escape(const std::string& text);

/// JSON number; non-finite values (e.g. the -inf noise of an exact spec)
/// become null, as JSON has no Infinity.
std::string json_number(double value);

/// One FlowResult as a single JSON object: flow/kernel/target identity,
/// the constraint, cycle counts, analytic noise, group count, the WL
/// histogram, and the per-flow optimizer statistics.
///
/// `include_measured` additionally emits "measured_ns", "sim_noise_db",
/// for the exact flows the "solver" statistics object (nodes,
/// proven_optimal, heuristic-vs-optimal gap), and the "conflicts"
/// counters (accuracy-conflict pairs the closed-form filter decided,
/// probes run). It defaults off so
/// default report bytes — and everything fingerprinted from them — stay
/// independent of wall-clock measurements (same discipline as per-slot
/// micros in shard result rows).
std::string to_json(const FlowResult& result, bool include_measured = false);

}  // namespace slpwlo

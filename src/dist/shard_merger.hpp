// Folding result rows back into the single-process sweep report.
//
// A results file carries one JSON row per completed slot. Rows are the
// exact sweep_result_to_json objects the single-process sweep_to_json
// emits, tagged with their grid slot and the point's content fingerprint.
// Farm workers send one per completed chunk, and the daemon's `rows`
// verb returns one for the whole grid (the `submit --splice-from` input):
//
//   # slpwlo shard results
//   results_version = 5
//   total_slots = 24
//   grid_fingerprint = <16 hex>
//   rows = 6
//   row = <slot> <point fingerprint:16 hex> <micros> <measured_ns> <JSON>
//
// `micros` is the measured per-slot wall clock, for cost models; it is
// deliberately excluded from row identity, fingerprints and merged
// report bytes — measurements are the nondeterministic fields in an
// otherwise bit-reproducible pipeline. `measured_ns` — the compiled
// kernel body's per-execution wall time from FlowResult::measured_ns, 0
// unless the sweep that ran the point timed it — follows the same
// discipline.
//
// Results files never outlive a run, so the reader accepts exactly the
// version the writer emits (5) and names both on a mismatch.
//
// RowAccumulator reassembles the rows in slot order and produces output
// byte-identical to sweep_to_json over the whole grid. It is defensive by
// design:
//
//   * files whose grid fingerprints disagree do not merge (someone ran
//     against a different grid);
//   * the same slot arriving twice with different point fingerprints or
//     row bytes is a hard conflict (two workers claim to be the same
//     work);
//   * the same slot arriving twice with identical content deduplicates:
//     the farm's chunk re-issue runs a slot twice when a straggler and
//     its replacement both finish (micros are never compared);
//   * missing slots fail with the exact holes listed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "flow/sweep.hpp"

namespace slpwlo::dist {

struct ShardRow {
    size_t slot = 0;
    uint64_t point_fp = 0;   ///< point_fingerprint of the manifest point
    std::string json;        ///< sweep_result_to_json object (one line)
    /// Measured wall-clock of this slot's flow run in microseconds.
    /// Excluded from row identity and from the merged report: scheduling
    /// may read it, bytes never depend on it.
    long long micros = 0;
    /// Median wall time of one compiled kernel execution in nanoseconds
    /// (FlowResult::measured_ns); 0 unless the sweep timed it. Same
    /// exclusion discipline as micros.
    long long measured_ns = 0;
};

struct ShardResultsFile {
    size_t total_slots = 0;
    uint64_t grid_fp = 0;
    std::vector<ShardRow> rows;
};

std::string shard_results_text(const ShardResultsFile& results);
ShardResultsFile parse_shard_results(const std::string& text,
                                     const std::string& source = "<string>");

/// The merge as an *online* accumulator: rows stream in (one farm
/// `complete` frame or one spliced batch at a time) and the defensive
/// checks — grid identity, fingerprint and byte conflicts — run at arrival
/// time, so a bad row is rejected the moment it lands. Accumulating rows
/// in any arrival order and rendering the report produces exactly
/// sweep_to_json of the 1-process sweep.
class RowAccumulator {
public:
    RowAccumulator(size_t total_slots, uint64_t grid_fp);

    /// Fold one file in; throws Error on grid mismatch or slot conflicts
    /// (identical duplicates are skipped). All-or-nothing: a throwing add
    /// leaves the accumulator unchanged (a rejected farm `complete` frame
    /// must not half-land). Rows are copied — the file need not outlive
    /// the accumulator. Returns how many previously-empty slots this
    /// file filled.
    size_t add(const ShardResultsFile& file);

    size_t total_slots() const { return total_slots_; }
    uint64_t grid_fp() const { return grid_fp_; }
    size_t done_slots() const { return rows_.size(); }
    bool complete() const { return rows_.size() == total_slots_; }
    /// True when `slot` already has an accepted row.
    bool has_slot(size_t slot) const;

    /// Up to `limit` missing slots, ascending.
    std::vector<size_t> missing(size_t limit = 8) const;

    /// The merged JSON results array — byte-identical to
    /// sweep_to_json(results) of the 1-process sweep. Throws Error while
    /// any slot is missing (listing the first few holes).
    std::string report() const;

    /// Everything accumulated as one whole-grid rows file, rows ascending
    /// by slot — the artifact `merge --rows-out` writes so a later
    /// changed grid can splice unchanged slots out of it. Throws while
    /// incomplete.
    ShardResultsFile rows_file() const;

private:
    size_t total_slots_;
    uint64_t grid_fp_;
    std::map<size_t, ShardRow> rows_;
};

/// Incremental re-sweeps: rows from a previous run re-slotted onto a new
/// grid by *point fingerprint*. `slot_fps[s]` is point_fingerprint of the
/// new grid's slot `s` (from its manifest — dist::point_fingerprint);
/// every slot whose fingerprint matches an old row is emitted at its new
/// slot with the old row's bytes, so only changed slots need re-running.
/// Old files may come from any grid (their own fingerprints are not
/// checked against `grid_fp`, which stamps the *returned* file); two old
/// rows with the same fingerprint but different bytes are a conflict.
/// Determinism makes the splice sound: a point's row bytes are a pure
/// function of the point, so a spliced report is byte-identical to
/// re-running everything.
ShardResultsFile splice_rows(const std::vector<ShardResultsFile>& old_files,
                             const std::vector<uint64_t>& slot_fps,
                             uint64_t grid_fp);

}  // namespace slpwlo::dist

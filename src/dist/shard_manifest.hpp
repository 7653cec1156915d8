// ShardEngine, stage 2: self-contained work manifests.
//
// A manifest is the file a worker process (or machine) receives: one
// shard's slice of a sweep grid, serialized so the worker needs nothing
// but the file — every point embeds the exact serialized target
// description it must run against (target_desc.hpp's round-trip
// guarantee preserves content fingerprints bit-for-bit), and the
// sweep-wide FlowOptions defaults plus any per-point overrides travel
// along. Workers never consult a target registry.
//
// Format (line-oriented `key = value`, versioned; see DESIGN.md §7):
//
//   # slpwlo shard manifest
//   manifest_version = 7
//   shard_index = 0
//   shard_count = 4
//   total_slots = 24
//   grid_fingerprint = 01b3...16 hex...
//   points = 6
//
//   begin_defaults                  # sweep-wide FlowOptions
//   option.accuracy_db = -40
//   option.quant_mode = truncate
//   option.solver.max_nodes = 8000000
//   ...
//   end_defaults
//
//   begin_target t0                 # each distinct model once, verbatim
//   name = XENTIUM                  # target_desc.hpp serialization
//   ...
//   end_target
//
//   begin_kernel k0                 # each distinct DSL source once,
//   kernel dotprod {                # verbatim (canonical_kernel_source
//   ...                             # form: no blank/comment-only lines)
//   }
//   end_kernel
//
//   begin_point
//   slot = 0                        # position in the full grid
//   kernel = FIR
//   target = XENTIUM                # display label
//   flow = WLO-SLP
//   accuracy_db = -20
//   model = t0                      # embedded model reference
//   kernel_source = k0              # file-based kernels only
//   option.quant_mode = round       # optional per-point override block
//   end_point
//
// `begin_kernel k<N>` blocks embed the deduplicated DSL source of
// file-based kernels (frontend/kernel_file.hpp), referenced per point by
// `kernel_source = k<N>`, so workers reconstruct such kernels by content
// the way they reconstruct target models. Built-in-kernel manifests
// carry no kernel blocks.
//
// Versioning policy: manifests never outlive a run, so the reader accepts
// exactly the version the writer emits (7) and names both on a mismatch.
// Any format change bumps `manifest_version`; unknown keys are errors,
// not extensions. Nothing about how a process runs the grid (threads,
// timing: ExecOptions in flow/sweep.hpp) travels in a manifest.
#pragma once

#include <string>
#include <vector>

#include "dist/shard_plan.hpp"
#include "flow/flow.hpp"

namespace slpwlo::dist {

/// A parsed manifest: everything a worker needs to run its points.
struct ShardManifest {
    int shard_index = 0;
    int shard_count = 1;
    size_t total_slots = 0;
    uint64_t grid_fp = 0;
    FlowOptions defaults;          ///< sweep-wide flow options
    std::vector<size_t> slots;     ///< ascending grid slots
    std::vector<SweepPoint> points;  ///< every point carries its model
};

/// Serialize one shard plan (plus the sweep-wide option defaults) as a
/// self-contained manifest text.
std::string shard_manifest_text(const ShardPlan& plan,
                                const FlowOptions& defaults = {});

/// Parse a manifest; `source` names the text in errors. Validates the
/// header (version, counts), slot ordering and bounds, and every embedded
/// model (via the target description parser).
ShardManifest parse_shard_manifest(const std::string& text,
                                   const std::string& source = "<string>");

/// Read `path` and parse it; throws Error when the file cannot be read.
ShardManifest load_shard_manifest(const std::string& path);

/// Throw Error (naming `source`) unless `manifest` covers its whole grid:
/// slot i at position i for every i < total_slots. The farm and the local
/// `run` serve whole grids only, so any lease slot indexes straight into
/// manifest.points and the report covers every slot.
void require_whole_grid(const ShardManifest& manifest,
                        const std::string& source);

// --- FlowOptions serialization -------------------------------------------------
// The `option.`-prefixed keys used in defaults and per-point blocks. The
// serialization covers every FlowOptions field that can influence a sweep
// result (the nested accuracy_db copies that flows overwrite per point
// are deliberately omitted).

/// Every option as `<prefix><key> = <value>` lines (one per line).
std::string flow_options_kv(const FlowOptions& options,
                            const std::string& prefix);

/// Apply one `key = value` pair (key already stripped of its prefix) onto
/// `options`; unknown keys and malformed values fail with `source:line:`.
void apply_flow_option(FlowOptions& options, const std::string& key,
                       const std::string& value, const std::string& source,
                       int line);

}  // namespace slpwlo::dist

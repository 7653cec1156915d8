// In-memory EvalCache snapshots: warm-starting one driver from another.
//
// The EvalCache (flow/pass.hpp) memoizes the evaluation stage of a flow
// under content-hash keys — kernel, target, final spec and groups — and
// the stage-memo table holds optimization-stage results keyed by
// stage_memo_key, so warm sweeps skip Tabu/SLP. Both are valid in any
// driver: snapshot_cache() copies one driver's cache and preload_cache()
// seeds another with it, and the warm sweep's rows are byte-identical to
// the cold sweep's. Entries are sorted by key, so a snapshot is a pure
// function of the cache contents.
//
// Snapshots never leave the process. Across processes, the one way to
// reuse a previous run is `submit --splice-from` (farm/job_board.hpp),
// which re-uses whole result rows by point fingerprint.
#pragma once

#include <vector>

#include "flow/pass.hpp"

namespace slpwlo::dist {

struct CacheSnapshot {
    /// Entries sorted by key, each key unique.
    std::vector<std::pair<uint64_t, EvalCache::Entry>> entries;
    /// Stage-memo entries sorted by key, each key unique.
    std::vector<std::pair<uint64_t, EvalCache::StageEntry>> stage_entries;
};

/// Capture a cache's current contents (sorted by key).
CacheSnapshot snapshot_cache(const EvalCache& cache);

/// Preload snapshot entries into `cache` (the warm-start path).
/// Existing keys keep their entries. On a capacity-bounded cache only
/// the free slots are filled — with the snapshot's highest-keyed
/// entries, a deterministic survivor set — so resident entries are
/// never displaced. Preloading is counter-neutral: it never inflates
/// the cache's hit/miss counters and never counts as evictions.
void preload_cache(EvalCache& cache, const CacheSnapshot& snapshot);

}  // namespace slpwlo::dist

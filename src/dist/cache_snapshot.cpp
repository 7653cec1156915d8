#include "dist/cache_snapshot.hpp"

namespace slpwlo::dist {

CacheSnapshot snapshot_cache(const EvalCache& cache) {
    CacheSnapshot snapshot;
    snapshot.entries = cache.export_entries();
    snapshot.stage_entries = cache.export_stage_entries();
    return snapshot;
}

void preload_cache(EvalCache& cache, const CacheSnapshot& snapshot) {
    // store() never touches the hit/miss counters, so a warm start does
    // not masquerade as cache traffic. On a capacity-bounded cache the
    // preload only fills the *free* slots (with the snapshot's
    // highest-keyed entries, which is what FIFO insertion in snapshot
    // order would have kept): resident entries are never displaced and
    // the evictions counter keeps meaning "entries displaced by sweep
    // traffic", not "snapshot overflow".
    size_t begin = 0;
    const size_t capacity = cache.capacity();
    if (capacity > 0) {
        const size_t resident = cache.size();
        const size_t free_slots = capacity > resident ? capacity - resident : 0;
        // The preloadable suffix: walk back from the highest key, where
        // already-resident keys ride along for free (their store is a
        // no-op) and only genuinely new keys consume a slot.
        size_t taken = 0;
        begin = snapshot.entries.size();
        while (begin > 0) {
            if (!cache.contains(snapshot.entries[begin - 1].first)) {
                if (taken == free_slots) break;
                taken++;
            }
            begin--;
        }
    }
    for (size_t i = begin; i < snapshot.entries.size(); ++i) {
        cache.store(snapshot.entries[i].first, snapshot.entries[i].second);
    }

    // Stage-memo table: same free-slot discipline against the shared
    // capacity bound (each table is bounded independently).
    size_t stage_begin = 0;
    if (capacity > 0) {
        const size_t resident = cache.stage_size();
        const size_t free_slots = capacity > resident ? capacity - resident : 0;
        size_t taken = 0;
        stage_begin = snapshot.stage_entries.size();
        while (stage_begin > 0) {
            if (!cache.contains_stage(
                    snapshot.stage_entries[stage_begin - 1].first)) {
                if (taken == free_slots) break;
                taken++;
            }
            stage_begin--;
        }
    }
    for (size_t i = stage_begin; i < snapshot.stage_entries.size(); ++i) {
        cache.store_stage(snapshot.stage_entries[i].first,
                          snapshot.stage_entries[i].second);
    }
}

}  // namespace slpwlo::dist

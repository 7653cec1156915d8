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
    // not masquerade as cache traffic.
    for (const auto& [key, entry] : snapshot.entries) cache.store(key, entry);
    for (const auto& [key, entry] : snapshot.stage_entries) {
        cache.store_stage(key, entry);
    }
}

}  // namespace slpwlo::dist

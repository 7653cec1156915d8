// JitCache: content-addressed on-disk cache of compiled kernel objects.
//
// A compiled artifact is fully determined by what was emitted and who
// compiled it, so the cache key is the tuple
//   (kernel fingerprint, format-set fingerprint, quantization mode,
//    compiler id)
// hashed to a filename `<16-hex>.so` (the emitted C rides next to it as
// `<16-hex>.c` for debugging). Sweeps and shard workers across processes
// share the directory: a second worker that needs the same object gets a
// hit instead of a rebuild.
//
// Publishing follows the repo-wide tmp+rename discipline, with the builder
// pid and a process-local sequence number in the temp name so concurrent
// builders never collide and readers never see a partial object. A
// builder killed mid-compile can only leave a `.tmp.`-marked file behind,
// which no lookup ever matches.
//
// The directory resolves to `$SLPWLO_JIT_DIR` if set, else
// `<system temp>/slpwlo-jit`.
#pragma once

#include <cstdint>
#include <string>

#include "fixpoint/quantize.hpp"

namespace slpwlo::exec {

struct JitKey {
    uint64_t kernel_fp = 0;   ///< hash of the printed kernel
    uint64_t format_fp = 0;   ///< hash of every node format in the spec
    QuantMode quant_mode = QuantMode::Truncate;
    std::string compiler_id;  ///< Toolchain::id
};

/// The key folded to the filename stem.
uint64_t jit_key_hash(const JitKey& key);

/// Process-wide hit/build counters (sweep cache stats surface them).
struct JitCacheStats {
    long long hits = 0;    ///< object already on disk
    long long builds = 0;  ///< object compiled by this process
};

JitCacheStats jit_cache_stats();
void reset_jit_cache_stats();

/// The active cache directory (created on demand by jit_obtain).
std::string jit_cache_directory();

/// Path to the ready shared object for `key`, compiling `c_source` with the
/// host toolchain when it is not cached yet. Returns an empty string on
/// failure (no toolchain, compile error) with diagnostics in `error`.
std::string jit_obtain(const JitKey& key, const std::string& c_source,
                       std::string* error = nullptr);

}  // namespace slpwlo::exec

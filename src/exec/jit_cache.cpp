#include "exec/jit_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "exec/toolchain.hpp"
#include "support/rng.hpp"

namespace slpwlo::exec {
namespace fs = std::filesystem;

namespace {

std::atomic<long long> g_hits{0};
std::atomic<long long> g_builds{0};
std::atomic<uint64_t> g_tmp_seq{0};
std::mutex g_mutex;  // one builder per process

uint64_t mix(uint64_t h, uint64_t value) {
    // FNV-1a over the value's bytes, matching the dist-layer fingerprints.
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (i * 8)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Write `text` to `path` via a pid-unique temp name + rename, so readers
/// never observe a partial file and orphaned temps are attributable.
bool publish_file(const fs::path& path, const std::string& text) {
    const fs::path tmp = fs::path(
        path.string() + ".tmp." + std::to_string(getpid()) + "." +
        std::to_string(g_tmp_seq.fetch_add(1)));
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out) return false;
        out << text;
        if (!out.flush()) return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) fs::remove(tmp, ec);
    return !ec;
}

}  // namespace

uint64_t jit_key_hash(const JitKey& key) {
    // The version tag doubles as the emitter generation: bumping it
    // orphans every cached object built by older emitters (the key hashes
    // kernel + formats, not the generated source, so a codegen fix would
    // otherwise keep hitting stale .so files).
    uint64_t h = hash_name("slpwlo-jit-v3");
    h = mix(h, key.kernel_fp);
    h = mix(h, key.format_fp);
    h = mix(h, static_cast<uint64_t>(key.quant_mode));
    h = mix(h, hash_name(key.compiler_id));
    return h;
}

JitCacheStats jit_cache_stats() {
    JitCacheStats stats;
    stats.hits = g_hits.load();
    stats.builds = g_builds.load();
    return stats;
}

void reset_jit_cache_stats() {
    g_hits.store(0);
    g_builds.store(0);
}

std::string jit_cache_directory() {
    if (const char* env = std::getenv("SLPWLO_JIT_DIR");
        env != nullptr && env[0] != '\0') {
        return env;
    }
    return (fs::temp_directory_path() / "slpwlo-jit").string();
}

std::string jit_obtain(const JitKey& key, const std::string& c_source,
                       std::string* error) {
    const fs::path dir = jit_cache_directory();
    char stem[32];
    std::snprintf(stem, sizeof(stem), "%016llx",
                  static_cast<unsigned long long>(jit_key_hash(key)));
    const fs::path so_path = dir / (std::string(stem) + ".so");

    std::error_code ec;
    if (fs::exists(so_path, ec)) {
        g_hits.fetch_add(1);
        return so_path.string();
    }

    // One builder per process; cross-process racers publish independently
    // (both temps rename onto the same content-addressed name).
    std::lock_guard<std::mutex> lock(g_mutex);
    if (fs::exists(so_path, ec)) {
        g_hits.fetch_add(1);
        return so_path.string();
    }
    fs::create_directories(dir, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "cannot create jit cache directory " + dir.string() +
                     ": " + ec.message();
        }
        return {};
    }

    const std::string unique = std::to_string(getpid()) + "." +
                               std::to_string(g_tmp_seq.fetch_add(1));
    const fs::path tmp_c = dir / (std::string(stem) + ".so.tmp." + unique +
                                  ".c");
    const fs::path tmp_so = dir / (std::string(stem) + ".so.tmp." + unique);
    {
        std::ofstream out(tmp_c, std::ios::binary);
        out << c_source;
        if (!out.flush()) {
            if (error != nullptr) {
                *error = "cannot write " + tmp_c.string();
            }
            fs::remove(tmp_c, ec);
            return {};
        }
    }
    std::string log;
    const bool ok =
        compile_shared(host_toolchain(), tmp_c.string(), tmp_so.string(),
                       &log);
    if (!ok) {
        if (error != nullptr) *error = log.empty() ? "compile failed" : log;
        fs::remove(tmp_c, ec);
        fs::remove(tmp_so, ec);
        return {};
    }
    fs::rename(tmp_so, so_path, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "cannot publish " + so_path.string() + ": " +
                     ec.message();
        }
        fs::remove(tmp_c, ec);
        fs::remove(tmp_so, ec);
        return {};
    }
    // The emitted source rides next to the object for debugging.
    publish_file(dir / (std::string(stem) + ".c"), c_source);
    fs::remove(tmp_c, ec);
    g_builds.fetch_add(1);
    return so_path.string();
}

}  // namespace slpwlo::exec

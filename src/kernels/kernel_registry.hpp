// KernelRegistry: the process-wide map from names to benchmark kernels,
// mirroring TargetRegistry (target/target_registry.hpp). Kernels are
// first-class data rather than a hard-coded if-chain: the built-in
// FIR/IIR/CONV/DOT builders, `.slp` kernel files loaded at run time
// (frontend/kernel_file.hpp) and anything user code add()s all resolve
// through the same case-insensitive lookup.
//
// Each entry carries the kernel, the range-analysis options the flows
// must use for it (the recursive IIR needs simulated ranges), a content
// fingerprint of the kernel's printed structure, and — for file-based
// kernels — the DSL source it was compiled from. The source is what the
// distributed layer embeds into shard manifests (dist/shard_manifest.hpp)
// so worker processes can re-register the kernel by content instead of
// resolving a name they may not know.
//
// Lookup returns a copy: a registered kernel is immutable-by-value, so a
// caller that mutates its copy never affects other lookups.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"

namespace slpwlo::kernels {

/// One registered kernel: the BenchmarkKernel triple plus the registry's
/// identity metadata.
struct KernelEntry {
    explicit KernelEntry(BenchmarkKernel b) : bench(std::move(b)) {}

    BenchmarkKernel bench;
    /// DSL source the kernel was compiled from; empty for built-ins and
    /// builder-constructed kernels. Non-empty entries are "file-based":
    /// shard manifests embed this text so workers can reconstruct the
    /// kernel without a registry (dist/embed_kernel_sources).
    std::string dsl_source;
    /// Content hash of the kernel's printed structure and the range
    /// options — never the name, so a renamed copy fingerprints the same
    /// and same-name kernels with different bodies cannot alias.
    uint64_t fingerprint = 0;
};

/// Content hash of a BenchmarkKernel (printed kernel structure + range
/// options; name-free). The fingerprint stored in KernelEntry.
uint64_t benchmark_kernel_fingerprint(const BenchmarkKernel& bench);

/// Process-wide registry of benchmark kernels. The built-ins register
/// themselves on first access; user code and the `.slp` ingestion path
/// may add more. Every member takes one mutex, so add() and lookups may
/// run concurrently from any thread (farm workers in one process register
/// manifest kernels while other sweeps resolve names). Entries are never
/// removed or replaced: once a name resolves, it resolves to the same
/// content for the rest of the process — the registration memo in
/// frontend::register_kernel_source relies on this.
class KernelRegistry {
public:
    static KernelRegistry& instance();

    /// Register `bench` under its name (case-insensitive match, the
    /// registered casing is kept). Re-registering a name is a no-op when
    /// the content fingerprint is identical and an Error otherwise — two
    /// kernels with the same name but different bodies in one process
    /// would make sweep labels ambiguous. `dsl_source` is the DSL text
    /// the kernel was compiled from ("" for builder-made kernels).
    void add(BenchmarkKernel bench, std::string dsl_source = "");

    bool contains(const std::string& name) const;

    /// Copy of the entry registered under `name` (case-insensitive);
    /// throws Error for unknown names, listing every registered kernel.
    KernelEntry entry(const std::string& name) const;

    /// entry(name).bench — the make_benchmark_kernel shape.
    BenchmarkKernel get(const std::string& name) const;

    /// Registered kernel names, sorted.
    std::vector<std::string> names() const;

private:
    KernelRegistry();

    mutable std::mutex mutex_;
    /// Keyed by the upper-cased name; values keep the registered casing.
    std::map<std::string, KernelEntry> entries_;
};

}  // namespace slpwlo::kernels

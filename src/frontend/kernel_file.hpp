// `.slp` kernel files: the runtime ingestion path that makes kernels data,
// symmetric with `.target` descriptions (target/target_desc.hpp).
//
// A kernel file is one DSL kernel definition (frontend/lexer.hpp shows the
// language). compile_benchmark_source parses, lowers, unrolls and verifies
// it into a BenchmarkKernel, mapping the optional kernel-level
//
//   range simulation;        # or: interval / auto (the default)
//
// annotation onto the RangeOptions the flows must use — recursive kernels
// (the IIR-style simulated-ranges case) declare `range simulation` because
// interval propagation diverges through their feedback taps.
//
// Loaded kernels register in the KernelRegistry
// (kernels/kernel_registry.hpp) together with their DSL source text, which
// is what shard manifests embed so worker processes reconstruct file-based
// kernels by content instead of resolving names they may not know
// (dist/shard_manifest.hpp).
//
// All diagnostics carry `path:line:column:` positions.
#pragma once

#include <string>
#include <vector>

#include "kernels/kernels.hpp"

namespace slpwlo::frontend {

/// The manifest-safe form of a DSL source: code lines verbatim (minus a
/// trailing carriage return), comment-only and blank lines dropped, every
/// line newline-terminated. This is the form the registry stores and
/// shard manifests embed — the kv container format skips blank and
/// comment lines, so only a source already free of them round-trips
/// byte-for-byte through a `begin_kernel` block. Compiles to the same
/// kernel as the original (the DSL ignores exactly what is stripped).
std::string canonical_kernel_source(const std::string& source);

/// Parse + lower + unroll + verify one DSL kernel into a BenchmarkKernel
/// (range options from the `range` annotation, Auto when absent).
/// `source_name` prefixes diagnostics ("path:line:col: message").
kernels::BenchmarkKernel compile_benchmark_source(
    const std::string& source, const std::string& source_name = "<string>");

/// Read and compile one `.slp` kernel file; throws Error when the file
/// cannot be read or does not compile (diagnostics carry file positions).
kernels::BenchmarkKernel load_kernel_file(const std::string& path);

/// load_kernel_file + KernelRegistry::add (with the file's source text);
/// returns the registered kernel name. Registering the same content twice
/// is a no-op; a name clash with different content throws.
std::string register_kernel_file(const std::string& path);

/// Compile `source` and register it with the registry; returns the kernel
/// name. The idempotent path manifests and sweep points use: same content
/// re-registers as a no-op, a conflicting name throws. Thread-safe; bytes
/// identical to an earlier successful call return its name without
/// recompiling, so a sweep pays one compile per distinct source.
std::string register_kernel_source(const std::string& source,
                                   const std::string& source_name = "<string>");

/// Register every `*.slp` file under `dir` (sorted by filename, so
/// registration order — and any name-clash error — is deterministic);
/// returns the registered kernel names in that order. Throws when `dir`
/// is not a readable directory or any file fails to compile.
std::vector<std::string> load_kernel_corpus(const std::string& dir);

}  // namespace slpwlo::frontend

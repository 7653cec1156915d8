// FlowEngine: the composable pass pipeline behind the paper's flows.
//
// A Pass is one stage of a float-to-fixed-point compilation flow operating
// on a shared PassContext. The concrete passes mirror the boxes of the
// paper's figures:
//
//   RangeAnalysis     -> dynamic ranges            (Section II.B, stage i)
//   IwlDetermination  -> binary-point placement    (Section II.B, stage i)
//   SlpAwareWlo       -> Fig. 1a/1c joint WLO+SLP (+ Fig. 1b per block)
//   TabuWlo           -> Nguyen'11 baseline WLO    (Fig. 5, stage 1)
//   PlainSlp          -> Liu'12 extraction         (Fig. 5, stage 2)
//   Lowering          -> machine IR (scalar + SIMD, or float reference)
//   CycleEval         -> VLIW schedule + cycle counts + analytic noise
//
// A FlowPipeline is a named sequence of passes; the FlowRegistry maps flow
// names to pipelines so that a new flow variant is a registry entry, not a
// hand-written driver. The built-ins reproduce the paper:
//
//   "WLO-SLP"            Fig. 3   range, iwl, slp-aware-wlo, lower, cycles
//   "WLO-First"          Fig. 5   range, iwl, tabu, plain-slp, lower, cycles
//   "Float"              Fig. 6   float-lower, cycles
//   "WLO-Optimal"        exact    range, iwl, wlo-exact, plain-slp, ...
//   "SLP-Optimal"        exact    range, iwl, slp-aware-wlo-exact, ...
//
// Cycle evaluation is memoized: an EvalCache shared across sweep points
// keys {scalar cycles, SIMD cycles, analytic noise} by a content hash of
// (kernel, target, final spec, selected groups), so two sweep points that
// converge to the same specification pay for lowering, scheduling and
// noise evaluation once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "flow/flow.hpp"

namespace slpwlo {

/// Memoized result of the evaluation stage of a flow (lowering +
/// scheduling + analytic noise). Thread-safe; shared across sweep points.
///
/// The cache can warm-start another driver (dist/cache_snapshot.hpp):
/// export_entries() walks the contents in key order so snapshots are
/// deterministic, and store() doubles as the import path. It is
/// unbounded: a driver lives for one grid, and each point stores at most
/// one entry per table.
class EvalCache {
public:
    struct Entry {
        long long scalar_cycles = 0;
        long long simd_cycles = 0;
        double analytic_noise_db = 0.0;
    };

    /// Memoized result of a flow's *optimization* stages — IWL
    /// determination, WLO, SLP extraction, scaling optimization — keyed by
    /// stage_memo_key (kernel fp, target fp, flow name, accuracy
    /// constraint, every optimization tunable). A hit restores the final
    /// spec, the selected groups and the stage statistics, so a warm sweep
    /// skips Tabu/SLP entirely and its report bytes are identical to the
    /// cold run's.
    struct StageEntry {
        QuantMode quant_mode = QuantMode::Truncate;
        /// Node formats in spec.nodes() order.
        std::vector<FixedFormat> formats;
        std::vector<BlockGroups> groups;
        SlpStats slp_stats;
        ScalingStats scaling_stats;
        TabuStats tabu_stats;
        /// Exact-search outcome (WLO-Optimal / SLP-Optimal). Memoized like
        /// the other stage statistics so a warm optimal run reports the
        /// same solver numbers as the cold one; excluded from report
        /// identity bytes regardless (see FlowOptions::SolverStats).
        SolverStats solver_stats;
        int group_count = 0;
    };

    /// Counts a hit or a miss.
    std::optional<Entry> lookup(uint64_t key) const;
    /// Insert `entry` under `key`. A key that is already present keeps its
    /// existing entry (first store wins). Never touches the counters.
    void store(uint64_t key, const Entry& entry);

    size_t hits() const;
    size_t misses() const;
    size_t size() const;

    /// The current contents sorted by key (a deterministic order
    /// independent of hashing and insertion history), for snapshots.
    std::vector<std::pair<uint64_t, Entry>> export_entries() const;

    // --- stage memo table -------------------------------------------------------
    // The same semantics over StageEntry values.
    std::optional<StageEntry> lookup_stage(uint64_t key) const;
    void store_stage(uint64_t key, const StageEntry& entry);
    size_t stage_hits() const;
    size_t stage_misses() const;
    size_t stage_size() const;
    std::vector<std::pair<uint64_t, StageEntry>> export_stage_entries() const;

private:
    /// One memo table; every access holds mutex_.
    template <typename Value>
    struct Table {
        std::unordered_map<uint64_t, Value> entries;
        mutable size_t hits = 0;
        mutable size_t misses = 0;

        std::optional<Value> lookup(uint64_t key) const;
        std::vector<std::pair<uint64_t, Value>> sorted() const;
    };

    mutable std::mutex mutex_;
    Table<Entry> eval_;
    Table<StageEntry> stage_;
};

/// Content hash of everything the evaluation stage depends on: the full
/// kernel structure (via its printed form), every semantic field of the
/// target model (the result's target_fp), the quantization mode, every
/// node's fixed-point format, and the selected groups' lane lists — names
/// alone would alias same-name kernels/targets with different
/// configurations. `float_variant` keys the float reference lowering
/// (which ignores spec and groups).
uint64_t evaluation_key(const KernelContext& context, const FlowResult& result,
                        bool float_variant = false);

/// Content hash of everything the optimization stages depend on: the
/// kernel fingerprint, the target model's content fingerprint
/// (`target_fp`, from target_fingerprint), the flow name (different
/// pipelines produce different specs from identical inputs), the
/// accuracy constraint, the quantization mode, and every
/// WLO/SLP/Tabu tunable. The nested accuracy_db fields of
/// wlo_slp/wlo_first are deliberately excluded — the passes overwrite
/// them with options.accuracy_db.
uint64_t stage_memo_key(const KernelContext& context, uint64_t target_fp,
                        const std::string& flow_name,
                        const FlowOptions& options);

/// FNV-1a hash over every semantic field of a target model — the name is
/// deliberately excluded, so two models that evaluate identically share
/// one fingerprint (and cache entries) regardless of what they are
/// called, and same-name models with different parameters never collide.
uint64_t target_fingerprint(const TargetModel& target);

/// Shared state threaded through a pipeline run. Passes communicate
/// exclusively through this context.
struct PassContext {
    PassContext(const KernelContext& context_, const TargetModel& target_,
                const FlowOptions& options_, FlowResult result_)
        : context(context_),
          target(target_),
          options(options_),
          result(std::move(result_)) {}

    const KernelContext& context;
    const TargetModel& target;
    FlowOptions options;  ///< accuracy_db is authoritative (already merged)
    EvalCache* cache = nullptr;

    FlowResult result;

    // --- cross-pass intermediates ---------------------------------------------
    /// Machine kernels produced by the lowering pass (absent on cache hit).
    std::optional<MachineKernel> scalar_machine;
    std::optional<MachineKernel> simd_machine;
    std::optional<MachineKernel> float_machine;
    /// Evaluation memo key (computed by the lowering pass).
    std::optional<uint64_t> eval_key;
    /// Cache hit found by the lowering pass, consumed by cycle eval.
    std::optional<EvalCache::Entry> cached_eval;
    /// True when the pipeline evaluates the float reference.
    bool float_variant = false;
    /// Stage memo key (computed by FlowPipeline::run when a cache is
    /// present) and whether the optimization stages were restored from it
    /// (in which case the pipeline skips them).
    std::optional<uint64_t> stage_key;
    bool stage_restored = false;
};

class Pass {
public:
    virtual ~Pass() = default;
    virtual const char* name() const = 0;
    virtual void run(PassContext& ctx) const = 0;
};

using PassRef = std::shared_ptr<const Pass>;

// --- concrete pass factories ---------------------------------------------------
PassRef make_range_analysis_pass();
PassRef make_iwl_determination_pass();
/// `exact_selection` replaces the greedy per-round pack selection with the
/// branch-and-bound solver (solver/pack_select.hpp) — the "SLP-Optimal"
/// flow; the budget comes from FlowOptions::solver_budget.
PassRef make_slp_aware_wlo_pass(bool exact_selection = false);
PassRef make_tabu_wlo_pass();
/// Exact WLO (solver/wlo_exact.hpp): Tabu incumbent + branch-and-bound
/// over per-node word lengths — the WLO stage of "WLO-Optimal".
PassRef make_wlo_exact_pass();
PassRef make_plain_slp_pass();
PassRef make_lowering_pass();        ///< fixed-point scalar + SIMD lowering
PassRef make_float_lowering_pass();  ///< float-reference lowering
PassRef make_cycle_eval_pass();

/// A named, immutable sequence of passes.
class FlowPipeline {
public:
    FlowPipeline() = default;
    FlowPipeline(std::string name, std::vector<PassRef> passes);

    const std::string& name() const { return name_; }
    const std::vector<PassRef>& passes() const { return passes_; }
    /// True when the pipeline lowers the float reference, whose result
    /// has no fixed-point spec to compile, time or simulate.
    bool float_reference() const;

    /// Run the pipeline. `options.accuracy_db` is the constraint; `cache`
    /// (optional) memoizes the evaluation stage across runs.
    FlowResult run(const KernelContext& context, const TargetModel& target,
                   const FlowOptions& options,
                   EvalCache* cache = nullptr) const;

private:
    std::string name_;
    std::vector<PassRef> passes_;
};

/// Process-wide registry of flow pipelines. The built-in flows are
/// registered on first access; user code may add its own variants.
/// Lookup is thread-safe; add() must not race with a running sweep.
class FlowRegistry {
public:
    static FlowRegistry& instance();

    /// Register (or replace) a pipeline under its name.
    void add(FlowPipeline pipeline);

    bool contains(const std::string& name) const;

    /// Throws Error for unknown names, listing the registered flows.
    const FlowPipeline& flow(const std::string& name) const;

    /// Registered flow names, sorted.
    std::vector<std::string> names() const;

private:
    FlowRegistry();

    mutable std::mutex mutex_;
    std::map<std::string, FlowPipeline> flows_;
};

}  // namespace slpwlo

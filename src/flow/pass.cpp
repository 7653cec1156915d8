#include "flow/pass.hpp"

#include <algorithm>
#include <cstring>

#include "core/slp_aware_wlo.hpp"
#include "core/tabu_wlo.hpp"
#include "core/wlo_first.hpp"
#include "solver/wlo_exact.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo {

// --- EvalCache -----------------------------------------------------------------

template <typename Value>
std::optional<Value> EvalCache::Table<Value>::lookup(uint64_t key) const {
    const auto it = entries.find(key);
    if (it == entries.end()) {
        misses++;
        return std::nullopt;
    }
    hits++;
    return it->second;
}

template <typename Value>
std::vector<std::pair<uint64_t, Value>> EvalCache::Table<Value>::sorted()
    const {
    std::vector<std::pair<uint64_t, Value>> out(entries.begin(),
                                                entries.end());
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
}

std::optional<EvalCache::Entry> EvalCache::lookup(uint64_t key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return eval_.lookup(key);
}

void EvalCache::store(uint64_t key, const Entry& entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    eval_.entries.emplace(key, entry);  // first store wins
}

size_t EvalCache::hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return eval_.hits;
}

size_t EvalCache::misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return eval_.misses;
}

size_t EvalCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return eval_.entries.size();
}

std::vector<std::pair<uint64_t, EvalCache::Entry>> EvalCache::export_entries()
    const {
    std::lock_guard<std::mutex> lock(mutex_);
    return eval_.sorted();
}

std::optional<EvalCache::StageEntry> EvalCache::lookup_stage(
    uint64_t key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stage_.lookup(key);
}

void EvalCache::store_stage(uint64_t key, const StageEntry& entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    stage_.entries.emplace(key, entry);  // first store wins
}

size_t EvalCache::stage_hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stage_.hits;
}

size_t EvalCache::stage_misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stage_.misses;
}

size_t EvalCache::stage_size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stage_.entries.size();
}

std::vector<std::pair<uint64_t, EvalCache::StageEntry>>
EvalCache::export_stage_entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stage_.sorted();
}

// --- content hashing -----------------------------------------------------------

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void mix(uint64_t& h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kFnvPrime;
    }
}

}  // namespace

uint64_t target_fingerprint(const TargetModel& target) {
    // Deliberately name-free: the fingerprint identifies the model's
    // content, so identical models registered under different names share
    // evaluation cache entries and same-name models with different
    // parameters never collide.
    uint64_t h = kFnvOffset;
    for (const int v :
         {target.issue_width, target.alu_slots, target.mul_slots,
          target.mem_slots, target.shift_slots, target.float_slots,
          target.alu_latency, target.mul_latency, target.mem_latency,
          target.shift_latency, target.float_latency,
          target.barrel_shifter ? 1 : 0, target.native_wl,
          target.simd_width_bits, target.pack2_ops, target.extract_ops,
          target.fp.hardware ? 1 : 0, target.fp.add_cycles,
          target.fp.mul_cycles, target.fp.div_cycles}) {
        mix(h, static_cast<uint64_t>(static_cast<int64_t>(v)));
    }
    mix(h, static_cast<uint64_t>(target.loop_overhead_cycles));
    mix(h, target.scalar_wls.size());
    for (const int wl : target.scalar_wls) {
        mix(h, static_cast<uint64_t>(static_cast<int64_t>(wl)));
    }
    mix(h, target.simd_element_wls.size());
    for (const int wl : target.simd_element_wls) {
        mix(h, static_cast<uint64_t>(static_cast<int64_t>(wl)));
    }
    for (const double w : target.op_class_cost) {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(w));
        std::memcpy(&bits, &w, sizeof(bits));
        mix(h, bits);
    }
    return h;
}

uint64_t evaluation_key(const KernelContext& context, const FlowResult& result,
                        bool float_variant) {
    uint64_t h = kFnvOffset;
    mix(h, context.fingerprint());
    mix(h, result.target_fp);
    mix(h, float_variant ? 1u : 0u);
    if (float_variant) return h;  // float lowering ignores spec and groups

    const FixedPointSpec& spec = result.spec;
    mix(h, static_cast<uint64_t>(spec.quant_mode()));
    for (const NodeRef node : spec.nodes()) {
        const FixedFormat& f = spec.format(node);
        mix(h, static_cast<uint64_t>(node.kind == NodeRef::Kind::Var ? 0 : 1));
        mix(h, static_cast<uint64_t>(node.id));
        mix(h, static_cast<uint64_t>(static_cast<int64_t>(f.iwl)));
        mix(h, static_cast<uint64_t>(static_cast<int64_t>(f.fwl)));
    }
    mix(h, result.groups.size());
    for (const BlockGroups& bg : result.groups) {
        mix(h, static_cast<uint64_t>(bg.block.value));
        mix(h, bg.groups.size());
        for (const SimdGroup& g : bg.groups) {
            mix(h, g.lanes.size());
            for (const OpId lane : g.lanes) {
                mix(h, static_cast<uint64_t>(lane.value));
            }
        }
    }
    return h;
}

uint64_t stage_memo_key(const KernelContext& context, uint64_t target_fp,
                        const std::string& flow_name,
                        const FlowOptions& options) {
    uint64_t h = kFnvOffset;
    mix(h, context.fingerprint());
    mix(h, target_fp);
    mix(h, flow_name.size());
    for (const char c : flow_name) {
        mix(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    uint64_t acc_bits;
    std::memcpy(&acc_bits, &options.accuracy_db, sizeof(acc_bits));
    mix(h, acc_bits);
    mix(h, static_cast<uint64_t>(options.quant_mode));

    const auto mix_double = [&h](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(h, bits);
    };
    const auto mix_slp = [&](const SlpOptions& slp) {
        mix(h, static_cast<uint64_t>(static_cast<int64_t>(slp.max_rounds)));
        mix(h, static_cast<uint64_t>(slp.benefit_mode));
        mix_double(slp.min_benefit);
    };

    // Every optimization tunable; the nested accuracy_db fields are
    // excluded because the passes overwrite them with options.accuracy_db
    // (already mixed above).
    const WloSlpOptions& js = options.wlo_slp;
    mix(h, js.scaling_optim ? 1u : 0u);
    mix(h, js.accuracy_conflicts ? 1u : 0u);
    mix(h, js.strict_feasibility ? 1u : 0u);
    mix_slp(js.slp);

    const WloFirstOptions& wf = options.wlo_first;
    mix(h, static_cast<uint64_t>(
               static_cast<int64_t>(wf.tabu.max_iterations)));
    mix(h, static_cast<uint64_t>(static_cast<int64_t>(wf.tabu.tenure)));
    mix(h, static_cast<uint64_t>(
               static_cast<int64_t>(wf.tabu.stagnation_limit)));
    mix_double(wf.tabu.infeasibility_penalty);
    mix_slp(wf.slp);

    // The solver budget changes outcomes (an exact flow under a different
    // budget can return a different incumbent), so it is part of the key.
    mix(h, static_cast<uint64_t>(options.solver_budget.max_nodes));
    return h;
}

// --- concrete passes -----------------------------------------------------------

namespace {

int count_groups(const std::vector<BlockGroups>& groups) {
    int count = 0;
    for (const BlockGroups& bg : groups) {
        count += static_cast<int>(bg.groups.size());
    }
    return count;
}

class RangeAnalysisPass final : public Pass {
public:
    const char* name() const override { return "range-analysis"; }
    void run(PassContext& ctx) const override { ctx.context.ensure_ranges(); }
};

class IwlDeterminationPass final : public Pass {
public:
    const char* name() const override { return "iwl-determination"; }
    void run(PassContext& ctx) const override {
        ctx.result.spec = ctx.context.initial_spec(ctx.options.quant_mode);
    }
};

class SlpAwareWloPass final : public Pass {
public:
    explicit SlpAwareWloPass(bool exact_selection)
        : exact_selection_(exact_selection) {}
    const char* name() const override {
        return exact_selection_ ? "slp-aware-wlo-exact" : "slp-aware-wlo";
    }
    void run(PassContext& ctx) const override {
        WloSlpOptions wlo = ctx.options.wlo_slp;
        wlo.accuracy_db = ctx.options.accuracy_db;
        wlo.exact_selection = exact_selection_;
        wlo.solver_budget = ctx.options.solver_budget;
        ctx.context.ensure_evaluator();
        const WloSlpResult out =
            run_slp_aware_wlo(ctx.context.kernel(), ctx.result.spec,
                              ctx.context.evaluator(), ctx.target, wlo,
                              &ctx.context.slp_plans(ctx.result.target_fp));
        ctx.result.groups = out.block_groups;
        ctx.result.slp_stats = out.slp_stats;
        ctx.result.scaling_stats = out.scaling_stats;
        ctx.result.conflict_stats = out.conflict_stats;
        ctx.result.group_count = count_groups(ctx.result.groups);
        if (exact_selection_) {
            const solver::PackSelectStats& ps = out.solver_stats;
            SolverStats& st = ctx.result.solver_stats;
            st.ran = true;
            st.nodes = ps.nodes;
            st.solves = ps.solves;
            st.proven_optimal = ps.proven_optimal;
            st.heuristic_objective = ps.heuristic_objective;
            st.best_objective = ps.best_objective;
            // Maximization: the exact selection's summed pack benefit is
            // never below the greedy incumbent's.
            st.gap = ps.best_objective - ps.heuristic_objective;
        }
    }

private:
    bool exact_selection_;
};

class WloExactPass final : public Pass {
public:
    const char* name() const override { return "wlo-exact"; }
    void run(PassContext& ctx) const override {
        ctx.context.ensure_evaluator();
        solver::WloExactOptions options;
        options.tabu = ctx.options.wlo_first.tabu;
        options.budget = ctx.options.solver_budget;
        const solver::WloExactResult out = solver::run_wlo_exact(
            ctx.result.spec, ctx.context.evaluator(), ctx.target,
            ctx.options.accuracy_db, options);
        ctx.result.tabu_stats = out.tabu;
        SolverStats& st = ctx.result.solver_stats;
        st.ran = true;
        st.nodes = out.solve.nodes;
        st.solves = 1;
        st.proven_optimal = out.solve.proven_optimal;
        st.heuristic_objective = out.heuristic_cost;
        st.best_objective = out.best_cost;
        // Minimization: the exact cost is never above the Tabu incumbent's.
        st.gap = out.heuristic_cost - out.best_cost;
    }
};

class TabuWloPass final : public Pass {
public:
    const char* name() const override { return "tabu-wlo"; }
    void run(PassContext& ctx) const override {
        ctx.context.ensure_evaluator();
        ctx.result.tabu_stats = run_tabu_wlo(
            ctx.result.spec, ctx.context.evaluator(), ctx.target,
            ctx.options.accuracy_db, ctx.options.wlo_first.tabu);
    }
};

class PlainSlpPass final : public Pass {
public:
    const char* name() const override { return "plain-slp"; }
    void run(PassContext& ctx) const override {
        ctx.result.groups = extract_plain_slp_blocks(
            ctx.context.kernel(), ctx.target, ctx.result.spec,
            ctx.options.wlo_first.slp, &ctx.result.slp_stats);
        ctx.result.group_count = count_groups(ctx.result.groups);
    }
};

class LoweringPass final : public Pass {
public:
    const char* name() const override { return "lowering"; }
    void run(PassContext& ctx) const override {
        ctx.eval_key = evaluation_key(ctx.context, ctx.result,
                                      /*float_variant=*/false);
        if (ctx.cache != nullptr) {
            ctx.cached_eval = ctx.cache->lookup(*ctx.eval_key);
            if (ctx.cached_eval.has_value()) return;  // skip the real work
        }
        ctx.scalar_machine =
            lower_kernel(ctx.context.kernel(), &ctx.result.spec, nullptr,
                         ctx.target, LowerMode::FixedScalar);
        ctx.simd_machine =
            lower_kernel(ctx.context.kernel(), &ctx.result.spec,
                         &ctx.result.groups, ctx.target, LowerMode::FixedSimd);
    }
};

class FloatLoweringPass final : public Pass {
public:
    const char* name() const override { return "float-lowering"; }
    void run(PassContext& ctx) const override {
        ctx.float_variant = true;
        ctx.eval_key = evaluation_key(ctx.context, ctx.result,
                                      /*float_variant=*/true);
        if (ctx.cache != nullptr) {
            ctx.cached_eval = ctx.cache->lookup(*ctx.eval_key);
            if (ctx.cached_eval.has_value()) return;
        }
        ctx.float_machine = lower_kernel(ctx.context.kernel(), nullptr,
                                         nullptr, ctx.target, LowerMode::Float);
    }
};

class CycleEvalPass final : public Pass {
public:
    const char* name() const override { return "cycle-eval"; }
    void run(PassContext& ctx) const override {
        if (ctx.cached_eval.has_value()) {
            ctx.result.scalar_cycles = ctx.cached_eval->scalar_cycles;
            ctx.result.simd_cycles = ctx.cached_eval->simd_cycles;
            ctx.result.analytic_noise_db = ctx.cached_eval->analytic_noise_db;
            return;
        }
        if (ctx.float_variant) {
            SLPWLO_ASSERT(ctx.float_machine.has_value(),
                          "cycle-eval without a lowered float kernel");
            const long long cycles =
                estimate_cycles(*ctx.float_machine, ctx.target).total_cycles;
            ctx.result.scalar_cycles = cycles;
            ctx.result.simd_cycles = cycles;
        } else {
            SLPWLO_ASSERT(ctx.scalar_machine.has_value() &&
                              ctx.simd_machine.has_value(),
                          "cycle-eval without lowered machine kernels");
            ctx.result.scalar_cycles =
                estimate_cycles(*ctx.scalar_machine, ctx.target).total_cycles;
            ctx.result.simd_cycles =
                estimate_cycles(*ctx.simd_machine, ctx.target).total_cycles;
            ctx.context.ensure_evaluator();
            ctx.result.analytic_noise_db =
                ctx.context.evaluator().noise_power_db(ctx.result.spec);
        }
        if (ctx.cache != nullptr && ctx.eval_key.has_value()) {
            ctx.cache->store(*ctx.eval_key,
                             EvalCache::Entry{ctx.result.scalar_cycles,
                                              ctx.result.simd_cycles,
                                              ctx.result.analytic_noise_db});
        }
    }
};

}  // namespace

PassRef make_range_analysis_pass() {
    return std::make_shared<RangeAnalysisPass>();
}
PassRef make_iwl_determination_pass() {
    return std::make_shared<IwlDeterminationPass>();
}
PassRef make_slp_aware_wlo_pass(bool exact_selection) {
    return std::make_shared<SlpAwareWloPass>(exact_selection);
}
PassRef make_tabu_wlo_pass() { return std::make_shared<TabuWloPass>(); }
PassRef make_wlo_exact_pass() { return std::make_shared<WloExactPass>(); }
PassRef make_plain_slp_pass() { return std::make_shared<PlainSlpPass>(); }
PassRef make_lowering_pass() { return std::make_shared<LoweringPass>(); }
PassRef make_float_lowering_pass() {
    return std::make_shared<FloatLoweringPass>();
}
PassRef make_cycle_eval_pass() { return std::make_shared<CycleEvalPass>(); }

// --- FlowPipeline --------------------------------------------------------------

FlowPipeline::FlowPipeline(std::string name, std::vector<PassRef> passes)
    : name_(std::move(name)), passes_(std::move(passes)) {
    for (const PassRef& pass : passes_) {
        SLPWLO_CHECK(pass != nullptr,
                     "flow `" + name_ + "` contains a null pass");
    }
}

bool FlowPipeline::float_reference() const {
    return std::any_of(passes_.begin(), passes_.end(), [](const PassRef& pass) {
        return std::strcmp(pass->name(), "float-lowering") == 0;
    });
}

namespace {

/// The passes a stage-memo hit replaces. Everything downstream (lowering,
/// cycle eval) consumes only the restored spec/groups and stays live.
bool is_stage_pass(const char* name) {
    static constexpr const char* kStagePasses[] = {
        "range-analysis", "iwl-determination", "slp-aware-wlo",
        "tabu-wlo",       "plain-slp",         "wlo-exact",
        "slp-aware-wlo-exact"};
    for (const char* stage : kStagePasses) {
        if (std::strcmp(name, stage) == 0) return true;
    }
    return false;
}

}  // namespace

FlowResult FlowPipeline::run(const KernelContext& context,
                             const TargetModel& target,
                             const FlowOptions& options,
                             EvalCache* cache) const {
    SLPWLO_CHECK(!passes_.empty(), "flow `" + name_ + "` has no passes");
    PassContext ctx(context, target, options,
                    FlowResult{.flow_name = name_,
                               .kernel_name = context.kernel().name(),
                               .target_name = target.name,
                               .target_fp = target_fingerprint(target),
                               .accuracy_db = options.accuracy_db,
                               .spec = FixedPointSpec(context.kernel())});
    ctx.cache = cache;

    // Stage memoization: when a cache is attached and this pipeline has
    // optimization stages at all (the float flow does not), a stage-memo
    // hit restores their combined outcome — final formats, groups, stats —
    // and the stage passes are skipped. The restored spec is bit-identical
    // to the cold run's, so the downstream evaluation key (and with it the
    // eval cache and every report byte) cannot tell warm from cold.
    const bool has_stage_passes =
        std::any_of(passes_.begin(), passes_.end(), [](const PassRef& pass) {
            return is_stage_pass(pass->name());
        });
    if (cache != nullptr && has_stage_passes) {
        ctx.stage_key =
            stage_memo_key(context, ctx.result.target_fp, name_, options);
        if (std::optional<EvalCache::StageEntry> entry =
                cache->lookup_stage(*ctx.stage_key)) {
            FixedPointSpec& spec = ctx.result.spec;
            const std::vector<NodeRef>& nodes = spec.nodes();
            SLPWLO_CHECK(entry->formats.size() == nodes.size(),
                         "stage memo entry does not match kernel `" +
                             context.kernel().name() + "` (node count)");
            spec.set_quant_mode(entry->quant_mode);
            for (size_t i = 0; i < nodes.size(); ++i) {
                spec.set_format(nodes[i], entry->formats[i]);
            }
            ctx.result.groups = std::move(entry->groups);
            ctx.result.slp_stats = entry->slp_stats;
            ctx.result.scaling_stats = entry->scaling_stats;
            ctx.result.tabu_stats = entry->tabu_stats;
            ctx.result.solver_stats = entry->solver_stats;
            ctx.result.group_count = entry->group_count;
            ctx.stage_restored = true;
        }
    }

    for (const PassRef& pass : passes_) {
        if (ctx.stage_restored && is_stage_pass(pass->name())) continue;
        pass->run(ctx);
    }
    // The journal fed the passes' evaluation sessions, which are all
    // closed now; nothing reads it again, so the result keeps none.
    ctx.result.spec.release_journal();

    if (ctx.stage_key.has_value() && !ctx.stage_restored) {
        EvalCache::StageEntry entry;
        entry.quant_mode = ctx.result.spec.quant_mode();
        entry.formats.reserve(ctx.result.spec.nodes().size());
        for (const NodeRef node : ctx.result.spec.nodes()) {
            entry.formats.push_back(ctx.result.spec.format(node));
        }
        entry.groups = ctx.result.groups;
        entry.slp_stats = ctx.result.slp_stats;
        entry.scaling_stats = ctx.result.scaling_stats;
        entry.tabu_stats = ctx.result.tabu_stats;
        entry.solver_stats = ctx.result.solver_stats;
        entry.group_count = ctx.result.group_count;
        cache->store_stage(*ctx.stage_key, entry);
    }
    return std::move(ctx.result);
}

// --- FlowRegistry --------------------------------------------------------------

FlowRegistry::FlowRegistry() {
    const PassRef range = make_range_analysis_pass();
    const PassRef iwl = make_iwl_determination_pass();
    const PassRef lower = make_lowering_pass();
    const PassRef cycles = make_cycle_eval_pass();

    flows_.emplace(
        "WLO-SLP",
        FlowPipeline("WLO-SLP", {range, iwl, make_slp_aware_wlo_pass(), lower,
                                 cycles}));
    flows_.emplace(
        "WLO-First",
        FlowPipeline("WLO-First", {range, iwl, make_tabu_wlo_pass(),
                                   make_plain_slp_pass(), lower, cycles}));
    flows_.emplace("Float", FlowPipeline("Float", {make_float_lowering_pass(),
                                                   cycles}));
    // The exact counterparts (src/solver): branch-and-bound WLO seeded by
    // Tabu, and SLP extraction with exact per-round pack selection. A grid
    // sweeps both sides of the gap by naming both flows.
    flows_.emplace(
        "WLO-Optimal",
        FlowPipeline("WLO-Optimal", {range, iwl, make_wlo_exact_pass(),
                                     make_plain_slp_pass(), lower, cycles}));
    flows_.emplace(
        "SLP-Optimal",
        FlowPipeline("SLP-Optimal",
                     {range, iwl,
                      make_slp_aware_wlo_pass(/*exact_selection=*/true),
                      lower, cycles}));
}

FlowRegistry& FlowRegistry::instance() {
    static FlowRegistry registry;
    return registry;
}

void FlowRegistry::add(FlowPipeline pipeline) {
    SLPWLO_CHECK(!pipeline.name().empty(), "flow pipelines need a name");
    std::lock_guard<std::mutex> lock(mutex_);
    flows_[pipeline.name()] = std::move(pipeline);
}

bool FlowRegistry::contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return flows_.count(name) != 0;
}

const FlowPipeline& FlowRegistry::flow(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = flows_.find(name);
    if (it == flows_.end()) {
        std::string known;
        for (const auto& [flow_name, pipeline] : flows_) {
            (void)pipeline;
            if (!known.empty()) known += ", ";
            known += flow_name;
        }
        throw Error("unknown flow `" + name + "`; registered: " + known);
    }
    return it->second;
}

std::vector<std::string> FlowRegistry::names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(flows_.size());
    for (const auto& [flow_name, pipeline] : flows_) {
        (void)pipeline;
        out.push_back(flow_name);
    }
    return out;
}

}  // namespace slpwlo

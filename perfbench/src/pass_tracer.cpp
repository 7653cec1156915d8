#include "pass_tracer.hpp"

#include <chrono>

namespace perfbench {

using namespace slpwlo;

const std::vector<TracedPass>& traced_passes() {
    static const std::vector<TracedPass> passes = {
        {"range-analysis", "fixpoint.range-analysis"},
        {"iwl-determination", "fixpoint.iwl-determination"},
        {"slp-aware-wlo", "core.slp-aware-wlo"},
        {"tabu-wlo", "core.tabu-wlo"},
        {"scaling-optim", "core.scaling-optim"},
        {"plain-slp", "slp.plain-slp"},
        {"slp-aware-wlo-exact", "solver.slp-aware-wlo-exact"},
        {"wlo-exact", "solver.wlo-exact"},
        {"lowering", "lower.lowering"},
        {"float-lowering", "lower.float-lowering"},
        {"cycle-eval", "schedule.cycle-eval"},
    };
    return passes;
}

namespace {

/// The timing decorator: same name, same behaviour, plus a clock read on
/// either side of the wrapped pass.
class TimedPass final : public Pass {
public:
    TimedPass(PassRef inner, PassTracer::Counter* counter)
        : inner_(std::move(inner)), counter_(counter) {}

    const char* name() const override { return inner_->name(); }

    void run(PassContext& ctx) const override {
        const auto start = std::chrono::steady_clock::now();
        inner_->run(ctx);
        counter_->nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        counter_->calls++;
    }

private:
    PassRef inner_;
    PassTracer::Counter* counter_;
};

}  // namespace

PassTracer::PassTracer() {
    FlowRegistry& registry = FlowRegistry::instance();
    for (const std::string& name : registry.names()) {
        originals_.push_back(registry.flow(name));
    }
    for (const FlowPipeline& pipeline : originals_) {
        std::vector<PassRef> wrapped;
        for (const PassRef& pass : pipeline.passes()) {
            std::unique_ptr<Counter>& counter = counters_[pass->name()];
            if (!counter) counter = std::make_unique<Counter>();
            wrapped.push_back(std::make_shared<TimedPass>(pass, counter.get()));
        }
        registry.add(FlowPipeline(pipeline.name(), std::move(wrapped)));
    }
}

PassTracer::~PassTracer() {
    for (FlowPipeline& pipeline : originals_) {
        FlowRegistry::instance().add(std::move(pipeline));
    }
}

void PassTracer::reset() {
    for (auto& [name, counter] : counters_) {
        counter->nanos = 0;
        counter->calls = 0;
    }
}

std::map<std::string, PassTotals> PassTracer::totals() const {
    std::map<std::string, PassTotals> out;
    for (const auto& [name, counter] : counters_) {
        out[name] = PassTotals{static_cast<double>(counter->nanos.load()) * 1e-9,
                               counter->calls.load()};
    }
    return out;
}

}  // namespace perfbench

#include "exec/compiled_evaluator.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>

#include "support/diagnostics.hpp"

namespace slpwlo::exec {
namespace {

constexpr size_t kCompiledCacheCapacity = 8;

void warn_degraded_once(const std::string& why) {
    static std::atomic<bool> warned{false};
    if (warned.exchange(true)) return;
    std::fprintf(stderr,
                 "slpwlo: compiled evaluator unavailable (%s); "
                 "falling back to the SimTape backend\n",
                 why.c_str());
}

}  // namespace

CompiledEvaluator::CompiledEvaluator(const Kernel& kernel, int runs,
                                     uint64_t seed)
    : sim_(kernel, runs, seed) {}

const CompiledKernel* CompiledEvaluator::obtain(
    const FixedPointSpec& spec) const {
    const uint64_t fp = spec_format_fingerprint(spec);
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < cache_.size(); ++i) {
        if (cache_[i].first != fp) continue;
        if (i != 0) {
            std::rotate(cache_.begin(), cache_.begin() + i,
                        cache_.begin() + i + 1);
        }
        return cache_.front().second.get();
    }
    std::string error;
    std::unique_ptr<CompiledKernel> ck =
        CompiledKernel::create(sim_.kernel(), spec, &error);
    if (ck == nullptr) {
        warn_degraded_once(error);
        degraded_ = true;
        return nullptr;
    }
    cache_.insert(cache_.begin(), {fp, std::move(ck)});
    if (cache_.size() > kCompiledCacheCapacity) cache_.pop_back();
    return cache_.front().second.get();
}

double CompiledEvaluator::noise_power(const FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == &sim_.kernel(),
                  "spec belongs to a different kernel");
    const CompiledKernel* ck = obtain(spec);
    if (ck == nullptr) return sim_.noise_power(spec);

    const size_t in_elems = ck->input_elems();
    const size_t oc = ck->output_count();
    const int runs = sim_.runs();
    const size_t n = static_cast<size_t>(runs);
    std::vector<int64_t> in(n * in_elems);
    std::vector<int64_t> out(n * oc);
    std::vector<long long> ovf(n, 0);
    for (size_t run = 0; run < n; ++run) {
        ovf[run] = ck->param_overflow_count() +
                   ck->pack_stimulus(sim_.stimulus(run),
                                     in.data() + run * in_elems);
    }
    ck->run_fixed_batch(in.data(), out.data(), ovf.data(),
                        static_cast<int>(n));

    // Identical accumulation order to measure_noise_power over the runs.
    const std::vector<double>& steps = ck->output_steps();
    double total = 0.0;
    for (size_t run = 0; run < n; ++run) {
        const std::vector<double>& ref = sim_.reference(run);
        SLPWLO_ASSERT(ref.size() == oc,
                      "reference and compiled traces differ in length");
        if (oc == 0) continue;
        const int64_t* raw = out.data() + run * oc;
        double sum = 0.0;
        for (size_t i = 0; i < oc; ++i) {
            const double e =
                static_cast<double>(raw[i]) * steps[i] - ref[i];
            sum += e * e;
        }
        total += sum / static_cast<double>(oc);
    }
    return total / runs;
}

}  // namespace slpwlo::exec

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
    : kernel_(&kernel), tape_(kernel), runs_(runs) {
    SLPWLO_CHECK(runs >= 1, "CompiledEvaluator requires at least one run");
    stimuli_.reserve(static_cast<size_t>(runs));
    ref_outputs_.reserve(static_cast<size_t>(runs));
    for (int run = 0; run < runs; ++run) {
        stimuli_.push_back(
            make_stimulus(kernel, seed + static_cast<uint64_t>(run)));
        ref_outputs_.push_back(run_double(tape_, stimuli_.back()).outputs);
    }
}

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
        CompiledKernel::create(*kernel_, spec, &error);
    if (ck == nullptr) {
        warn_degraded_once(error);
        degraded_ = true;
        return nullptr;
    }
    cache_.insert(cache_.begin(), {fp, std::move(ck)});
    if (cache_.size() > kCompiledCacheCapacity) cache_.pop_back();
    return cache_.front().second.get();
}

double CompiledEvaluator::tape_noise_power(const FixedPointSpec& spec) const {
    double total = 0.0;
    for (int run = 0; run < runs_; ++run) {
        total += measure_noise_power(tape_, spec,
                                     stimuli_[static_cast<size_t>(run)],
                                     ref_outputs_[static_cast<size_t>(run)]);
    }
    return total / runs_;
}

double CompiledEvaluator::noise_power(const FixedPointSpec& spec) const {
    SLPWLO_ASSERT(&spec.kernel() == kernel_,
                  "spec belongs to a different kernel");
    const CompiledKernel* ck = obtain(spec);
    if (ck == nullptr) return tape_noise_power(spec);

    const size_t in_elems = ck->input_elems();
    const size_t oc = ck->output_count();
    const size_t n = static_cast<size_t>(runs_);
    std::vector<int64_t> in(n * in_elems);
    std::vector<int64_t> out(n * oc);
    std::vector<long long> ovf(n, 0);
    for (size_t run = 0; run < n; ++run) {
        ovf[run] = ck->param_overflow_count() +
                   ck->pack_stimulus(stimuli_[run], in.data() +
                                                        run * in_elems);
    }
    ck->run_fixed_batch(in.data(), out.data(), ovf.data(),
                        static_cast<int>(n));

    // Identical accumulation order to measure_noise_power over the runs.
    const std::vector<double>& steps = ck->output_steps();
    double total = 0.0;
    for (size_t run = 0; run < n; ++run) {
        const std::vector<double>& ref = ref_outputs_[run];
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
    return total / runs_;
}

}  // namespace slpwlo::exec

#include "exec/compiled_kernel.hpp"

#include <dlfcn.h>

#include <cmath>

#include "codegen/c_emitter.hpp"
#include "codegen/fixed_c.hpp"
#include "exec/jit_cache.hpp"
#include "exec/toolchain.hpp"
#include "ir/printer.hpp"
#include "sim/sim_tape.hpp"
#include "support/dbmath.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/text.hpp"

namespace slpwlo::exec {
namespace {

/// The stimuli-batched wrapper around the emitted single-run body: narrow
/// each stimulus' raw slab into the typed input arrays, run with zeroed
/// output arrays (run_fixed's initial memory), trace and counter cursors
/// advanced per stimulus. Every wrapper-owned identifier carries the
/// slpwlo_ prefix: kernel arrays keep their source names as locals, so a
/// kernel output called `out` must not shadow the batch output pointer.
std::string emit_batch_wrapper(const Kernel& kernel,
                               const FixedPointSpec& spec,
                               const std::string& fixed_fn,
                               size_t input_elems, size_t output_count) {
    CodeWriter w;
    w.open("void " + fixed_fn +
           "_batch(const int64_t* slpwlo_bin, int64_t* slpwlo_bout, "
           "long long* slpwlo_bovf, int slpwlo_n)");
    w.open("for (int slpwlo_s = 0; slpwlo_s < slpwlo_n; ++slpwlo_s)");
    w.line("const int64_t* slpwlo_src = slpwlo_bin + (int64_t)slpwlo_s * " +
           std::to_string(input_elems) + ";");
    std::vector<std::string> args;
    size_t offset = 0;
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        const std::string size = std::to_string(decl.size);
        if (decl.storage == StorageClass::Input) {
            const std::string type = c_int_type(
                spec.array_format(ArrayId(static_cast<int32_t>(a))).wl());
            w.line(type + " " + decl.name + "[" + size + "];");
            w.open("for (int slpwlo_i = 0; slpwlo_i < " + size +
                   "; ++slpwlo_i)");
            w.line(decl.name + "[slpwlo_i] = (" + type + ")slpwlo_src[" +
                   std::to_string(offset) + " + slpwlo_i];");
            w.close();
            args.push_back(decl.name);
            offset += static_cast<size_t>(decl.size);
        } else if (decl.storage == StorageClass::Output) {
            const std::string type = c_int_type(
                spec.array_format(ArrayId(static_cast<int32_t>(a))).wl());
            w.line(type + " " + decl.name + "[" + size + "] = {0};");
            args.push_back(decl.name);
        }
    }
    args.push_back("slpwlo_bout + (int64_t)slpwlo_s * " +
                   std::to_string(output_count));
    args.push_back("slpwlo_bovf + slpwlo_s");
    w.line(fixed_fn + "(" + join(args, ", ") + ");");
    w.close();
    w.close();
    return w.str();
}

}  // namespace

uint64_t spec_format_fingerprint(const FixedPointSpec& spec) {
    // FNV-1a over (node kind, node id, iwl, fwl) of every node + the mode.
    uint64_t h = hash_name("slpwlo-format-set-v1");
    auto mix = [&h](long long value) {
        for (int i = 0; i < 8; ++i) {
            h ^= (static_cast<uint64_t>(value) >> (i * 8)) & 0xFF;
            h *= 1099511628211ULL;
        }
    };
    for (const NodeRef node : spec.nodes()) {
        const FixedFormat& fmt = spec.format(node);
        mix(static_cast<long long>(node.kind));
        mix(node.id);
        mix(fmt.iwl);
        mix(fmt.fwl);
    }
    mix(static_cast<long long>(spec.quant_mode()));
    return h;
}

std::unique_ptr<CompiledKernel> CompiledKernel::create(
    const Kernel& kernel, const FixedPointSpec& spec, std::string* error) {
    // Degenerate formats (wl outside [1, 63] — e.g. a spec straight out
    // of range analysis, before WLO assigns word lengths) cannot be
    // represented in the generated C's raw integer domain; refuse before
    // touching the toolchain so the evaluator degrades to the tape, whose
    // double-domain clamping handles them bit-identically to the walker.
    std::string why;
    if (!spec_fits_c_domain(spec, &why)) {
        if (error != nullptr) *error = why;
        return nullptr;
    }
    const Toolchain& toolchain = host_toolchain();
    if (!toolchain.usable) {
        if (error != nullptr) *error = "no usable C compiler";
        return nullptr;
    }

    FixedCOptions options;
    options.count_overflows = true;
    options.record_trace = true;
    const FixedCResult fixed = emit_fixed_c(kernel, spec, options);

    std::unique_ptr<CompiledKernel> ck(new CompiledKernel());
    ck->quant_mode_ = spec.quant_mode();
    size_t offset = 0;
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        const ArrayId id(static_cast<int32_t>(a));
        if (decl.storage == StorageClass::Input) {
            InputSlot slot;
            slot.array = id.value;
            slot.offset = offset;
            slot.size = static_cast<size_t>(decl.size);
            slot.format = spec.array_format(id);
            ck->inputs_.push_back(slot);
            offset += slot.size;
        } else if (decl.storage == StorageClass::Param) {
            // run_fixed quantizes Param contents on every replay, counting
            // saturation each time; the compiled body bakes the saturated
            // raw data in, so the count is replicated host-side per replay.
            const FixedFormat fmt = spec.array_format(id);
            for (const double v : decl.values) {
                bool overflowed = false;
                quantize_saturate(v, fmt, spec.quant_mode(), &overflowed);
                if (overflowed) ck->param_overflows_++;
            }
        }
    }
    ck->input_elems_ = offset;

    // One tape walk resolves each Output store's array format into the
    // raw->value scale of its trace slot.
    const SimTape tape(kernel);
    ck->output_steps_.reserve(tape.output_count());
    for (const TapeStep& step : tape.steps()) {
        if (step.kind != OpKind::Store || !step.output) continue;
        ck->output_steps_.push_back(
            pow2(-spec.array_format(ArrayId(step.array)).fwl));
    }

    const std::string code =
        fixed.code + "\n" +
        emit_batch_wrapper(kernel, spec, fixed.function_name,
                           ck->input_elems_, ck->output_steps_.size());

    JitKey key;
    key.kernel_fp = hash_name(print_kernel(kernel));
    key.format_fp = spec_format_fingerprint(spec);
    key.quant_mode = spec.quant_mode();
    key.compiler_id = toolchain.id;
    const std::string so_path = jit_obtain(key, code, error);
    if (so_path.empty()) return nullptr;

    ck->handle_ = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (ck->handle_ == nullptr) {
        if (error != nullptr) {
            const char* why = dlerror();
            *error = why != nullptr ? why : "dlopen failed";
        }
        return nullptr;
    }
    ck->so_path_ = so_path;
    const std::string fixed_sym = fixed.function_name + "_batch";
    ck->fixed_batch_ = reinterpret_cast<decltype(ck->fixed_batch_)>(
        dlsym(ck->handle_, fixed_sym.c_str()));
    if (ck->fixed_batch_ == nullptr) {
        if (error != nullptr) *error = "compiled object misses " + fixed_sym;
        return nullptr;
    }
    return ck;
}

CompiledKernel::~CompiledKernel() {
    if (handle_ != nullptr) dlclose(handle_);
}

long long CompiledKernel::pack_stimulus(const Stimulus& stimulus,
                                        int64_t* slab) const {
    long long overflows = 0;
    for (const InputSlot& slot : inputs_) {
        SLPWLO_CHECK(static_cast<size_t>(slot.array) < stimulus.size() &&
                         stimulus[static_cast<size_t>(slot.array)].size() ==
                             slot.size,
                     "stimulus missing or mis-sized for a compiled kernel "
                     "input array");
        const std::vector<double>& values =
            stimulus[static_cast<size_t>(slot.array)];
        const double scale = pow2(slot.format.fwl);
        for (size_t i = 0; i < slot.size; ++i) {
            bool overflowed = false;
            const double q = quantize_saturate(values[i], slot.format,
                                               quant_mode_, &overflowed);
            if (overflowed) overflows++;
            slab[slot.offset + i] = std::llround(q * scale);
        }
    }
    return overflows;
}

void CompiledKernel::run_fixed_batch(const int64_t* in, int64_t* out,
                                     long long* ovf, int n) const {
    fixed_batch_(in, out, ovf, n);
}

}  // namespace slpwlo::exec

#include "sim/sim_tape.hpp"

#include <cmath>

#include "sim/walker.hpp"
#include "support/dbmath.hpp"
#include "support/diagnostics.hpp"

namespace slpwlo {

namespace {

/// Build the initial memory image shared by both replays (unquantized).
std::vector<std::vector<double>> initial_memory(const Kernel& kernel,
                                                const Stimulus& stimulus) {
    std::vector<std::vector<double>> mem(kernel.arrays().size());
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        mem[a].assign(static_cast<size_t>(decl.size), 0.0);
        if (decl.storage == StorageClass::Input) {
            SLPWLO_CHECK(a < stimulus.size() &&
                             stimulus[a].size() == mem[a].size(),
                         "stimulus missing or mis-sized for input array `" +
                             decl.name + "`");
            mem[a] = stimulus[a];
        } else if (decl.storage == StorageClass::Param) {
            mem[a] = decl.values;
        }
    }
    return mem;
}

/// Dynamic op instances one walk of `region` visits: loop bounds are
/// constants, so the step count is closed-form and the tape is sized
/// once instead of growing by doubling (FIR's tape is ~6 MB).
size_t dynamic_op_count(const Kernel& kernel, const Region& region) {
    size_t count = 0;
    for (const RegionItem& item : region.items) {
        if (item.kind == RegionItem::Kind::Block) {
            count += kernel.block(item.block).ops.size();
        } else {
            const Loop& loop = kernel.loop(item.loop);
            if (loop.end > loop.begin) {
                count += static_cast<size_t>(loop.end - loop.begin) *
                         dynamic_op_count(kernel, loop.body);
            }
        }
    }
    return count;
}

}  // namespace

SimTape::SimTape(const Kernel& kernel) : kernel_(&kernel) {
    steps_.reserve(dynamic_op_count(kernel, kernel.body()));
    walk_kernel(kernel, [&](OpId op_id, const std::vector<int>& loop_values) {
        const Op& op = kernel.op(op_id);
        TapeStep step;
        step.kind = op.kind;
        step.op = op_id.value;
        step.const_value = op.const_value;
        if (op.kind == OpKind::Store) {
            step.arg0 = op.args[0].value;
            step.array = op.array.value;
            step.addr = evaluate_affine(op.index, loop_values);
            step.output =
                kernel.array(op.array).storage == StorageClass::Output;
            if (step.output) output_count_++;
        } else {
            step.dest = op.dest.value;
            if (op.kind == OpKind::Load) {
                step.array = op.array.value;
                step.addr = evaluate_affine(op.index, loop_values);
            } else {
                if (op.num_args() >= 1) step.arg0 = op.args[0].value;
                if (op.num_args() >= 2) step.arg1 = op.args[1].value;
            }
        }
        steps_.push_back(step);
    });
}

DoubleSimResult run_double(const SimTape& tape, const Stimulus& stimulus,
                           const DoubleSimOptions& options) {
    const Kernel& kernel = tape.kernel();
    std::vector<std::vector<double>> mem = initial_memory(kernel, stimulus);

    for (const auto& inj : options.array_injections) {
        auto& elements = mem[static_cast<size_t>(inj.array.index())];
        SLPWLO_CHECK(inj.element >= 0 &&
                         inj.element < static_cast<int>(elements.size()),
                     "array injection element out of bounds");
        elements[static_cast<size_t>(inj.element)] += inj.delta;
    }

    std::vector<double> vars(kernel.vars().size(), 0.0);

    // Injections are matched by per-static-op occurrence counters, exactly
    // as the walker does. The counters (and the per-op injection lists) are
    // only materialized when injections exist, keeping the plain replay at
    // a single loop over the steps.
    const bool has_injections = !options.injections.empty();
    std::vector<long long> occurrence;
    std::vector<std::vector<const DoubleSimOptions::Injection*>> inj_by_op;
    if (has_injections) {
        occurrence.assign(kernel.ops().size(), 0);
        inj_by_op.resize(kernel.ops().size());
        for (const auto& inj : options.injections) {
            inj_by_op[static_cast<size_t>(inj.op.index())].push_back(&inj);
        }
    }

    DoubleSimResult result;
    result.outputs.reserve(tape.output_count());
    if (options.record_ranges) {
        result.var_ranges.assign(kernel.vars().size(), Interval::empty());
        result.array_ranges.assign(kernel.arrays().size(), Interval::empty());
        for (size_t a = 0; a < kernel.arrays().size(); ++a) {
            // Initial contents participate in the array's value range.
            for (const double v : mem[a]) {
                result.array_ranges[a] =
                    result.array_ranges[a].hull(Interval(v));
            }
        }
    }

    for (const TapeStep& step : tape.steps()) {
        double value = 0.0;
        switch (step.kind) {
            case OpKind::Const:
                value = step.const_value;
                break;
            case OpKind::Copy:
                value = vars[static_cast<size_t>(step.arg0)];
                break;
            case OpKind::Neg:
                value = -vars[static_cast<size_t>(step.arg0)];
                break;
            case OpKind::Add:
                value = vars[static_cast<size_t>(step.arg0)] +
                        vars[static_cast<size_t>(step.arg1)];
                break;
            case OpKind::Sub:
                value = vars[static_cast<size_t>(step.arg0)] -
                        vars[static_cast<size_t>(step.arg1)];
                break;
            case OpKind::Mul:
                value = vars[static_cast<size_t>(step.arg0)] *
                        vars[static_cast<size_t>(step.arg1)];
                break;
            case OpKind::Div:
                value = vars[static_cast<size_t>(step.arg0)] /
                        vars[static_cast<size_t>(step.arg1)];
                break;
            case OpKind::Load:
                value = mem[static_cast<size_t>(step.array)]
                           [static_cast<size_t>(step.addr)];
                break;
            case OpKind::Store:
                value = vars[static_cast<size_t>(step.arg0)];
                break;
        }

        if (has_injections) {
            const size_t oi = static_cast<size_t>(step.op);
            for (const auto* inj : inj_by_op[oi]) {
                if (inj->occurrence == occurrence[oi]) value += inj->delta;
            }
            occurrence[oi]++;
        }

        if (step.kind == OpKind::Store) {
            mem[static_cast<size_t>(step.array)]
               [static_cast<size_t>(step.addr)] = value;
            if (step.output) result.outputs.push_back(value);
            if (options.record_ranges) {
                auto& hull =
                    result.array_ranges[static_cast<size_t>(step.array)];
                hull = hull.hull(Interval(value));
            }
        } else {
            vars[static_cast<size_t>(step.dest)] = value;
            if (options.record_ranges) {
                auto& hull = result.var_ranges[static_cast<size_t>(step.dest)];
                hull = hull.hull(Interval(value));
            }
        }
    }

    return result;
}

namespace {

/// A format's quantization constants, resolved once per replay. The values
/// are exactly those quantize_value/quantize_saturate derive per call
/// (scale = 2^fwl, lo/hi = the format's representable bounds), so the
/// inlined arithmetic below is bit-identical to the library routines —
/// it just skips the three ldexp calls per dynamic tape step.
struct QuantParams {
    double scale = 1.0;
    double lo = 0.0;
    double hi = 0.0;
};

QuantParams resolve_params(const FixedFormat& fmt) {
    QuantParams p;
    p.scale = pow2(fmt.fwl);
    p.lo = fmt.min_value();
    p.hi = fmt.max_value();
    return p;
}

}  // namespace

FixedSimResult run_fixed(const SimTape& tape, const FixedPointSpec& spec,
                         const Stimulus& stimulus) {
    const Kernel& kernel = tape.kernel();
    const QuantMode mode = spec.quant_mode();
    const bool round_half = mode == QuantMode::Round;
    FixedSimResult result;
    result.outputs.reserve(tape.output_count());

    // floor(v * scale [+ 0.5]) / scale — quantize_value with the scale
    // hoisted. The Truncate branch must NOT add 0.0: that would turn a
    // -0.0 product into +0.0 and break bit-identity with the walker.
    auto quantize = [round_half](double value, double scale) {
        const double scaled = value * scale;
        return (round_half ? std::floor(scaled + 0.5) : std::floor(scaled)) /
               scale;
    };
    auto quantize_into = [&](double value, const QuantParams& p) {
        double q = quantize(value, p.scale);
        if (q < p.lo) {
            q = p.lo;
            result.overflow_count++;
        } else if (q > p.hi) {
            q = p.hi;
            result.overflow_count++;
        }
        return q;
    };

    // The spec is constant for the whole replay: resolve every static op's
    // result format (and every array's storage format) once up front
    // instead of per dynamic instance.
    std::vector<QuantParams> op_params(kernel.ops().size());
    for (size_t o = 0; o < kernel.ops().size(); ++o) {
        const OpId op_id(static_cast<int32_t>(o));
        if (kernel.op(op_id).kind == OpKind::Store) {
            op_params[o] = resolve_params(
                spec.array_format(kernel.op(op_id).array));
        } else {
            op_params[o] = resolve_params(spec.result_format(op_id));
        }
    }

    // Memory image, quantized to each array's storage format.
    std::vector<std::vector<double>> mem = initial_memory(kernel, stimulus);
    for (size_t a = 0; a < kernel.arrays().size(); ++a) {
        const ArrayDecl& decl = kernel.arrays()[a];
        if (decl.storage == StorageClass::Input ||
            decl.storage == StorageClass::Param) {
            const QuantParams p = resolve_params(
                spec.array_format(ArrayId(static_cast<int32_t>(a))));
            for (double& v : mem[a]) v = quantize_into(v, p);
        }
    }

    std::vector<double> vars(kernel.vars().size(), 0.0);

    for (const TapeStep& step : tape.steps()) {
        const QuantParams& p = op_params[static_cast<size_t>(step.op)];

        if (step.kind == OpKind::Store) {
            const double value =
                quantize_into(vars[static_cast<size_t>(step.arg0)], p);
            mem[static_cast<size_t>(step.array)]
               [static_cast<size_t>(step.addr)] = value;
            if (step.output) result.outputs.push_back(value);
            continue;
        }

        double value = 0.0;
        switch (step.kind) {
            case OpKind::Const:
                value = quantize_into(step.const_value, p);
                break;
            case OpKind::Copy:
                value = quantize_into(vars[static_cast<size_t>(step.arg0)], p);
                break;
            case OpKind::Neg:
                value = quantize_into(-vars[static_cast<size_t>(step.arg0)],
                                      p);
                break;
            case OpKind::Add:
            case OpKind::Sub: {
                // Operands are aligned to the result FWL before the add:
                // a right shift truncates, exactly as the generated C does.
                const double a =
                    quantize(vars[static_cast<size_t>(step.arg0)], p.scale);
                const double b =
                    quantize(vars[static_cast<size_t>(step.arg1)], p.scale);
                value = quantize_into(
                    step.kind == OpKind::Add ? a + b : a - b, p);
                break;
            }
            case OpKind::Mul:
                // Full-precision product, then quantization to the result
                // format (one shift in the generated code).
                value = quantize_into(vars[static_cast<size_t>(step.arg0)] *
                                          vars[static_cast<size_t>(step.arg1)],
                                      p);
                break;
            case OpKind::Div:
                value = quantize_into(vars[static_cast<size_t>(step.arg0)] /
                                          vars[static_cast<size_t>(step.arg1)],
                                      p);
                break;
            case OpKind::Load:
                value = mem[static_cast<size_t>(step.array)]
                           [static_cast<size_t>(step.addr)];
                break;
            case OpKind::Store:
                break;  // handled above
        }
        vars[static_cast<size_t>(step.dest)] = value;
    }

    return result;
}

double measure_noise_power(const SimTape& tape, const FixedPointSpec& spec,
                           const Stimulus& stimulus,
                           const std::vector<double>& ref_outputs) {
    const FixedSimResult fix = run_fixed(tape, spec, stimulus);
    SLPWLO_ASSERT(ref_outputs.size() == fix.outputs.size(),
                  "reference and fixed-point output traces differ in length");
    if (ref_outputs.empty()) return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < ref_outputs.size(); ++i) {
        const double e = fix.outputs[i] - ref_outputs[i];
        sum += e * e;
    }
    return sum / static_cast<double>(ref_outputs.size());
}

}  // namespace slpwlo

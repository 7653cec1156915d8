#include "codegen/fixed_c.hpp"

#include <cctype>

#include "accuracy/noise_source.hpp"
#include "codegen/c_emitter.hpp"
#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace slpwlo {
namespace {

class FixedCEmitter {
public:
    FixedCEmitter(const Kernel& kernel, const FixedPointSpec& spec,
                  const FixedCOptions& options)
        : kernel_(kernel),
          spec_(spec),
          options_(options),
          def_nodes_(compute_var_def_nodes(kernel)) {}

    FixedCResult run() {
        FixedCResult result;
        result.function_name = sanitize(kernel_.name()) + "_fixed";
        prologue(result.function_name);
        emit_region(kernel_.body());
        w_.close();
        result.code = w_.str();
        return result;
    }

private:
    static std::string sanitize(const std::string& name) {
        std::string out;
        for (const char c : name) {
            out += (std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
        }
        return out;
    }

    int fwl_of_var(VarId v) const {
        const NodeRef node = def_nodes_[static_cast<size_t>(v.index())];
        SLPWLO_ASSERT(node.valid(), "read of a never-defined variable");
        return spec_.format(node).fwl;
    }

    /// Operand expression shifted from its own fwl to `target_fwl`.
    std::string aligned(VarId v, int target_fwl) const {
        const std::string name = c_name(kernel_, v);
        const int k = fwl_of_var(v) - target_fwl;
        if (k == 0) return "(int64_t)" + name;
        if (k > 0) {
            return "slpwlo_shr((int64_t)" + name + ", " + std::to_string(k) +
                   ")";
        }
        return "((int64_t)" + name + " << " + std::to_string(-k) + ")";
    }

    /// Operand negated at its own fwl, then shifted to `target_fwl`. The
    /// shift must see the negated value: both quantization modes are
    /// floor-based (floor(v), floor(v + 1/2)) and floor(-v) != -floor(v),
    /// so align-then-negate diverges from the simulator (which quantizes
    /// the negated result) whenever the shift drops bits.
    std::string aligned_negated(VarId v, int target_fwl) const {
        const std::string name = c_name(kernel_, v);
        const int k = fwl_of_var(v) - target_fwl;
        if (k == 0) return "(-(int64_t)" + name + ")";
        if (k > 0) {
            return "slpwlo_shr(-(int64_t)" + name + ", " + std::to_string(k) +
                   ")";
        }
        return "((-(int64_t)" + name + ") << " + std::to_string(-k) + ")";
    }

    std::string sat(const std::string& expr, int wl) const {
        // Appended piece by piece: gcc 12 misreports `"(" + string&&`
        // (an insert at 0) as an overlapping memcpy under -Wrestrict.
        std::string out = "(";
        out += c_int_type(wl);
        out += ")slpwlo_sat(";
        out += expr;
        out += ", ";
        out += std::to_string(wl);
        out += options_.count_overflows ? ", slpwlo_ovf)" : ")";
        return out;
    }

    void prologue(const std::string& function_name) {
        w_.line("/* generated by slpwlo: fixed-point implementation of `" +
                kernel_.name() + "` */");
        w_.line("#include <stdint.h>");
        w_.blank();
        if (options_.count_overflows) {
            // Saturation counts exactly once per dynamic clamping event,
            // matching run_fixed's quantize_into.
            w_.line(
                "static inline int64_t slpwlo_sat(int64_t v, int bits, "
                "long long* ovf) {");
            w_.line("    const int64_t hi = (((int64_t)1) << (bits - 1)) - 1;");
            w_.line("    const int64_t lo = -(((int64_t)1) << (bits - 1));");
            w_.line("    if (v < lo) { ++*ovf; return lo; }");
            w_.line("    if (v > hi) { ++*ovf; return hi; }");
            w_.line("    return v;");
            w_.line("}");
        } else {
            w_.line("static inline int64_t slpwlo_sat(int64_t v, int bits) {");
            w_.line("    const int64_t hi = (((int64_t)1) << (bits - 1)) - 1;");
            w_.line("    const int64_t lo = -(((int64_t)1) << (bits - 1));");
            w_.line("    return v < lo ? lo : (v > hi ? hi : v);");
            w_.line("}");
        }
        if (spec_.quant_mode() == QuantMode::Truncate) {
            w_.line("/* truncation: arithmetic shift right (floor) */");
            w_.line("static inline int64_t slpwlo_shr(int64_t v, int k) {");
            w_.line("    return v >> k;");
            w_.line("}");
        } else {
            w_.line("/* round-to-nearest, half up */");
            w_.line("static inline int64_t slpwlo_shr(int64_t v, int k) {");
            w_.line("    return (v + (((int64_t)1) << (k - 1))) >> k;");
            w_.line("}");
        }
        w_.blank();

        // Coefficient arrays as raw fixed-point data.
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            if (decl.storage != StorageClass::Param) continue;
            const FixedFormat fmt =
                spec_.array_format(ArrayId(static_cast<int32_t>(a)));
            std::vector<std::string> values;
            for (const double v : decl.values) {
                values.push_back(std::to_string(
                    raw_fixed_value(v, fmt, spec_.quant_mode())));
            }
            w_.line("/* " + decl.name + ": format " + fmt.str() + " */");
            w_.line("static const " + c_int_type(fmt.wl()) + " " + decl.name +
                    "[" + std::to_string(decl.size) + "] = {" +
                    join(values, ", ") + "};");
        }
        w_.blank();

        // Signature: inputs const, outputs mutable, raw integer domain.
        std::vector<std::string> params;
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            const FixedFormat fmt =
                spec_.array_format(ArrayId(static_cast<int32_t>(a)));
            if (decl.storage == StorageClass::Input) {
                params.push_back("const " + c_int_type(fmt.wl()) + " " +
                                 decl.name + "[" + std::to_string(decl.size) +
                                 "]");
            } else if (decl.storage == StorageClass::Output) {
                params.push_back(c_int_type(fmt.wl()) + " " + decl.name + "[" +
                                 std::to_string(decl.size) + "]");
            }
        }
        if (options_.record_trace) params.push_back("int64_t* slpwlo_trace");
        if (options_.count_overflows) params.push_back("long long* slpwlo_ovf");
        w_.open("void " + function_name + "(" + join(params, ", ") + ")");

        // Scratch buffers (zero-initialized, as the simulator assumes).
        for (size_t a = 0; a < kernel_.arrays().size(); ++a) {
            const ArrayDecl& decl = kernel_.arrays()[a];
            if (decl.storage != StorageClass::Buffer) continue;
            const FixedFormat fmt =
                spec_.array_format(ArrayId(static_cast<int32_t>(a)));
            w_.line(c_int_type(fmt.wl()) + " " + decl.name + "[" +
                    std::to_string(decl.size) + "] = {0};");
        }

        // Variable declarations (storage type from each node's WL).
        for (size_t v = 0; v < kernel_.vars().size(); ++v) {
            const NodeRef node = def_nodes_[v];
            if (!node.valid()) continue;
            w_.line(c_int_type(spec_.format(node).wl()) + " " +
                    c_name(kernel_, VarId(static_cast<int32_t>(v))) + " = 0;");
        }
        w_.blank();
    }

    void emit_region(const Region& region) {
        for (const RegionItem& item : region.items) {
            if (item.kind == RegionItem::Kind::Block) {
                for (const OpId op : kernel_.block(item.block).ops) {
                    emit_op(op);
                }
            } else {
                const Loop& loop = kernel_.loop(item.loop);
                const std::string v = c_loop_name(kernel_, loop.id);
                w_.open("for (int " + v + " = " + std::to_string(loop.begin) +
                        "; " + v + " < " + std::to_string(loop.end) + "; ++" +
                        v + ")");
                emit_region(loop.body);
                w_.close();
            }
        }
    }

    void emit_op(OpId op_id) {
        const Op& op = kernel_.op(op_id);
        const QuantMode mode = spec_.quant_mode();
        switch (op.kind) {
            case OpKind::Const: {
                const FixedFormat fmt = spec_.result_format(op_id);
                if (options_.count_overflows) {
                    // The simulator clamps (and counts) the literal on every
                    // execution; the saturation is resolved at emission time
                    // here, so re-emit the count as a plain increment.
                    bool overflowed = false;
                    quantize_saturate(op.const_value, fmt, mode, &overflowed);
                    if (overflowed) {
                        w_.line("++*slpwlo_ovf;  /* const saturates */");
                    }
                }
                w_.line(c_name(kernel_, op.dest) + " = " +
                        std::to_string(
                            raw_fixed_value(op.const_value, fmt, mode)) +
                        ";  /* " + format_double(op.const_value) + " in " +
                        fmt.str() + " */");
                break;
            }
            case OpKind::Copy:
            case OpKind::Neg: {
                const FixedFormat fmt = spec_.result_format(op_id);
                const std::string value =
                    op.kind == OpKind::Neg
                        ? aligned_negated(op.args[0], fmt.fwl)
                        : aligned(op.args[0], fmt.fwl);
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(value, fmt.wl()) + ";");
                break;
            }
            case OpKind::Load:
                w_.line(c_name(kernel_, op.dest) + " = " +
                        kernel_.array(op.array).name + "[" +
                        c_index(kernel_, op.index) + "];");
                break;
            case OpKind::Store: {
                const FixedFormat fmt = spec_.array_format(op.array);
                const std::string element = kernel_.array(op.array).name +
                                            "[" + c_index(kernel_, op.index) +
                                            "]";
                w_.line(element + " = " +
                        sat(aligned(op.args[0], fmt.fwl), fmt.wl()) + ";");
                if (options_.record_trace &&
                    kernel_.array(op.array).storage == StorageClass::Output) {
                    w_.line("*slpwlo_trace++ = (int64_t)" + element + ";");
                }
                break;
            }
            case OpKind::Add:
            case OpKind::Sub: {
                const FixedFormat fmt = spec_.result_format(op_id);
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(aligned(op.args[0], fmt.fwl) +
                                (op.kind == OpKind::Add ? " + " : " - ") +
                                aligned(op.args[1], fmt.fwl),
                            fmt.wl()) +
                        ";");
                break;
            }
            case OpKind::Mul: {
                const FixedFormat fmt = spec_.result_format(op_id);
                const int full =
                    fwl_of_var(op.args[0]) + fwl_of_var(op.args[1]);
                const int k = full - fmt.fwl;
                std::string product = "(int64_t)" +
                                      c_name(kernel_, op.args[0]) + " * " +
                                      c_name(kernel_, op.args[1]);
                if (k > 0) {
                    product = "slpwlo_shr(" + product + ", " +
                              std::to_string(k) + ")";
                } else if (k < 0) {
                    product = "((" + product + ") << " + std::to_string(-k) +
                              ")";
                }
                w_.line(c_name(kernel_, op.dest) + " = " +
                        sat(product, fmt.wl()) + ";");
                break;
            }
            case OpKind::Div:
                throw Error(
                    "fixed-point C generation does not support division "
                    "(none of the supported kernels use it)");
        }
    }

    const Kernel& kernel_;
    const FixedPointSpec& spec_;
    FixedCOptions options_;
    std::vector<NodeRef> def_nodes_;
    CodeWriter w_;
};

}  // namespace

bool spec_fits_c_domain(const FixedPointSpec& spec, std::string* why) {
    for (const NodeRef node : spec.nodes()) {
        const FixedFormat& fmt = spec.format(node);
        const int wl = fmt.wl();
        if (wl >= 1 && wl <= 63) continue;
        if (why != nullptr) {
            *why = "format " + fmt.str() + " (wl=" + std::to_string(wl) +
                   ") does not fit the generated C's raw integer domain "
                   "(need 1 <= wl <= 63)";
        }
        return false;
    }
    return true;
}

FixedCResult emit_fixed_c(const Kernel& kernel, const FixedPointSpec& spec,
                          const FixedCOptions& options) {
    std::string why;
    SLPWLO_CHECK(spec_fits_c_domain(spec, &why),
                 "cannot emit fixed-point C for `" + kernel.name() +
                     "`: " + why);
    return FixedCEmitter(kernel, spec, options).run();
}

FixedCResult emit_fixed_c(const Kernel& kernel, const FixedPointSpec& spec) {
    return emit_fixed_c(kernel, spec, FixedCOptions{});
}

}  // namespace slpwlo

#include "flow/report.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "support/diagnostics.hpp"
#include "support/text.hpp"

namespace slpwlo {

double speedup(long long reference_cycles, long long measured_cycles) {
    SLPWLO_CHECK(measured_cycles > 0, "measured cycles must be positive");
    return static_cast<double>(reference_cycles) /
           static_cast<double>(measured_cycles);
}

std::string fingerprint_hex(uint64_t fingerprint) {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return std::string(buffer);
}

std::string summarize(const FlowResult& result) {
    std::ostringstream os;
    os << result.flow_name << " " << result.kernel_name << " @ "
       << result.target_name << "[" << fingerprint_hex(result.target_fp)
       << "] A=" << format_double(result.accuracy_db, 4)
       << "dB: groups=" << result.group_count
       << " scalar=" << result.scalar_cycles
       << " simd=" << result.simd_cycles
       << " noise=" << format_double(result.analytic_noise_db, 4) << "dB";
    return os.str();
}

namespace {

std::map<int, int> wl_counts(const FixedPointSpec& spec) {
    std::map<int, int> counts;
    for (const NodeRef node : spec.nodes()) {
        counts[spec.format(node).wl()]++;
    }
    return counts;
}

}  // namespace

std::string wl_histogram(const FixedPointSpec& spec) {
    std::ostringstream os;
    for (const auto& [wl, count] : wl_counts(spec)) {
        os << "  wl" << wl << ": " << count << " nodes\n";
    }
    return os.str();
}

std::string json_escape(const std::string& text) {
    std::ostringstream os;
    os << '"';
    for (const char c : text) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\r': os << "\\r"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
    return os.str();
}

std::string json_number(double value) {
    if (!std::isfinite(value)) return "null";
    return format_double(value, 10);
}

std::string to_json(const FlowResult& result, bool include_measured) {
    std::ostringstream os;
    os << "{\"flow\":" << json_escape(result.flow_name)
       << ",\"kernel\":" << json_escape(result.kernel_name)
       << ",\"target\":" << json_escape(result.target_name)
       << ",\"target_fingerprint\":\"" << fingerprint_hex(result.target_fp)
       << "\",\"accuracy_db\":" << json_number(result.accuracy_db)
       << ",\"scalar_cycles\":" << result.scalar_cycles
       << ",\"simd_cycles\":" << result.simd_cycles
       << ",\"analytic_noise_db\":" << json_number(result.analytic_noise_db)
       << ",\"groups\":" << result.group_count;

    os << ",\"wl_histogram\":{";
    bool first = true;
    for (const auto& [wl, count] : wl_counts(result.spec)) {
        if (!first) os << ",";
        first = false;
        os << "\"" << wl << "\":" << count;
    }
    os << "}";

    os << ",\"slp\":{\"rounds\":" << result.slp_stats.rounds
       << ",\"candidates\":" << result.slp_stats.candidates_seen
       << ",\"selected\":" << result.slp_stats.selected << "}";
    os << ",\"scaling\":{\"examined\":"
       << result.scaling_stats.reuses_examined
       << ",\"equalized\":" << result.scaling_stats.equalized
       << ",\"reverted\":" << result.scaling_stats.reverted << "}";
    os << ",\"tabu\":{\"iterations\":" << result.tabu_stats.iterations
       << ",\"feasible\":" << (result.tabu_stats.feasible ? "true" : "false")
       << "}";
    if (include_measured) {
        os << ",\"measured_ns\":" << result.measured_ns
           << ",\"sim_noise_db\":" << json_number(result.sim_noise_db);
        // Solver statistics live in the measured-extras region: like
        // measured_ns they are diagnostics, not identity — a wall-clock
        // solver budget would otherwise make report bytes machine-dependent.
        if (result.solver_stats.ran) {
            const SolverStats& sv = result.solver_stats;
            os << ",\"solver\":{\"nodes\":" << sv.nodes
               << ",\"solves\":" << sv.solves << ",\"proven_optimal\":"
               << (sv.proven_optimal ? "true" : "false")
               << ",\"heuristic_objective\":"
               << json_number(sv.heuristic_objective)
               << ",\"best_objective\":" << json_number(sv.best_objective)
               << ",\"gap\":" << json_number(sv.gap) << "}";
        }
        os << ",\"conflicts\":{\"filter_decided\":"
           << result.conflict_stats.filter_decided
           << ",\"probes\":" << result.conflict_stats.probes << "}";
    }
    os << "}";
    return os.str();
}

}  // namespace slpwlo

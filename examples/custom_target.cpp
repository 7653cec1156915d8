// Defining your own processor model as *data*: a hypothetical 2-issue DSP
// described in the textual target-description format, parsed, registered
// in the TargetRegistry next to the built-in ISAs, and swept across SIMD
// datapath widths with TargetModel::with_simd_width — equation (1) with a
// bigger budget: on a 64-bit datapath the FIR taps group 4-wide at 16
// bits without giving up any accuracy relative to the paper's 32-bit
// targets. At 128 bits this DSP's element set has no 2-lane
// configuration (k=2 would need 64-bit lane containers, which MYDSP64
// does not implement — compare the NEON128 preset, which does). The
// paper's pairwise extraction alone could not seed any group there; the
// extractor now seeds k-lane groups straight from adjacent-memory runs
// and fuses pairs through virtual intermediate widths, so the 128-bit
// variant still groups 4-wide (see DESIGN.md "Seeding beyond pairs").
#include <cstdio>

#include "slpwlo.hpp"

using namespace slpwlo;

namespace {

// The same fields examples used to fill in by hand, now a description a
// deployment can ship as a file (see targets/*.target for the shipped
// presets) or serialize back out with target_description().
const char* const kMyDsp = R"(
# hypothetical 2-issue DSP with a 64-bit SIMD datapath and serial shifter
name = MYDSP64
issue_width = 2
alu_slots = 2
mul_slots = 1
mem_slots = 1
alu_latency = 1
mul_latency = 2
mem_latency = 2
barrel_shifter = false        # serial shifter: n-bit shift ~ n cycles
loop_overhead_cycles = 2
native_wl = 32
scalar_wls = 32, 16, 8
simd_width_bits = 64          # twice the paper's targets
simd_element_wls = 32, 16, 8  # 2x32, 4x16, 8x8
op_cost.mul = 1.5             # multiplies priced above ALU ops in WLO
fp.hardware = false
)";

}  // namespace

int main() {
    const TargetModel dsp = parse_target_description(kMyDsp, "mydsp64");
    TargetRegistry::instance().add(dsp);

    std::printf("custom target: %s, %d-bit SIMD, group sizes up to %d\n",
                dsp.name.c_str(), dsp.simd_width_bits, dsp.max_group_size());
    std::printf("registered targets:");
    for (const std::string& name : TargetRegistry::instance().names()) {
        std::printf(" %s", name.c_str());
    }
    std::printf("\n\n");

    // Sweep the registered model across SIMD datapath widths (0 keeps the
    // 64-bit original) — one grid, per-point TargetModel overrides.
    ExecOptions options;
    options.threads = 2;
    SweepDriver driver(options);
    const std::vector<SweepResult> results = driver.run(SweepDriver::grid(
        {"FIR"}, {"MYDSP64"}, {32, 0, 128}, {"WLO-SLP"},
        {-10.0, -30.0, -50.0}));

    std::printf("%-16s %6s %8s %12s %12s %8s %8s\n", "target", "simd",
                "A(dB)", "simd-cyc", "scalar-cyc", "groups", "widest");
    for (const SweepResult& r : results) {
        int widest = 0;
        for (const BlockGroups& bg : r.flow.groups) {
            for (const SimdGroup& g : bg.groups) {
                widest = std::max(widest, g.width());
            }
        }
        std::printf("%-16s %6d %8.0f %12lld %12lld %8d %8d\n",
                    r.flow.target_name.c_str(),
                    r.point.target_model->simd_width_bits,
                    r.flow.accuracy_db, r.flow.simd_cycles,
                    r.flow.scalar_cycles, r.flow.group_count, widest);
    }
    std::printf("\nequation (1): k lanes of m bits need k*m = datapath "
                "width. The 64-bit\ndatapath groups the FIR taps 4-wide at "
                "16 bits. At 128 bits MYDSP64 has\nno 64-bit lane "
                "containers, so no k=2 configuration exists and pairwise\n"
                "fusion alone could never seed a group; k-lane run seeding "
                "plus\nvirtual-width fusion still form 4-wide groups there "
                "(smallest\nconfiguration: 4x32), so the wider datapath "
                "keeps paying off instead\nof silently degrading to scalar "
                "code.\n");
    return 0;
}

// The simulation-backend axis of the flow: which engine executes
// simulation-backed noise measurement (measured_noise_db, benches, the
// `--evaluator` sweep axis).
//
// Both backends are bit-identical by contract — the compiled path matches
// the tape (see DESIGN.md §12) — so the axis trades nothing but speed:
// Tape is the interpreted path, Compiled the native one. Compiled degrades
// to Tape at runtime when no host compiler is usable, which keeps reports
// byte-identical by construction. The original tree walker is not on the
// axis; it survives as a test oracle (WalkerEvaluator, run_*_walker).
#pragma once

#include <string>

#include "support/diagnostics.hpp"

namespace slpwlo {

enum class SimBackend {
    Tape,      ///< SimTape interpretation (default)
    Compiled,  ///< emit + compile + execute (src/exec)
};

inline std::string to_string(SimBackend backend) {
    switch (backend) {
        case SimBackend::Tape: return "tape";
        case SimBackend::Compiled: return "compiled";
    }
    return "tape";
}

inline SimBackend parse_sim_backend(const std::string& text) {
    if (text == "tape") return SimBackend::Tape;
    if (text == "compiled") return SimBackend::Compiled;
    throw Error("unknown evaluator backend `" + text +
                "` (expected compiled, tape)");
}

}  // namespace slpwlo

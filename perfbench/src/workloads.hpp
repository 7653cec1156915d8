// The four workloads. Each runs in its own process, sets itself up
// several times (set-up is timed), computes its 1-thread in-process
// reference, then measures closed-loop repetitions for the requested
// seconds and fills `result` with the metrics of the current mode.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// FIR, IIR and CONV x four targets x WLO-First/WLO-SLP x 14 constraints,
/// plus Float per kernel and target (348 points). Seed-independent.
void run_paper(const Args& args, Result& result);

/// The checked-in `.slp` corpus plus seeded generated friendly and
/// SLP-hostile kernels, x XENTIUM/VEX-4 x both flows x 6 constraints,
/// with kernel sources embedded in the points.
void run_corpus(const Args& args, Result& result);

/// WLO-Optimal and SLP-Optimal on the four built-in kernels at -30 dB.
/// Seed-independent.
void run_exact(const Args& args, Result& result);

/// A loopback FarmServer and two single-threaded farm workers over DOT
/// plus five small corpus kernels x every registered target x both flows
/// x 14 constraints, 8 slots per chunk, then a splice re-submit of the
/// grid plus one constraint. Seed-independent.
void run_farm(const Args& args, Result& result);

}  // namespace perfbench

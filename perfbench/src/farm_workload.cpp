// The farm workload: a FarmServer on an ephemeral loopback port, served
// from its own thread, and single-threaded run_farm_worker threads, all
// in this one process. Each repetition uses a fresh daemon (so the job
// board does not grow with the repetition count): submit the whole grid
// in kChunkSlots-slot chunks, drain it, fetch the finalized report; then
// re-submit the grid plus one constraint with the first job's rows for
// splicing, drain and fetch again. Every client connection is closed
// before the workers connect, so at most 2 x workers connections (RPC
// plus heartbeat) are open at once.
#include <algorithm>
#include <numeric>
#include <thread>

#include "dist/shard_manifest.hpp"
#include "dist/shard_merger.hpp"
#include "farm/farm_client.hpp"
#include "farm/farm_server.hpp"
#include "frontend/kernel_file.hpp"
#include "target/target_registry.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace slpwlo;

namespace {

/// Slots per chunk. With one slot per chunk the farm measured mostly the
/// wake-up latency between threads, and on a shared 4-vCPU host its
/// throughput fell threefold in busy periods (about 1000 against 2900
/// points/s within one series of runs). Eight slots still pay a round
/// trip, a board update and a merge per chunk, 168 times per job.
constexpr const char* kChunkSlots = "8";

struct FarmGrid {
    std::vector<SweepPoint> points;  ///< target models and sources embedded
    std::string manifest;            ///< whole-grid manifest text
};

struct FarmSetup {
    FarmGrid grid;
    FarmGrid extended;  ///< the grid plus one constraint
    double compile_s = 0.0;
    double manifest_s = 0.0;
};

FarmGrid make_farm_grid(const std::vector<std::string>& kernels,
                        const std::vector<double>& constraints) {
    const std::vector<dist::ShardPlan> plans = dist::make_shard_plans(
        SweepDriver::grid(kernels, TargetRegistry::instance().names(),
                          {"WLO-First", "WLO-SLP"}, constraints),
        1);
    return {plans.front().points, dist::shard_manifest_text(plans.front())};
}

FarmSetup farm_setup() {
    FarmSetup setup;
    Clock::time_point start = Clock::now();
    std::vector<std::string> kernels = {"DOT"};
    for (const char* file : {"dotprod", "fft4", "fir8", "matmul4", "memcpy2"}) {
        kernels.push_back(frontend::register_kernel_file(
            std::string("kernels/") + file + ".slp"));
    }
    setup.compile_s = seconds_since(start);

    start = Clock::now();
    std::vector<double> constraints = accuracy_grid(-5.0, -70.0, 5.0);
    setup.grid = make_farm_grid(kernels, constraints);
    constraints.push_back(-75.0);
    setup.extended = make_farm_grid(kernels, constraints);
    setup.manifest_s = seconds_since(start);
    return setup;
}

farm::ServerOptions server_options() {
    farm::ServerOptions options;
    options.port = 0;  // ephemeral
    options.tick_ms = 20;
    return options;
}

/// A FarmServer serving on its own thread for the object's lifetime.
class LoopbackFarm {
public:
    LoopbackFarm()
        : server_(server_options()), thread_([this] { serve(); }) {}

    ~LoopbackFarm() {
        server_.stop();
        thread_.join();
    }

    LoopbackFarm(const LoopbackFarm&) = delete;
    LoopbackFarm& operator=(const LoopbackFarm&) = delete;

    int port() const { return server_.port(); }

    /// One request on a connection of its own, closed before returning.
    farm::Message call(const std::string& verb,
                       const std::map<std::string, std::string>& fields,
                       const std::string& body = "") {
        farm::FarmClient client("127.0.0.1", port());
        farm::Message request;
        request.verb = verb;
        for (const auto& [key, value] : fields) request.fields[key] = value;
        request.body = body;
        return client.call(request);
    }

private:
    void serve() {
        try {
            server_.run();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: farm daemon stopped: %s\n",
                         e.what());
        }
    }

    farm::FarmServer server_;
    std::thread thread_;  ///< declared last: starts after server_ exists
};

/// Drain every submitted job with `workers` single-threaded farm workers;
/// false when any worker failed.
bool drain(const LoopbackFarm& farm, int workers) {
    std::vector<std::thread> threads;
    std::vector<char> ok(static_cast<size_t>(workers), 1);
    for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&farm, &ok, w] {
            try {
                farm::FarmWorkerOptions options;
                options.worker = "worker" + std::to_string(w);
                options.poll_ms = 1;
                options.exec.threads = 1;
                farm::run_farm_worker("127.0.0.1", farm.port(), options);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: farm worker failed: %s\n",
                             e.what());
                ok[static_cast<size_t>(w)] = 0;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

/// A whole-number field of the daemon's status JSON ("key": N), first
/// occurrence.
double status_field(const std::string& status, const std::string& key) {
    const size_t at = status.find("\"" + key + "\": ");
    if (at == std::string::npos) return 0.0;
    return std::stod(status.substr(at + key.size() + 4));
}

struct FarmRep {
    double cold_s = 0.0;
    double submit_s = 0.0;
    double warm_s = 0.0;
    double resubmit_s = 0.0;
    std::string report;
    std::string rows;
    std::string warm_report;
    std::string status;
};

/// One repetition on a fresh daemon; `splice` adds the re-submit phase.
/// A daemon or worker failure leaves the reports empty (every row then
/// fails the check).
FarmRep farm_repetition(const FarmSetup& setup, int workers, bool splice) {
    FarmRep rep;
    LoopbackFarm farm;
    try {
        Clock::time_point start = Clock::now();
        const std::string job =
            std::to_string(farm.call("submit", {{"chunk_slots", kChunkSlots}},
                                     setup.grid.manifest)
                               .require_ll("job"));
        rep.submit_s = seconds_since(start);
        if (!drain(farm, workers)) return rep;
        rep.report = farm.call("report", {{"job", job}}).body;
        rep.cold_s = seconds_since(start);

        rep.rows = farm.call("rows", {{"job", job}}).body;
        if (splice) {
            start = Clock::now();
            const std::string warm_job = std::to_string(
                farm.call("submit",
                          {{"chunk_slots", kChunkSlots},
                           {"splice_bytes", std::to_string(rep.rows.size())}},
                          setup.extended.manifest + rep.rows)
                    .require_ll("job"));
            rep.resubmit_s = seconds_since(start);
            if (!drain(farm, workers)) return rep;
            rep.warm_report = farm.call("report", {{"job", warm_job}}).body;
            rep.warm_s = seconds_since(start);
        }
        rep.status = farm.call("status", {}).body;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: farm repetition failed: %s\n",
                     e.what());
    }
    return rep;
}

}  // namespace

void run_farm(const Args& args, Result& result) {
    const int workers = std::max(1, std::min(2, available_cpus() / 2));

    // Set-up: kernels, grids and manifests, and binding the daemon.
    std::vector<double> setup_s, compile_s, manifest_s;
    const auto set_up = [&](FarmSetup& out) {
        out = farm_setup();
        const farm::FarmServer bound(server_options());
        compile_s.push_back(out.compile_s);
        manifest_s.push_back(out.manifest_s);
    };
    FarmSetup setup;
    sample_setup(setup_s, [&] { set_up(setup); });
    const double points = static_cast<double>(setup.grid.points.size());
    const double extended_points =
        static_cast<double>(setup.extended.points.size());

    // References: 1-thread in-process sweeps of both grids.
    ExecOptions serial;
    serial.threads = 1;
    SweepDriver reference_driver(serial);
    const SweepRun reference = run_sweep(reference_driver, setup.grid.points);
    const std::vector<std::string> reference_rows = rows_of(reference);
    result.tally(setup.grid.points.size(), reference.thrown);
    std::vector<std::string> extended_rows;
    {
        SweepDriver driver(serial);
        const SweepRun run = run_sweep(driver, setup.extended.points);
        extended_rows = rows_of(run);
        result.tally(setup.extended.points.size(), run.thrown);
    }
    const double reference_busy_s =
        static_cast<double>(std::accumulate(reference.micros.begin(),
                                            reference.micros.end(), 0LL)) *
        1e-6;

    const auto check = [&](const std::vector<std::string>& want,
                           const std::string& report, const char* what) {
        const size_t mismatches = row_mismatches(want, report_rows(report));
        result.tally(want.size(), mismatches);
        result.require(mismatches == 0, std::string(what) +
                                            " farm report equals the "
                                            "in-process bytes");
    };

    std::vector<double> cold_s, warm_s, submit_s, resubmit_s, slowest_s,
        busy_ratio;
    FarmRep last;
    repeat_for(args.trace ? args.seconds / 2 : args.seconds, [&] {
        FarmSetup again;
        sample_setup(setup_s, [&] { set_up(again); });
        last = farm_repetition(setup, workers, /*splice=*/true);
        check(reference_rows, last.report, "cold");
        check(extended_rows, last.warm_report, "spliced");
        if (!last.warm_report.empty()) {  // the repetition completed
            // Per-slot wall clock as the workers measured it.
            long long max_micros = 0;
            long long sum_micros = 0;
            for (const dist::ShardRow& row :
                 dist::parse_shard_results(last.rows, "farm rows").rows) {
                max_micros = std::max(max_micros, row.micros);
                sum_micros += row.micros;
            }
            cold_s.push_back(last.cold_s);
            warm_s.push_back(last.warm_s);
            submit_s.push_back(last.submit_s);
            resubmit_s.push_back(last.resubmit_s);
            slowest_s.push_back(static_cast<double>(max_micros) * 1e-6);
            busy_ratio.push_back(static_cast<double>(sum_micros) * 1e-6 /
                                 (workers * last.cold_s));
        }
    });

    log_sample("cold", cold_s);
    log_sample("spliced", warm_s);
    const SimCheck sim = check_simulation(reference_driver, reference);

    if (!args.trace) {
        result.set("points_per_s", points / median(cold_s));
        result.set("warm_points_per_s", extended_points / median(warm_s));
        result.set("setup_s", median(setup_s));
        result.set("peak_rss_mb", peak_rss_mb());
        result.set("sim_violation_ratio", violation_ratio(sim));
        result.set("speedup_geomean",
                   speedup_geomean(reference, "WLO-First", "WLO-SLP"));
        result.set("proven_ratio", proven_ratio(reference));
        return;
    }

    const std::vector<double> traced_s = traced_phase(
        setup.grid.points, reference_rows, args.seconds / 2,
        [&] {
            const FarmRep rep =
                farm_repetition(setup, workers, /*splice=*/false);
            check(reference_rows, rep.report, "traced");
            return rep.cold_s;
        },
        result);
    result.set("trace.overhead_ratio", median(cold_s) / median(traced_s));
    report_preparation(setup.grid.points, result);
    report_counters(reference, result);
    result.set("flow.slowest_point_s", median(slowest_s));
    result.set("flow.thread_busy_ratio", median(busy_ratio));
    const double chunks = status_field(last.status, "chunks");
    result.set("frontend.compile_s", median(compile_s));
    result.set("dist.manifest_s", median(manifest_s));
    result.set("dist.manifest_bytes",
               static_cast<double>(setup.grid.manifest.size()));
    result.set("dist.rows_bytes", static_cast<double>(last.rows.size()));
    result.set("farm.submit_s", median(submit_s));
    result.set("farm.resubmit_s", median(resubmit_s));
    result.set("farm.chunks", chunks);
    result.set("farm.reissues", status_field(last.status, "reissues"));
    if (chunks > 0) {
        result.set("farm.overhead_per_chunk_ms",
                   (workers * median(cold_s) - reference_busy_s) / chunks *
                       1e3);
    }
    result.set("sim.check_s", sim.seconds);
}

}  // namespace perfbench

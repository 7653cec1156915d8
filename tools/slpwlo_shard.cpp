// slpwlo-shard — design-space sweeps from the command line.
//
// Turns any SweepDriver grid into a self-contained whole-grid manifest,
// runs it in this process (`run`), or distributes it through a farm
// daemon (daemon/submit/work/merge --connect): chunks are handed out on
// demand, a straggling or killed worker's chunks are re-issued, and the
// daemon's streamed merge is byte-identical to the local `run` report.
//
//   slpwlo-shard plan  --out FILE --kernels A,B --targets X,Y
//                      [--widths 0,64] [--flows F,G]
//                      [--constraints -20,-30] [--target-file FILE]...
//   slpwlo-shard run   --manifest FILE --out FILE [--threads N]
//                      [--measure]
//
// The flow names pick heuristic or exact search: `--flows
// WLO-SLP,SLP-Optimal` sweeps both sides of the gap in one grid.
// `--measure` (on `run` and `work`) makes this process time the compiled
// kernel body and simulate the final spec of each point it runs
// (compiled when a host compiler is usable, on the bit-identical tape
// otherwise). It is not part of the manifest, so it never changes a
// single result byte; every outcome-changing option comes from the
// manifest alone.
//
// The same grid across machines, through a long-lived socket daemon —
// workers connect over TCP, completed rows stream into an online merge
// and the report is ready the instant the last slot lands (DESIGN.md
// §15; one command per line):
//
//   $ slpwlo-shard plan --kernels FIR,IIR,CONV --targets XENTIUM
//       --flows WLO-SLP,WLO-First --constraints -30,-40,-50 --out grid.manifest
//   $ slpwlo-shard daemon --listen 7477 &
//   $ slpwlo-shard submit --connect :7477 --manifest grid.manifest
//   ... on each worker machine ...
//   $ slpwlo-shard work --connect coordinator:7477
//   $ slpwlo-shard status --connect :7477          # live JSON
//   $ slpwlo-shard merge --connect :7477 --job 0 --out sweep.json
//
// Incremental re-sweeps: `merge --connect ... --rows-out sweep.rows`
// keeps the per-slot rows; after the grid changes, `submit --splice-from
// sweep.rows` re-uses every slot whose point fingerprint is unchanged, so
// only the changed slots are re-run.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "dist/shard_manifest.hpp"
#include "dist/shard_plan.hpp"
#include "farm/farm_client.hpp"
#include "farm/farm_server.hpp"
#include "frontend/kernel_file.hpp"
#include "support/diagnostics.hpp"
#include "target/target_desc.hpp"
#include "target/target_registry.hpp"

using namespace slpwlo;
using namespace slpwlo::dist;

namespace {

void usage(FILE* out) {
    std::fprintf(
        out,
        "usage:\n"
        "  slpwlo-shard plan  --out FILE --kernels A,B\n"
        "                     --targets X,Y [--widths 0,64] [--flows F,G]\n"
        "                     [--constraints -20,-30]\n"
        "                     [--target-file FILE]...\n"
        "                     [--kernel-file FILE]... [--corpus DIR]...\n"
        "                     write the grid as one whole-grid manifest;\n"
        "                     name SLP-Optimal / WLO-Optimal in --flows\n"
        "                     for exact search;\n"
        "                     --kernel-file / --corpus register .slp DSL\n"
        "                     kernels (corpus names join the kernel axis;\n"
        "                     manifests embed their source)\n"
        "  slpwlo-shard run   --manifest FILE --out FILE [--threads N]\n"
        "                     [--measure]\n"
        "                     sweep the manifest in this process and write\n"
        "                     the report (the bytes a farm job returns)\n"
        "  slpwlo-shard work  --connect HOST:PORT [--worker ID]\n"
        "                     [--heartbeat-ms T] [--poll-ms T] [--threads N]\n"
        "                     [--straggle-ms T] [--measure]\n"
        "                     drain a farm daemon's jobs over TCP; missed\n"
        "                     heartbeats expire this worker's chunks for\n"
        "                     re-issue\n"
        "  slpwlo-shard merge --connect HOST:PORT --job N --out FILE\n"
        "                     [--rows-out FILE]\n"
        "                     fetch a finalized farm job's streamed report\n"
        "                     (byte-identical to the 1-process sweep);\n"
        "                     --rows-out keeps per-slot rows for later\n"
        "                     submit --splice-from re-sweeps\n"
        "  slpwlo-shard daemon --listen PORT [--ttl-ms T] [--tick-ms T]\n"
        "                     [--all-interfaces]\n"
        "                     serve the farm protocol until shutdown: jobs\n"
        "                     are submitted over the socket, rows stream\n"
        "                     into per-job merges, heartbeat expiry\n"
        "                     re-issues chunks (port 0 = ephemeral)\n"
        "  slpwlo-shard submit --connect HOST:PORT --manifest FILE\n"
        "                     [--chunk-cost C] [--chunk-slots N]\n"
        "                     [--splice-from ROWS]\n"
        "                     enqueue a whole-grid manifest as a farm job;\n"
        "                     --splice-from pre-fills unchanged slots from\n"
        "                     a previous run's rows file\n"
        "  slpwlo-shard status --connect HOST:PORT\n"
        "                     print the daemon's live status JSON\n"
        "  slpwlo-shard shutdown --connect HOST:PORT\n"
        "                     stop the daemon\n");
}

[[noreturn]] void bad_usage(const std::string& message) {
    std::fprintf(stderr, "slpwlo-shard: %s\n", message.c_str());
    usage(stderr);
    std::exit(2);
}

/// Strict numeric flag parsing: a typo must abort with a usage message,
/// never plan the wrong grid (atoi's silent 0) or std::terminate.
int int_flag(const std::string& flag, const std::string& value) {
    try {
        size_t pos = 0;
        const int parsed = std::stoi(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        bad_usage(flag + ": not an integer: `" + value + "`");
    }
}

/// A count flag (a cache bound, a chunk size): negative is a usage error,
/// never a wrapped SIZE_MAX or a silently ignored value.
size_t count_flag(const std::string& flag, const std::string& value) {
    const int parsed = int_flag(flag, value);
    if (parsed < 0) bad_usage(flag + ": must be >= 0, got `" + value + "`");
    return static_cast<size_t>(parsed);
}

double double_flag(const std::string& flag, const std::string& value) {
    try {
        size_t pos = 0;
        const double parsed = std::stod(value, &pos);
        if (pos != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        bad_usage(flag + ": not a number: `" + value + "`");
    }
}

std::vector<std::string> split_list(const std::string& text) {
    std::vector<std::string> out;
    std::string item;
    for (const char c : text) {
        if (c == ',') {
            if (!item.empty()) out.push_back(item);
            item.clear();
        } else {
            item += c;
        }
    }
    if (!item.empty()) out.push_back(item);
    return out;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot read `" + path + "`");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof()) throw Error("cannot read `" + path + "`");
    return text;
}

void write_file(const std::string& path, const std::string& text) {
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    out << text;
    out.flush();
    if (!out.good()) throw Error("cannot write `" + path + "`");
}

/// A tiny argv cursor shared by the subcommands.
class Args {
public:
    Args(int argc, char** argv, int from) : argc_(argc), argv_(argv), i_(from) {}
    bool next(std::string& arg) {
        if (i_ >= argc_) return false;
        arg = argv_[i_++];
        return true;
    }
    std::string value(const std::string& flag) {
        if (i_ >= argc_) bad_usage(flag + " needs a value");
        return argv_[i_++];
    }

private:
    int argc_;
    char** argv_;
    int i_;
};

int cmd_plan(Args args) {
    std::string out_path;
    std::vector<std::string> kernels, target_names, flows{"WLO-SLP"};
    std::vector<int> widths;
    bool has_widths = false;
    std::vector<double> constraints{-40.0};
    bool has_constraints = false;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--kernels") {
            kernels = split_list(args.value(arg));
        } else if (arg == "--targets") {
            target_names = split_list(args.value(arg));
        } else if (arg == "--flows") {
            flows = split_list(args.value(arg));
        } else if (arg == "--widths") {
            has_widths = true;
            for (const std::string& w : split_list(args.value(arg))) {
                widths.push_back(int_flag(arg, w));
            }
        } else if (arg == "--constraints") {
            has_constraints = true;
            constraints.clear();
            for (const std::string& c : split_list(args.value(arg))) {
                constraints.push_back(double_flag(arg, c));
            }
        } else if (arg == "--target-file") {
            TargetRegistry::instance().add(
                load_target_description(args.value(arg)));
        } else if (arg == "--kernel-file") {
            // Register the file's kernel so --kernels can name it; unlike
            // --corpus it does not join the axis by itself.
            frontend::register_kernel_file(args.value(arg));
        } else if (arg == "--corpus") {
            // Every kernel in the directory joins the kernel axis (sorted
            // by filename, so grids are deterministic).
            for (std::string& name :
                 frontend::load_kernel_corpus(args.value(arg))) {
                kernels.push_back(std::move(name));
            }
        } else {
            bad_usage("unknown plan flag `" + arg + "`");
        }
    }
    if (out_path.empty()) bad_usage("plan needs --out");
    if (kernels.empty()) bad_usage("plan needs --kernels or --corpus");
    if (target_names.empty()) bad_usage("plan needs --targets");
    if (!has_constraints) {
        std::printf("using default constraint grid: -40 dB\n");
    }

    const std::vector<SweepPoint> grid =
        has_widths ? SweepDriver::grid(kernels, target_names, widths, flows,
                                       constraints)
                   : SweepDriver::grid(kernels, target_names, flows,
                                       constraints);
    const ShardPlan plan = make_shard_plans(grid, 1).front();
    write_file(out_path, shard_manifest_text(plan));
    std::printf("grid: %zu points -> %s\n", grid.size(), out_path.c_str());
    return 0;
}

int cmd_run(Args args) {
    std::string manifest_path, out_path;
    ExecOptions options;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--manifest") {
            manifest_path = args.value(arg);
        } else if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--threads") {
            options.threads = int_flag(arg, args.value(arg));
        } else if (arg == "--measure") {
            options.measure = true;
        } else {
            bad_usage("unknown run flag `" + arg + "`");
        }
    }
    if (manifest_path.empty()) bad_usage("run needs --manifest");
    if (out_path.empty()) bad_usage("run needs --out");

    const ShardManifest manifest = load_shard_manifest(manifest_path);
    require_whole_grid(manifest, manifest_path);
    options.flow_options = manifest.defaults;

    SweepDriver driver(options);
    write_file(out_path, sweep_to_json(driver.run(manifest.points)));
    const SweepCacheStats stats = driver.cache_stats();
    std::printf("%zu points -> %s (eval cache: %zu hits / %zu misses, %zu "
                "entries)\n",
                manifest.points.size(), out_path.c_str(), stats.eval_hits,
                stats.eval_misses, stats.eval_entries);
    return 0;
}

int cmd_work(Args args) {
    std::string connect;
    farm::FarmWorkerOptions options;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else if (arg == "--worker") {
            options.worker = args.value(arg);
        } else if (arg == "--heartbeat-ms") {
            options.heartbeat_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--poll-ms") {
            options.poll_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--threads") {
            options.exec.threads = int_flag(arg, args.value(arg));
        } else if (arg == "--straggle-ms") {
            // Test hook: hold every chunk this long before completing it,
            // to exercise expiry, re-issue and duplicate resolution.
            options.straggle_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--measure") {
            options.exec.measure = true;
        } else {
            bad_usage("unknown work flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("work needs --connect HOST:PORT");

    // The daemon owns chunking and the merge; the worker is just the
    // drain loop over a socket.
    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    if (options.worker.empty()) {
        // Appended, not `"w" + ...`: gcc 12 misreports that under
        // -Wrestrict.
        options.worker = "w";
        options.worker += std::to_string(::getpid());
    }
    const size_t executed = farm::run_farm_worker(host, port, options);
    std::printf("worker %s drained farm %s: %zu slots run here\n",
                options.worker.c_str(), connect.c_str(), executed);
    return 0;
}

int cmd_merge(Args args) {
    std::string out_path, connect, rows_out;
    long long job = -1;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--out") {
            out_path = args.value(arg);
        } else if (arg == "--connect") {
            connect = args.value(arg);
        } else if (arg == "--job") {
            job = int_flag(arg, args.value(arg));
        } else if (arg == "--rows-out") {
            rows_out = args.value(arg);
        } else {
            bad_usage("unknown merge argument `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("merge needs --connect HOST:PORT");
    if (job < 0) bad_usage("merge needs --job N");
    if (out_path.empty()) bad_usage("merge needs --out");

    // Fetch the daemon's streamed merge of one job.
    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);
    farm::Message request;
    request.verb = "report";
    request.fields["job"] = std::to_string(job);
    write_file(out_path, client.call(request).body);
    std::printf("farm %s job %lld report -> %s\n", connect.c_str(), job,
                out_path.c_str());
    if (!rows_out.empty()) {
        request.verb = "rows";
        write_file(rows_out, client.call(request).body);
        std::printf("farm %s job %lld rows -> %s\n", connect.c_str(), job,
                    rows_out.c_str());
    }
    return 0;
}

int cmd_daemon(Args args) {
    farm::ServerOptions options;
    bool has_listen = false;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--listen") {
            options.port = int_flag(arg, args.value(arg));
            has_listen = true;
        } else if (arg == "--ttl-ms") {
            options.ttl_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--tick-ms") {
            options.tick_ms = int_flag(arg, args.value(arg));
        } else if (arg == "--all-interfaces") {
            options.all_interfaces = true;
        } else {
            bad_usage("unknown daemon flag `" + arg + "`");
        }
    }
    if (!has_listen) bad_usage("daemon needs --listen PORT (0 = ephemeral)");

    farm::FarmServer server(options);
    // The port line goes out before serving (and unbuffered) so scripts
    // launching `daemon --listen 0 &` can scrape the ephemeral port.
    std::printf("farm daemon listening on %s:%d (ttl %lld ms, tick %lld ms)\n",
                options.all_interfaces ? "0.0.0.0" : "127.0.0.1",
                server.port(), options.ttl_ms, options.tick_ms);
    std::fflush(stdout);
    server.run();
    std::printf("farm daemon on port %d shut down\n", server.port());
    return 0;
}

int cmd_submit(Args args) {
    std::string connect, manifest_path, splice_path;
    double chunk_cost = 0.0;
    size_t chunk_slots = 0;

    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else if (arg == "--manifest") {
            manifest_path = args.value(arg);
        } else if (arg == "--chunk-cost") {
            chunk_cost = double_flag(arg, args.value(arg));
        } else if (arg == "--chunk-slots") {
            chunk_slots = count_flag(arg, args.value(arg));
        } else if (arg == "--splice-from") {
            splice_path = args.value(arg);
        } else {
            bad_usage("unknown submit flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("submit needs --connect HOST:PORT");
    if (manifest_path.empty()) bad_usage("submit needs --manifest");

    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);

    const farm::Message response = client.call(farm::submit_request(
        read_file(manifest_path), chunk_cost, chunk_slots,
        splice_path.empty() ? "" : read_file(splice_path)));
    std::printf("farm %s: job %s submitted (%s slots spliced from previous "
                "run)\n",
                connect.c_str(), response.require_field("job").c_str(),
                response.require_field("spliced").c_str());
    return 0;
}

int cmd_status(Args args) {
    std::string connect;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else {
            bad_usage("unknown status flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("status needs --connect HOST:PORT");

    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);
    farm::Message request;
    request.verb = "status";
    std::fputs(client.call(request).body.c_str(), stdout);
    return 0;
}

int cmd_shutdown(Args args) {
    std::string connect;
    std::string arg;
    while (args.next(arg)) {
        if (arg == "--connect") {
            connect = args.value(arg);
        } else {
            bad_usage("unknown shutdown flag `" + arg + "`");
        }
    }
    if (connect.empty()) bad_usage("shutdown needs --connect HOST:PORT");

    std::string host;
    int port = 0;
    farm::parse_endpoint(connect, host, port);
    farm::FarmClient client(host, port);
    farm::Message request;
    request.verb = "shutdown";
    client.call(request);
    std::printf("farm %s shutting down\n", connect.c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "plan") return cmd_plan(Args(argc, argv, 2));
        if (command == "run") return cmd_run(Args(argc, argv, 2));
        if (command == "work") return cmd_work(Args(argc, argv, 2));
        if (command == "merge") return cmd_merge(Args(argc, argv, 2));
        if (command == "daemon") return cmd_daemon(Args(argc, argv, 2));
        if (command == "submit") return cmd_submit(Args(argc, argv, 2));
        if (command == "status") return cmd_status(Args(argc, argv, 2));
        if (command == "shutdown") return cmd_shutdown(Args(argc, argv, 2));
        if (command == "--help" || command == "-h") {
            usage(stdout);
            return 0;
        }
        // Same convention as targets::by_name: an unknown name lists
        // every valid spelling (sorted).
        bad_usage("unknown command `" + command +
                  "`; known: daemon, merge, plan, run, shutdown, status, "
                  "submit, work");
    } catch (const Error& e) {
        std::fprintf(stderr, "slpwlo-shard: %s\n", e.what());
        return 1;
    }
}

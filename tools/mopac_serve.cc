/**
 * @file
 * mopac_serve: the sweep-service daemon CLI.
 *
 * Starts a Daemon on a Unix-domain socket with a persistent state
 * directory, serving sweep jobs on supervised forked workers (see
 * src/serve/daemon.hh for the architecture and EXPERIMENTS.md,
 * "Running sweeps as a service", for the operational guide).
 *
 * Exit codes follow the shared map in sim/stop.hh: 0 when the daemon
 * stopped with every known job complete/degraded, 75 when pending
 * work remains (restart with the same --state to resume).
 *
 * The --chaos-* flags exist for the self-tests: they make the
 * supervisor SIGKILL/SIGSTOP its own workers at deterministic
 * per-(point, attempt) rates, proving the sweep still converges to
 * the bit-identical manifest.  The --fault-* flags likewise install
 * the deterministic syscall fault shim (serve/io.hh) in the daemon
 * process, injecting ENOSPC/EMFILE/EINTR/short writes so the
 * pressure smokes can rehearse brownout without a real full disk.
 */

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hh"
#include "serve/daemon.hh"
#include "serve/io.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

[[noreturn]] void
usage(int code)
{
    std::puts(
        "usage: mopac_serve --socket PATH --state DIR [options]\n"
        "\n"
        "  --socket PATH        Unix-domain socket to listen on\n"
        "  --state DIR          state directory (jobs, result "
        "store, lock)\n"
        "  --workers N          worker processes (default 2; 0 = nproc)\n"
        "  --max-strikes N      quarantine a point after N worker "
        "deaths (default 3)\n"
        "  --hang-timeout SEC   per-point deadline before a busy "
        "worker is hang-killed (default 300)\n"
        "  --heartbeat SEC      idle worker heartbeat period "
        "(default 0.5)\n"
        "  --checkpoint-every N checkpoint running points every N "
        "cycles (0 = off)\n"
        "  --queue-depth N      shed NEW submissions past N active "
        "jobs (0 = unbounded)\n"
        "  --cache-budget B     result-store size budget, bytes "
        "(0 = unbounded)\n"
        "  --chaos-kill-rate P  [test] P(SIGKILL worker per point "
        "start)\n"
        "  --chaos-stop-rate P  [test] P(SIGSTOP instead)\n"
        "  --chaos-seed N       [test] chaos decision stream seed\n"
        "  --fault-enospc-rate P    [test] P(injected ENOSPC per "
        "durable write)\n"
        "  --fault-emfile-rate P    [test] P(injected EMFILE per "
        "accept)\n"
        "  --fault-eintr-rate P     [test] P(injected EINTR per "
        "read/write)\n"
        "  --fault-short-rate P     [test] P(short write per "
        "write)\n"
        "  --fault-seed N           [test] fault decision stream "
        "seed\n");
    std::exit(code);
}

double
parseNonNegative(const char *flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0' || v < 0.0) {
        fatal("{} expects a non-negative number, got '{}'", flag,
              text);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonOptions opts;
    opts.sweep.jobs = 2;
    IoFaultConfig faults;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                fatal("{} requires a value", flag);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            opts.socket_path = value("--socket");
        } else if (arg == "--state") {
            opts.state_dir = value("--state");
        } else if (arg == "--workers") {
            opts.sweep.jobs = static_cast<unsigned>(
                parseNonNegative("--workers", value("--workers")));
        } else if (arg == "--max-strikes") {
            opts.supervision.max_strikes =
                static_cast<unsigned>(parseNonNegative(
                    "--max-strikes", value("--max-strikes")));
        } else if (arg == "--hang-timeout") {
            opts.supervision.hang_timeout_sec = parseNonNegative(
                "--hang-timeout", value("--hang-timeout"));
        } else if (arg == "--heartbeat") {
            opts.supervision.heartbeat_sec = parseNonNegative(
                "--heartbeat", value("--heartbeat"));
        } else if (arg == "--chaos-kill-rate") {
            opts.supervision.chaos_kill_rate = parseNonNegative(
                "--chaos-kill-rate", value("--chaos-kill-rate"));
        } else if (arg == "--chaos-stop-rate") {
            opts.supervision.chaos_stop_rate = parseNonNegative(
                "--chaos-stop-rate", value("--chaos-stop-rate"));
        } else if (arg == "--chaos-seed") {
            opts.supervision.chaos_seed = std::strtoull(
                value("--chaos-seed").c_str(), nullptr, 0);
        } else if (arg == "--checkpoint-every") {
            opts.supervision.checkpoint_every =
                static_cast<std::uint64_t>(parseNonNegative(
                    "--checkpoint-every", value("--checkpoint-every")));
        } else if (arg == "--queue-depth") {
            opts.queue_depth = static_cast<std::uint64_t>(
                parseNonNegative("--queue-depth",
                                 value("--queue-depth")));
        } else if (arg == "--cache-budget") {
            opts.cache_budget = static_cast<std::uint64_t>(
                parseNonNegative("--cache-budget",
                                 value("--cache-budget")));
        } else if (arg == "--fault-enospc-rate") {
            faults.enospc_rate = parseNonNegative(
                "--fault-enospc-rate", value("--fault-enospc-rate"));
        } else if (arg == "--fault-emfile-rate") {
            faults.emfile_rate = parseNonNegative(
                "--fault-emfile-rate", value("--fault-emfile-rate"));
        } else if (arg == "--fault-eintr-rate") {
            faults.eintr_rate = parseNonNegative(
                "--fault-eintr-rate", value("--fault-eintr-rate"));
        } else if (arg == "--fault-short-rate") {
            faults.short_write_rate = parseNonNegative(
                "--fault-short-rate", value("--fault-short-rate"));
        } else if (arg == "--fault-seed") {
            faults.seed = std::strtoull(
                value("--fault-seed").c_str(), nullptr, 0);
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            fatal("unknown argument '{}'", arg);
        }
    }
    if (opts.socket_path.empty() || opts.state_dir.empty()) {
        usage(2);
    }
    if (faults.enospc_rate > 0.0 || faults.emfile_rate > 0.0 ||
        faults.eintr_rate > 0.0 || faults.short_write_rate > 0.0) {
        warn("mopac_serve: fault shim armed (test mode)");
        setIoFaultShim(faults);
    }

    try {
        Daemon daemon(std::move(opts));
        return daemon.serve();
    } catch (const std::exception &err) {
        fatal("mopac_serve: {}", err.what());
    }
}

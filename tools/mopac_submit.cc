/**
 * @file
 * mopac_submit: command-line client of the mopac_serve daemon.
 *
 * Subcommands:
 *
 *   ping                  is the daemon alive?
 *   status <job-id-hex>   one job's phase + progress counters
 *   fetch <job-id-hex>    print the job's (possibly partial) manifest
 *   shutdown              ask the daemon to stop gracefully
 *   sweep [...]           submit a small standard sweep and wait for
 *                         the manifest (the bench drivers submit
 *                         their own sweeps via --submit)
 *
 * Exit codes follow the shared map in sim/stop.hh: a waited-on or
 * fetched sweep propagates its manifest outcome (0 / 65 / 70 / 74 /
 * 75), `ping` returns 0/1, protocol or reachability failures return
 * 1.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "serve/client.hh"
#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

[[noreturn]] void
usage(int code)
{
    std::puts(
        "usage: mopac_submit --socket PATH <command>\n"
        "\n"
        "  ping                     check daemon liveness\n"
        "  status <job-id-hex>      job phase + counters\n"
        "  fetch <job-id-hex>       print the job manifest\n"
        "  shutdown                 graceful daemon stop\n"
        "  sweep [--trh N] [--insts N] [--workloads a,b,...]\n"
        "                           submit a standard sweep and wait\n"
        "\n"
        "  --timeout SEC            reconnect budget (default 60)\n");
    std::exit(code);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start) {
            out.push_back(text.substr(start, end - start));
        }
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    return out;
}

void
printStatus(const JobStatus &status)
{
    inform("job {:x}: {} ({} done, {} cached, {} quarantined, {} "
           "pending of {})",
           status.job_id, toString(status.phase), status.counts.done,
           status.counts.cached, status.counts.quarantined,
           status.counts.pending, status.counts.total);
}

int
printManifest(const Manifest &manifest)
{
    printStatus(manifest.status);
    TextTable table("sweep manifest");
    table.header({"id", "source", "status", "outcome", "attempts",
                  "slowdown-proxy(ipc0)"});
    std::vector<PointResult> results;
    results.reserve(manifest.entries.size());
    for (const ManifestEntry &entry : manifest.entries) {
        const PointResult &r = entry.result;
        results.push_back(r);
        const double ipc0 =
            r.run.ipcs.empty() ? 0.0 : r.run.ipcs.front();
        table.row({std::to_string(r.point_id),
                   toString(entry.source), toString(r.status),
                   toString(r.outcome), std::to_string(r.attempts),
                   TextTable::fmt(ipc0, 4)});
    }
    table.print(std::cout);
    return sweepExitCode(results);
}

std::uint64_t
parseJobId(const std::string &text)
{
    char *end = nullptr;
    const std::uint64_t id = std::strtoull(text.c_str(), &end, 16);
    if (text.empty() || end == nullptr || *end != '\0') {
        fatal("expected a hex job id, got '{}'", text);
    }
    return id;
}

} // namespace

int
main(int argc, char **argv)
{
    ClientOptions copts;
    std::string command;
    std::vector<std::string> operands;
    std::uint32_t trh = 500;
    std::uint64_t insts = 0;
    std::vector<std::string> workloads = {"mcf", "xz"};

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                fatal("{} requires a value", flag);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            copts.socket_path = value("--socket");
        } else if (arg == "--timeout") {
            copts.reconnect_budget_sec =
                std::strtod(value("--timeout").c_str(), nullptr);
        } else if (arg == "--trh") {
            trh = static_cast<std::uint32_t>(
                std::strtoul(value("--trh").c_str(), nullptr, 10));
        } else if (arg == "--insts") {
            insts = std::strtoull(value("--insts").c_str(), nullptr,
                                  10);
        } else if (arg == "--workloads") {
            workloads = splitList(value("--workloads"));
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (command.empty()) {
            command = arg;
        } else {
            operands.push_back(arg);
        }
    }
    if (copts.socket_path.empty() || command.empty()) {
        usage(2);
    }

    try {
        Client client(copts);
        if (command == "ping") {
            const std::optional<DaemonInfo> info = client.ping();
            if (!info) {
                warn("daemon at {} is unreachable", copts.socket_path);
                inform("hint: is mopac_serve running with --socket "
                       "{}?  Start it, or retry with a larger "
                       "--timeout.",
                       copts.socket_path);
                return 1;
            }
            if (info->daemon_pid == 0) {
                // A pre-identity daemon answers kPong with an empty
                // payload: reachable, but too old to introspect.
                inform("daemon at {} is alive (predates the identity "
                       "block; consider restarting it on this build)",
                       copts.socket_path);
                return 0;
            }
            inform("daemon at {} is alive: pid {}, protocol v{}, "
                   "queue depth {}{}",
                   copts.socket_path, info->daemon_pid,
                   info->protocol_version, info->queue_depth,
                   info->brownout ? ", BROWNOUT (storage writes "
                                    "failing; serving from memory)"
                                  : "");
            if (info->protocol_version != kSerializeVersion) {
                warn("protocol mismatch: daemon speaks v{}, this "
                     "client speaks v{}; restart the daemon from the "
                     "same build as mopac_submit",
                     info->protocol_version, kSerializeVersion);
                return 1;
            }
            return 0;
        }
        if (command == "status") {
            if (operands.size() != 1) {
                usage(2);
            }
            printStatus(client.query(parseJobId(operands[0])));
            return 0;
        }
        if (command == "fetch") {
            if (operands.size() != 1) {
                usage(2);
            }
            return printManifest(
                client.fetch(parseJobId(operands[0])));
        }
        if (command == "shutdown") {
            client.requestShutdown();
            inform("daemon acknowledged shutdown");
            return 0;
        }
        if (command == "sweep") {
            SystemConfig cfg = makeConfig(MitigationKind::kMopacD, trh);
            cfg.insts_per_core =
                insts > 0 ? insts : defaultInstsPerCore(100000);
            cfg.warmup_insts = cfg.insts_per_core / 10;
            SweepSpec spec;
            spec.configs = {{"mopac-d@" + std::to_string(trh), cfg}};
            spec.workloads = workloads;
            const std::vector<ExperimentPoint> points = spec.expand();
            const Manifest manifest = client.runSweep(
                points, [](const JobStatus &status) {
                    inform("  ... {} done / {} pending",
                           status.counts.done, status.counts.pending);
                });
            return printManifest(manifest);
        }
        fatal("unknown command '{}'", command);
    } catch (const ClientError &err) {
        // Reachability / shed-budget failures: say what to do, not
        // just what happened.
        warn("mopac_submit: {}", err.what());
        fatal("hint: check that mopac_serve is running with --socket "
              "{}; if it is overloaded or restarting, retry with "
              "--timeout larger than {:.0f}s",
              copts.socket_path,
              copts.reconnect_budget_sec >= 0.0
                  ? copts.reconnect_budget_sec
                  : 0.0);
    } catch (const SerializeError &err) {
        // A malformed reply that persisted across reconnects almost
        // always means a version skew, not line noise.
        warn("mopac_submit: {}", err.what());
        fatal("hint: the daemon at {} speaks a different protocol "
              "than this client (expected v{}); run `mopac_submit "
              "--socket {} ping` for its identity and restart it "
              "from the same build",
              copts.socket_path, kSerializeVersion,
              copts.socket_path);
    } catch (const std::exception &err) {
        fatal("mopac_submit: {}", err.what());
    }
}

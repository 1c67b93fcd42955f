/**
 * @file
 * Experiment helper implementation.
 */

#include "experiment.hh"

#include <cstdlib>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/stop.hh"
#include "sim/sweep.hh"
#include "workload/synth.hh"

namespace mopac
{

std::uint64_t
defaultInstsPerCore(std::uint64_t base)
{
    if (const char *abs = std::getenv("MOPAC_SIM_INSTS")) {
        const std::uint64_t v = std::strtoull(abs, nullptr, 10);
        if (v > 0) {
            return v;
        }
        warn("ignoring invalid MOPAC_SIM_INSTS='{}'", abs);
    }
    if (const char *scale = std::getenv("MOPAC_SIM_SCALE")) {
        const double f = std::strtod(scale, nullptr);
        if (f > 0.0) {
            return static_cast<std::uint64_t>(
                static_cast<double>(base) * f);
        }
        warn("ignoring invalid MOPAC_SIM_SCALE='{}'", scale);
    }
    return base;
}

namespace
{

std::vector<TraceSource *>
borrowAll(const std::vector<std::unique_ptr<TraceSource>> &owned)
{
    std::vector<TraceSource *> raw;
    raw.reserve(owned.size());
    for (const auto &t : owned) {
        raw.push_back(t.get());
    }
    return raw;
}

/**
 * A System wired to a named workload's trace sources.  Members are
 * declared in lifetime order: the traces borrow the address map and
 * the System borrows the traces.
 */
struct WorkloadSystem
{
    WorkloadSystem(const SystemConfig &cfg, const std::string &name)
        : map(cfg.geometry),
          owned(makeWorkloadTraces(name, map, cfg.num_cores, cfg.seed)),
          traces(borrowAll(owned)), system(cfg, traces)
    {
    }

    /** Value snapshot of every component statistic, into @p out. */
    void
    snapshotStats(StatSnapshot *out) const
    {
        if (out != nullptr) {
            StatRegistry registry;
            system.registerStats(registry);
            *out = StatSnapshot(registry);
        }
    }

    const AddressMap map;
    const std::vector<std::unique_ptr<TraceSource>> owned;
    const std::vector<TraceSource *> traces;
    System system;
};

} // namespace

RunResult
runWorkload(const SystemConfig &cfg, const std::string &name,
            StatSnapshot *stats_out)
{
    WorkloadSystem run(cfg, name);
    RunResult result = run.system.run();
    run.snapshotStats(stats_out);
    return result;
}

OutcomeClass
classifyRun(const RunResult &result)
{
    if (result.violations > 0) {
        return OutcomeClass::kViolated;
    }
    if (result.timed_out) {
        return OutcomeClass::kHung;
    }
    if (result.faults_injected > 0) {
        return OutcomeClass::kDegraded;
    }
    return OutcomeClass::kOk;
}

RunOutcome
tryRunWorkload(const SystemConfig &cfg, const std::string &name,
               bool capture_stats)
{
    RunOutcome outcome;
    StatSnapshot *stats = capture_stats ? &outcome.stats : nullptr;
    const ErrorTrap trap;
    try {
        outcome.result = runWorkload(cfg, name, stats);
        outcome.ok = true;
        outcome.outcome = classifyRun(outcome.result);
    } catch (const AbortError &) {
        // Operator abort is not a point failure: the point must be
        // left out of the result store and re-run on resume, so let
        // the sweep machinery see it.
        throw;
    } catch (const std::exception &e) {
        outcome.error = e.what();
        outcome.outcome =
            outcome.error.find(kWatchdogMarker) != std::string::npos
                ? OutcomeClass::kHung
                : OutcomeClass::kViolated;
    } catch (...) {
        outcome.error = "unknown exception";
        outcome.outcome = OutcomeClass::kViolated;
    }
    return outcome;
}

namespace
{

/** Snapshot section holding the workload trace cursors. */
constexpr std::uint32_t kTagTraces = 0x54524143; // 'TRAC'

/** A snapshot's payload: the System, then the trace cursors. */
template <class Sys, class Ar>
void
transferSnapshot(Sys &system, const std::vector<TraceSource *> &traces,
                 Ar &ar)
{
    System::transfer(system, ar);
    ar.begin(kTagTraces);
    auto count = static_cast<std::uint32_t>(traces.size());
    ar.u32(count);
    if (Ar::kLoading && count != traces.size()) {
        throw SerializeError(format(
            "snapshot holds {} trace cursors, workload has {}", count,
            traces.size()));
    }
    for (TraceSource *trace : traces) {
        transferVirtual(*trace, ar);
    }
    ar.end();
}

void
writeSnapshot(const std::string &path, std::uint64_t hash,
              const System &system,
              const std::vector<TraceSource *> &traces)
{
    Serializer ser;
    transferSnapshot(system, traces, ser);
    atomicWriteFile(path, ser.finish(FileKind::kSnapshot, hash));
}

} // namespace

std::uint64_t
snapshotConfigHash(const SystemConfig &cfg, const std::string &workload)
{
    return fnv1a64(configSignature(cfg) + "#" + workload);
}

CheckpointedRun
runWorkloadCheckpointed(const SystemConfig &cfg, const std::string &name,
                        const CheckpointOptions &ckpt,
                        StatSnapshot *stats_out)
{
    WorkloadSystem run(cfg, name);
    System &system = run.system;
    const std::vector<TraceSource *> &traces = run.traces;

    const std::uint64_t hash = snapshotConfigHash(cfg, name);
    if (!ckpt.restore_path.empty()) {
        Deserializer des(readFileBytes(ckpt.restore_path),
                         FileKind::kSnapshot, hash);
        transferSnapshot(system, traces, des);
        des.finish();
    }

    // Execute in bounded chunks so the stop flag is observed at
    // quiesced (snapshot-safe) cycle boundaries even when no periodic
    // checkpoint interval was requested.
    const Cycle step =
        ckpt.checkpoint_every > 0 ? ckpt.checkpoint_every : (1u << 20);

    CheckpointedRun out;
    Cycle target = system.runCycle();
    for (;;) {
        target += step;
        if (system.runTo(target)) {
            break;
        }
        if (sweepstop::stopRequested()) {
            if (!ckpt.save_path.empty()) {
                writeSnapshot(ckpt.save_path, hash, system, traces);
            }
            out.finished = false;
            out.stopped_at = system.runCycle();
            return out;
        }
        if (!ckpt.save_path.empty() && ckpt.checkpoint_every > 0) {
            writeSnapshot(ckpt.save_path, hash, system, traces);
        }
    }

    out.finished = true;
    out.result = system.finishRun();
    run.snapshotStats(stats_out);
    return out;
}

} // namespace mopac

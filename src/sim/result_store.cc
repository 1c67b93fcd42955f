/**
 * @file
 * Result store implementation.
 */

#include "result_store.hh"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "common/format.hh"
#include "common/serialize.hh"
#include "sim/experiment.hh"

namespace mopac
{

namespace
{

/** Section tags inside store files. */
constexpr std::uint32_t kTagPoint = 0x504F494E; // 'POIN'
constexpr std::uint32_t kTagRun = 0x52554E52;   // 'RUNR'
constexpr std::uint32_t kTagId = 0x53434944;    // 'SCID'

void
saveRunResult(Serializer &ser, const RunResult &run)
{
    ser.begin(kTagRun);
    ser.putU32(static_cast<std::uint32_t>(run.ipcs.size()));
    for (double ipc : run.ipcs) {
        ser.putF64(ipc);
    }
    ser.putU64(run.cycles);
    ser.putU8(run.timed_out ? 1 : 0);
    ser.putU64(run.acts);
    ser.putU64(run.reads);
    ser.putU64(run.writes);
    ser.putU64(run.refs);
    ser.putU64(run.rfms);
    ser.putU64(run.alerts);
    ser.putF64(run.rbhr);
    ser.putF64(run.apri);
    ser.putF64(run.avg_read_latency_ns);
    ser.putU32(run.max_unmitigated);
    ser.putU64(run.violations);
    ser.putU64(run.faults_injected);
    ser.putU64(run.counter_updates);
    ser.putU64(run.srq_insertions);
    ser.putU64(run.mitigations);
    ser.putU64(run.ref_drains);
    ser.putF64(run.act64);
    ser.putF64(run.act200);
    ser.putU64(run.epochs);
    ser.end();
}

RunResult
loadRunResult(Deserializer &des)
{
    RunResult run;
    des.begin(kTagRun);
    const std::uint32_t cores = des.getU32();
    if (cores > (1u << 16)) {
        throw SerializeError(
            format("implausible core count {}", cores));
    }
    run.ipcs.reserve(cores);
    for (std::uint32_t i = 0; i < cores; ++i) {
        run.ipcs.push_back(des.getF64());
    }
    run.cycles = des.getU64();
    run.timed_out = des.getU8() != 0;
    run.acts = des.getU64();
    run.reads = des.getU64();
    run.writes = des.getU64();
    run.refs = des.getU64();
    run.rfms = des.getU64();
    run.alerts = des.getU64();
    run.rbhr = des.getF64();
    run.apri = des.getF64();
    run.avg_read_latency_ns = des.getF64();
    run.max_unmitigated = des.getU32();
    run.violations = des.getU64();
    run.faults_injected = des.getU64();
    run.counter_updates = des.getU64();
    run.srq_insertions = des.getU64();
    run.mitigations = des.getU64();
    run.ref_drains = des.getU64();
    run.act64 = des.getF64();
    run.act200 = des.getF64();
    run.epochs = des.getU64();
    des.end();
    return run;
}

} // namespace

void
savePointResult(Serializer &ser, const PointResult &result)
{
    ser.begin(kTagPoint);
    ser.putU64(result.point_id);
    ser.putU8(static_cast<std::uint8_t>(result.status));
    ser.putU64(result.seed);
    ser.putStr(result.error);
    ser.putU8(static_cast<std::uint8_t>(result.outcome));
    saveRunResult(ser, result.run);
    result.stats.saveState(ser);
    ser.end();
}

PointResult
loadPointResult(Deserializer &des)
{
    PointResult result;
    des.begin(kTagPoint);
    result.point_id = des.getU64();
    const std::uint8_t status = des.getU8();
    if (status > static_cast<std::uint8_t>(PointStatus::kNotRun)) {
        throw SerializeError(
            format("invalid point status {}", status));
    }
    result.status = static_cast<PointStatus>(status);
    result.seed = des.getU64();
    result.error = des.getStr();
    const std::uint8_t outcome = des.getU8();
    if (outcome > static_cast<std::uint8_t>(OutcomeClass::kHung)) {
        throw SerializeError(
            format("invalid outcome class {}", outcome));
    }
    result.outcome = static_cast<OutcomeClass>(outcome);
    result.run = loadRunResult(des);
    result.stats.loadState(des);
    des.end();
    return result;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/quarantine", ec);
    if (ec) {
        throw SerializeError(format("cannot create result store {}: {}",
                                    dir_, ec.message()));
    }
}

std::uint64_t
ResultStore::keyFor(const ExperimentPoint &point)
{
    return snapshotConfigHash(point.cfg, point.workload);
}

std::string
ResultStore::entryPath(std::uint64_t key, bool quarantine) const
{
    char name[24];
    std::snprintf(name, sizeof(name), "%016llx.rec",
                  static_cast<unsigned long long>(key));
    return dir_ + (quarantine ? "/quarantine/" : "/") + name;
}

void
ResultStore::heal(const std::string &path)
{
    if (std::rename(path.c_str(), (path + ".corrupt").c_str()) != 0) {
        std::remove(path.c_str());
    }
    ++healed_;
}

std::optional<PointResult>
ResultStore::lookup(const ExperimentPoint &point)
{
    const std::string identity = configSignature(point.cfg);
    const std::uint64_t key = keyFor(point);
    const std::string path = entryPath(key, /*quarantine=*/false);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!fileExists(path)) {
        return std::nullopt;
    }
    try {
        Deserializer des(readFileBytes(path), FileKind::kCacheEntry,
                         key);
        des.begin(kTagId);
        const std::string stored_identity = des.getStr();
        const std::string workload = des.getStr();
        des.end();
        if (stored_identity != identity || workload != point.workload) {
            throw SerializeError(
                "key collision: stored identity differs");
        }
        PointResult result = loadPointResult(des);
        des.finish();
        if (result.status != PointStatus::kOk) {
            throw SerializeError("entry holds a non-OK result");
        }
        // The entry may have been written for a different sweep or
        // job; the point id is the only per-sweep field.
        result.point_id = point.point_id;
        return result;
    } catch (const SerializeError &) {
        heal(path);
        return std::nullopt;
    }
}

void
ResultStore::put(const ExperimentPoint &point, const PointResult &result)
{
    const std::string identity = configSignature(point.cfg);
    const std::uint64_t key = keyFor(point);
    const std::string path =
        entryPath(key, result.status != PointStatus::kOk);
    Serializer ser;
    ser.begin(kTagId);
    ser.putStr(identity);
    ser.putStr(point.workload);
    ser.end();
    savePointResult(ser, result);
    const std::vector<std::uint8_t> bytes =
        ser.finish(FileKind::kCacheEntry, key);
    std::lock_guard<std::mutex> lock(mutex_);
    atomicWriteFile(path, bytes);
}

} // namespace mopac

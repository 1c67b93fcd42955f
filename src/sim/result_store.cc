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

template <class Run, class Ar>
void
transferRunResult(Run &run, Ar &ar)
{
    ar.begin(kTagRun);
    auto cores = static_cast<std::uint32_t>(run.ipcs.size());
    ar.u32(cores);
    if constexpr (Ar::kLoading) {
        if (cores > (1u << 16)) {
            throw SerializeError(
                format("implausible core count {}", cores));
        }
        run.ipcs.resize(cores);
    }
    for (auto &ipc : run.ipcs) {
        ar.f64(ipc);
    }
    ar.u64(run.cycles);
    ar.flag(run.timed_out);
    ar.u64(run.acts);
    ar.u64(run.reads);
    ar.u64(run.writes);
    ar.u64(run.refs);
    ar.u64(run.rfms);
    ar.u64(run.alerts);
    ar.f64(run.rbhr);
    ar.f64(run.apri);
    ar.f64(run.avg_read_latency_ns);
    ar.u32(run.max_unmitigated);
    ar.u64(run.violations);
    ar.u64(run.faults_injected);
    ar.u64(run.counter_updates);
    ar.u64(run.srq_insertions);
    ar.u64(run.mitigations);
    ar.u64(run.ref_drains);
    ar.f64(run.act64);
    ar.f64(run.act200);
    ar.u64(run.epochs);
    ar.end();
}

} // namespace

template <class Result, class Ar>
void
transferPointResult(Result &result, Ar &ar)
{
    ar.begin(kTagPoint);
    ar.u64(result.point_id);
    auto status = static_cast<std::uint8_t>(result.status);
    ar.u8(status);
    if (Ar::kLoading &&
        status > static_cast<std::uint8_t>(PointStatus::kNotRun)) {
        throw SerializeError(
            format("invalid point status {}", status));
    }
    ar.u64(result.seed);
    ar.str(result.error);
    auto outcome = static_cast<std::uint8_t>(result.outcome);
    ar.u8(outcome);
    if (Ar::kLoading &&
        outcome > static_cast<std::uint8_t>(OutcomeClass::kHung)) {
        throw SerializeError(
            format("invalid outcome class {}", outcome));
    }
    if constexpr (Ar::kLoading) {
        result.status = static_cast<PointStatus>(status);
        result.outcome = static_cast<OutcomeClass>(outcome);
    }
    transferRunResult(result.run, ar);
    StatSnapshot::transfer(result.stats, ar);
    ar.end();
}

template void transferPointResult(const PointResult &, Serializer &);
template void transferPointResult(PointResult &, Deserializer &);

namespace
{

/** A store entry: the identity section, then the point result. */
template <class Str, class Result, class Ar>
void
transferEntry(Ar &ar, Str &identity, Str &workload, Result &result)
{
    ar.begin(kTagId);
    ar.str(identity);
    ar.str(workload);
    ar.end();
    transferPointResult(result, ar);
}

} // namespace

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
        std::string stored_identity;
        std::string workload;
        PointResult result;
        transferEntry(des, stored_identity, workload, result);
        des.finish();
        if (stored_identity != identity || workload != point.workload) {
            throw SerializeError(
                "key collision: stored identity differs");
        }
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
    transferEntry(ser, identity, point.workload, result);
    const std::vector<std::uint8_t> bytes =
        ser.finish(FileKind::kCacheEntry, key);
    std::lock_guard<std::mutex> lock(mutex_);
    atomicWriteFile(path, bytes);
}

} // namespace mopac

/**
 * @file
 * Result store implementation.
 */

#include "result_store.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mopac
{

namespace
{

/** Section tags inside store files. */
constexpr std::uint32_t kTagPoint = 0x504F494E; // 'POIN'
constexpr std::uint32_t kTagRun = 0x52554E52;   // 'RUNR'
constexpr std::uint32_t kTagId = 0x53434944;    // 'SCID'
constexpr std::uint32_t kTagSeq = 0x53435351;   // 'SCSQ'

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

/**
 * Everything that decides what executing @p point under @p opts
 * produces: the configuration after the cycle guard, plus the retry
 * budget of a fault-plan point (fault-free points never retry).
 */
std::string
identityOf(const ExperimentPoint &point, const RunnerOptions &opts)
{
    const SystemConfig cfg = guardedPoint(point, opts).cfg;
    std::string identity = configSignature(cfg);
    if (cfg.faults.enabled()) {
        identity += format(" retries={}", opts.fault_retries);
    }
    return identity;
}

/** Same hash as snapshotConfigHash() for an unchanged config. */
std::uint64_t
keyOf(const std::string &identity, const std::string &workload)
{
    return fnv1a64(identity + "#" + workload);
}

} // namespace

void
savePointResult(Serializer &ser, const PointResult &result)
{
    ser.begin(kTagPoint);
    ser.putU64(result.point_id);
    ser.putU8(static_cast<std::uint8_t>(result.status));
    ser.putU64(result.seed);
    ser.putF64(result.wall_seconds);
    ser.putStr(result.error);
    ser.putU8(static_cast<std::uint8_t>(result.outcome));
    ser.putU32(result.attempts);
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
    result.wall_seconds = des.getF64();
    result.error = des.getStr();
    const std::uint8_t outcome = des.getU8();
    if (outcome > static_cast<std::uint8_t>(OutcomeClass::kHung)) {
        throw SerializeError(
            format("invalid outcome class {}", outcome));
    }
    result.outcome = static_cast<OutcomeClass>(outcome);
    result.attempts = des.getU32();
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
    scan(dir_);
    scan(dir_ + "/quarantine");
}

std::uint64_t
ResultStore::keyFor(const ExperimentPoint &point,
                    const RunnerOptions &opts)
{
    return keyOf(identityOf(point, opts), point.workload);
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
ResultStore::heal(const std::string &path, const char *why)
{
    warn("result store: healing corrupt entry {}: {}", path, why);
    if (std::rename(path.c_str(), (path + ".corrupt").c_str()) != 0) {
        std::remove(path.c_str());
    }
    forget(path);
    ++healed_;
}

void
ResultStore::account(const std::string &path, std::uint64_t seq,
                     std::uint64_t bytes)
{
    forget(path); // Replacing a file frees its older generation.
    seq_of_[path] = seq;
    by_seq_[seq] = {path, bytes};
    total_bytes_ += bytes;
}

void
ResultStore::forget(const std::string &path)
{
    const auto it = seq_of_.find(path);
    if (it == seq_of_.end()) {
        return;
    }
    const auto entry = by_seq_.find(it->second);
    if (entry != by_seq_.end()) {
        total_bytes_ -= entry->second.second;
        by_seq_.erase(entry);
    }
    seq_of_.erase(it);
}

void
ResultStore::scan(const std::string &where)
{
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &ent :
         std::filesystem::directory_iterator(where, ec)) {
        names.push_back(ent.path().filename().string());
    }
    // Lexicographic walk keeps healing and accounting order stable.
    std::sort(names.begin(), names.end());

    for (const std::string &name : names) {
        if (name.size() != 20 || name.compare(16, 4, ".rec") != 0) {
            continue;
        }
        const std::string path = where + "/" + name;
        const std::uint64_t key =
            std::strtoull(name.c_str(), nullptr, 16);
        try {
            const std::vector<std::uint8_t> bytes =
                readFileBytes(path);
            Deserializer des(bytes, FileKind::kCacheEntry, key);
            des.begin(kTagId);
            des.getStr();
            des.getStr();
            des.end();
            des.begin(kTagSeq);
            const std::uint64_t seq = des.getU64();
            des.end();
            account(path, seq, bytes.size());
            next_seq_ = std::max(next_seq_, seq + 1);
        } catch (const SerializeError &err) {
            heal(path, err.what());
        }
    }
}

void
ResultStore::evictToBudget()
{
    if (budget_ == 0) {
        return;
    }
    while (total_bytes_ > budget_ && !by_seq_.empty()) {
        const auto it = by_seq_.begin();
        const auto [path, bytes] = it->second;
        if (std::remove(path.c_str()) != 0) {
            warn("result store: cannot evict {}", path);
        }
        total_bytes_ -= bytes;
        seq_of_.erase(path);
        by_seq_.erase(it);
        ++evictions_;
    }
}

void
ResultStore::setBudget(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_ = bytes;
    evictToBudget();
}

std::optional<PointResult>
ResultStore::lookup(const ExperimentPoint &point,
                    const RunnerOptions &opts)
{
    const std::string identity = identityOf(point, opts);
    const std::uint64_t key = keyOf(identity, point.workload);
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
        des.begin(kTagSeq);
        des.getU64();
        des.end();
        PointResult result = loadPointResult(des);
        des.finish();
        if (result.status != PointStatus::kOk) {
            throw SerializeError("entry holds a non-OK result");
        }
        // The entry may have been written for a different sweep or
        // job; the point id is the only per-sweep field.
        result.point_id = point.point_id;
        return result;
    } catch (const SerializeError &err) {
        heal(path, err.what());
        return std::nullopt;
    }
}

void
ResultStore::put(const ExperimentPoint &point,
                 const RunnerOptions &opts, const PointResult &result)
{
    const std::string identity = identityOf(point, opts);
    const std::uint64_t key = keyOf(identity, point.workload);
    const std::string path =
        entryPath(key, result.status != PointStatus::kOk);
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t seq = next_seq_++;
    Serializer ser;
    ser.begin(kTagId);
    ser.putStr(identity);
    ser.putStr(point.workload);
    ser.end();
    ser.begin(kTagSeq);
    ser.putU64(seq);
    ser.end();
    savePointResult(ser, result);
    const std::vector<std::uint8_t> bytes =
        ser.finish(FileKind::kCacheEntry, key);
    atomicWriteFile(path, bytes);
    account(path, seq, bytes.size());
    evictToBudget();
}

} // namespace mopac

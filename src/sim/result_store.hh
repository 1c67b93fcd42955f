/**
 * @file
 * Content-addressed, crash-safe on-disk store of finished points.
 *
 * One directory serves every sweep that reuses finished work, read and
 * written only by the sweep driver (Runner::sweep) on either pool: a
 * bench --journal / --resume directory shared by any number of
 * drivers, run one after another.  The layout is
 *
 *   <dir>/<key>.rec             one entry per kOk result
 *   <dir>/quarantine/<key>.rec  replay artifact of the last non-OK
 *                               result of that key (never served)
 *
 * where <key> is the point's identity as executed: keyFor() hashes
 * the configuration signature with the Runner's cycle guard applied,
 * plus fault_retries when the config carries an active FaultPlan, and
 * the workload name.  A result is therefore reused by exactly the
 * points whose own run would produce it -- regardless of sweep, job,
 * point id or submitter -- and a resumed sweep needs no manifest: the
 * cells it shares with the store are served, the rest run.
 *
 * Robustness properties:
 *  - Entries are serialize-layer containers (FileKind::kCacheEntry)
 *    with the key in the envelope and a CRC trailer, written via
 *    atomicWriteFile: a SIGKILL at any instant leaves the old entry
 *    or the new one, never a torn one.
 *  - The key is verified twice on load: against the envelope hash
 *    AND against the full identity string and workload stored inside
 *    the payload, so even an FNV collision cannot serve a wrong
 *    result.
 *  - A corrupt, truncated or foreign entry is a miss, not an error:
 *    the file is renamed *.corrupt and the point re-runs.
 *  - Loaded results round-trip StatSnapshots bit-exactly, so the
 *    merged statistics of an interrupted-and-resumed sweep equal
 *    those of an uninterrupted run at any --jobs count.
 *  - The footprint can be bounded (setBudget): every file persists a
 *    monotonic insertion sequence number, and over budget the lowest
 *    sequence goes first -- FIFO by insertion, never by access, so
 *    two stores fed the same history evict identically.
 *  - put() and lookup() are mutex-guarded: thread-pool workers call
 *    put() concurrently.
 */

#ifndef MOPAC_SIM_RESULT_STORE_HH
#define MOPAC_SIM_RESULT_STORE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "common/serialize.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace mopac
{

/** Serialize a PointResult payload (store entries, worker frames). */
void savePointResult(Serializer &ser, const PointResult &result);

/** Restore a PointResult saved by savePointResult(). */
PointResult loadPointResult(Deserializer &des);

/** On-disk result store rooted at one directory. */
class ResultStore
{
  public:
    /**
     * Open (and create if needed) the store at @p dir and account
     * every entry on disk; unreadable entries heal to *.corrupt.
     * Throws SerializeError when the directory cannot be created.
     */
    explicit ResultStore(std::string dir);

    /** Entry key of @p point executed under @p opts. */
    static std::uint64_t keyFor(const ExperimentPoint &point,
                                const RunnerOptions &opts);

    /**
     * The stored kOk result for @p point executed under @p opts,
     * relabelled with the point's id, or nullopt on a miss.  A
     * corrupt entry heals to a miss.
     */
    std::optional<PointResult> lookup(const ExperimentPoint &point,
                                      const RunnerOptions &opts);

    /**
     * Record a finished point: a kOk result becomes the servable
     * entry, anything else the key's quarantine artifact.  Atomic;
     * throws SerializeError when the write fails.
     */
    void put(const ExperimentPoint &point, const RunnerOptions &opts,
             const PointResult &result);

    /**
     * Bound the on-disk footprint of entries and quarantine artifacts
     * (0 = unbounded, the default).  Applies immediately and to every
     * later put: files are evicted oldest-insertion-first until the
     * total fits, including -- when the budget is smaller than one
     * entry -- the file just written.
     */
    void setBudget(std::uint64_t bytes);

    /** Current on-disk footprint of live files, bytes. */
    std::uint64_t totalBytes() const { return total_bytes_; }

    /** Files evicted to stay within budget since construction. */
    std::uint64_t evictions() const { return evictions_; }

    /** Files healed (renamed *.corrupt) since construction. */
    std::uint64_t healed() const { return healed_; }

  private:
    std::string entryPath(std::uint64_t key, bool quarantine) const;
    void scan(const std::string &where);
    void heal(const std::string &path, const char *why);
    void account(const std::string &path, std::uint64_t seq,
                 std::uint64_t bytes);
    void forget(const std::string &path);
    void evictToBudget();

    std::string dir_;
    std::uint64_t budget_ = 0;
    std::uint64_t total_bytes_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t next_seq_ = 1;
    /** Insertion order -> (file path, bytes): the eviction queue. */
    std::map<std::uint64_t, std::pair<std::string, std::uint64_t>>
        by_seq_;
    /** Live file path -> its sequence number in by_seq_. */
    std::map<std::string, std::uint64_t> seq_of_;
    std::uint64_t healed_ = 0;
    std::mutex mutex_;
};

} // namespace mopac

#endif // MOPAC_SIM_RESULT_STORE_HH

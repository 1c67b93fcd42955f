/**
 * @file
 * Content-addressed, crash-safe on-disk store of finished points.
 *
 * One directory serves every sweep that reuses finished work, read and
 * written only by the sweep driver (Runner::sweep): a bench
 * --journal / --resume directory shared by any number of drivers, run
 * one after another.  The layout is
 *
 *   <dir>/<key>.rec             one entry per kOk result
 *   <dir>/quarantine/<key>.rec  replay artifact of the last non-OK
 *                               result of that key (never served)
 *
 * where <key> is the point's snapshot config hash: keyFor() hashes
 * the configuration signature and the workload name, and the config
 * alone decides what running the point produces.  A result is
 * therefore reused by exactly the points whose own run would produce
 * it -- regardless of sweep, job or point id -- and a resumed sweep
 * needs no manifest: the cells it shares with the store are served,
 * the rest run.
 *
 * Robustness properties:
 *  - Entries are serialize-layer containers (FileKind::kCacheEntry)
 *    with the key in the envelope and a CRC trailer, written via
 *    atomicWriteFile: a SIGKILL at any instant leaves the old entry
 *    or the new one, never a torn one.
 *  - An entry's bytes are a pure function of the point and its
 *    result: no host wall time and no insertion order, so two runs
 *    of one sweep write byte-identical stores at any jobs count.
 *  - The key is verified twice on load: against the envelope hash
 *    AND against the full identity string and workload stored inside
 *    the payload, so even an FNV collision cannot serve a wrong
 *    result.
 *  - A corrupt, truncated or foreign entry is a miss, not an error:
 *    lookup() renames the file *.corrupt, silently, and counts it in
 *    healed(); the point re-runs.  The sweep's caller reports the
 *    count once, so an old-format store does not flood the log.
 *  - Loaded results round-trip StatSnapshots bit-exactly, so the
 *    merged statistics of an interrupted-and-resumed sweep equal
 *    those of an uninterrupted run at any --jobs count.
 *  - put() and lookup() are mutex-guarded: thread-pool workers call
 *    put() concurrently.
 */

#ifndef MOPAC_SIM_RESULT_STORE_HH
#define MOPAC_SIM_RESULT_STORE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/serialize.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

namespace mopac
{

/**
 * Serialize a PointResult payload (store entries): every field but
 * the host wall time, which a loaded result reports as 0.
 */
void savePointResult(Serializer &ser, const PointResult &result);

/** Restore a PointResult saved by savePointResult(). */
PointResult loadPointResult(Deserializer &des);

/** On-disk result store rooted at one directory. */
class ResultStore
{
  public:
    /**
     * Open (and create if needed) the store at @p dir.  Throws
     * SerializeError when the directory cannot be created.
     */
    explicit ResultStore(std::string dir);

    /**
     * Entry key of @p point:
     * snapshotConfigHash(point.cfg, point.workload).
     */
    static std::uint64_t keyFor(const ExperimentPoint &point);

    /**
     * The stored kOk result for @p point, relabelled with the point's
     * id, or nullopt on a miss.  A corrupt entry heals to a miss
     * without printing anything.
     */
    std::optional<PointResult> lookup(const ExperimentPoint &point);

    /**
     * Record a finished point: a kOk result becomes the servable
     * entry, anything else the key's quarantine artifact.  Atomic;
     * throws SerializeError when the write fails.
     */
    void put(const ExperimentPoint &point, const PointResult &result);

    /** Files healed (renamed *.corrupt) since construction. */
    std::uint64_t healed() const { return healed_; }

  private:
    std::string entryPath(std::uint64_t key, bool quarantine) const;
    void heal(const std::string &path);

    std::string dir_;
    std::uint64_t healed_ = 0;
    std::mutex mutex_;
};

} // namespace mopac

#endif // MOPAC_SIM_RESULT_STORE_HH

/**
 * @file
 * Lightweight statistics: histograms and a named-stat registry.
 *
 * Components keep plain counters as members for speed, then register
 * them (by reference) in a StatRegistry so the runner can dump every
 * statistic as "name value" lines at the end of a simulation, in the
 * style of DRAMsim3 / gem5 stat files.
 */

#ifndef MOPAC_COMMON_STATS_HH
#define MOPAC_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace mopac
{

/**
 * A streaming histogram over unsigned samples with fixed-width
 * buckets, also tracking exact count / sum / min / max.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket.
     * @param num_buckets Number of buckets; samples beyond the last
     *        bucket are accumulated in an overflow bucket.
     */
    explicit Histogram(std::uint64_t bucket_width = 1,
                       std::size_t num_buckets = 64);

    /** Record one sample. */
    void add(std::uint64_t sample);

    /** Number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** Sum of recorded samples. */
    std::uint64_t sum() const { return sum_; }

    /** Arithmetic mean (0 if empty). */
    double mean() const;

    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }

    /**
     * Approximate p-quantile (0 <= p <= 1) from the bucketed data;
     * returns the upper edge of the bucket containing the quantile.
     */
    std::uint64_t quantile(double p) const;

    /** Raw bucket counts; the final entry is the overflow bucket. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Reset all recorded data. */
    void reset();

    /** Snapshot the recorded data; a load throws on a shape mismatch. */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    std::uint64_t bucket_width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Registry of named statistics.  Holds references to counters owned by
 * components; dump() renders them in registration order.
 */
class StatRegistry
{
  public:
    /** Register an unsigned counter under a dotted name. */
    void addScalar(const std::string &name, const std::uint64_t *value);

    /** Register a floating-point statistic under a dotted name. */
    void addReal(const std::string &name, const double *value);

    /** Render "name value" lines for all registered stats. */
    void dump(std::ostream &os) const;

    /** Look up a scalar by name; panics if absent or wrong type. */
    std::uint64_t scalar(const std::string &name) const;

    /** Look up a real by name; panics if absent or wrong type. */
    double real(const std::string &name) const;

    /** True if any stat with this name exists. */
    bool has(const std::string &name) const;

    std::size_t size() const { return entries_.size(); }

    /**
     * Visit every entry in registration order; exactly one of the two
     * pointers is non-null per entry.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Entry &entry : entries_) {
            if (std::holds_alternative<const std::uint64_t *>(
                    entry.value)) {
                fn(entry.name,
                   std::get<const std::uint64_t *>(entry.value),
                   static_cast<const double *>(nullptr));
            } else {
                fn(entry.name,
                   static_cast<const std::uint64_t *>(nullptr),
                   std::get<const double *>(entry.value));
            }
        }
    }

  private:
    struct Entry
    {
        std::string name;
        std::variant<const std::uint64_t *, const double *> value;
    };

    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries_;
};

/**
 * Immutable *value* copy of a StatRegistry, safe to move across
 * threads.  A registry holds references into live components; a
 * snapshot taken just before the owning System is destroyed freezes
 * the final values, so a parallel sweep can collect one snapshot per
 * experiment point and merge them into the final table after the
 * workers have joined -- no component outlives its thread and no
 * merge touches shared mutable state.
 */
class StatSnapshot
{
  public:
    StatSnapshot() = default;

    /** Capture the current values of every stat in @p registry. */
    explicit StatSnapshot(const StatRegistry &registry);

    /**
     * Fold @p other into this snapshot: stats present in both are
     * summed (scalars exactly, reals in IEEE order of merging), stats
     * only in @p other are appended.  Merging in point-id order makes
     * the result independent of worker scheduling.
     */
    void merge(const StatSnapshot &other);

    /** Render "name value" lines, registration order. */
    void dump(std::ostream &os) const;

    /** Scalar value by name; panics if absent or wrong type. */
    std::uint64_t scalar(const std::string &name) const;

    /** Real value by name; panics if absent or wrong type. */
    double real(const std::string &name) const;

    bool has(const std::string &name) const;

    std::size_t size() const { return entries_.size(); }

    /** Exact equality (names, order, bit-identical values). */
    bool operator==(const StatSnapshot &other) const;
    bool operator!=(const StatSnapshot &other) const
    {
        return !(*this == other);
    }

    /**
     * Serialize the snapshot (bit-exact, including doubles); a load
     * replaces this snapshot.
     */
    template <class Self, class Ar>
    static void transfer(Self &self, Ar &ar);

  private:
    struct Entry
    {
        std::string name;
        std::variant<std::uint64_t, double> value;

        bool operator==(const Entry &other) const = default;
    };

    const Entry *find(const std::string &name) const;

    std::vector<Entry> entries_;
};

} // namespace mopac

#endif // MOPAC_COMMON_STATS_HH

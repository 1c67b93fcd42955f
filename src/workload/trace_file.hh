/**
 * @file
 * Trace file input/output.
 *
 * The paper's artifact replays captured traces; this module gives the
 * repository the same workflow without redistributable SPEC data:
 * any TraceSource (including the synthetic generators) can be
 * captured to a file, and files -- ours or converted from other
 * simulators -- can be replayed through FileTraceSource.
 *
 * Two encodings share one record model:
 *
 *  - text (".mtr"): one record per line,
 *        <inst_gap> <R|W|D> <hex line address>
 *    where D marks a dependent read; '#' starts a comment.  Easy to
 *    generate from ChampSim/DRAMsim3 dumps with a few lines of awk.
 *
 *  - binary (".mtb"): a 16-byte header ("MOPACTRC", version,
 *    record count) followed by packed little-endian records of
 *    {u32 inst_gap, u8 flags, u8[3] pad, u64 line_addr}.
 */

#ifndef MOPAC_WORKLOAD_TRACE_FILE_HH
#define MOPAC_WORKLOAD_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/format.hh"
#include "core/trace.hh"

namespace mopac
{

/** In-memory trace image. */
struct TraceData
{
    std::vector<TraceRecord> records;
};

/** Capture @p count records from @p source. */
TraceData captureTrace(TraceSource &source, std::size_t count);

/** Write a trace as text (".mtr" convention). */
void writeTraceText(const TraceData &trace, const std::string &path);

/** Write a trace as packed binary (".mtb" convention). */
void writeTraceBinary(const TraceData &trace, const std::string &path);

/**
 * Load a trace file; the format is sniffed from the binary magic and
 * falls back to text.  fatal() on I/O or parse errors.
 */
TraceData loadTrace(const std::string &path);

/**
 * Replays an in-memory trace, looping forever (rate-mode replay, as
 * the paper's fixed-instruction-budget runs require an endless
 * stream).
 */
class FileTraceSource : public TraceSource
{
  public:
    /** @param trace Records to replay (must be non-empty). */
    explicit FileTraceSource(TraceData trace);

    /** Convenience: load @p path and replay it. */
    explicit FileTraceSource(const std::string &path);

    TraceRecord next() override;

    std::size_t size() const { return trace_.records.size(); }

    /** Times the trace has wrapped around. */
    std::uint64_t loops() const { return loops_; }

    void saveState(Serializer &ser) const override { transfer(*this, ser); }
    void loadState(Deserializer &des) override { transfer(*this, des); }

    /** Snapshot the replay cursor (not the trace image itself). */
    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        std::uint64_t n = self.trace_.records.size();
        ar.u64(n);
        if (Ar::kLoading && n != self.trace_.records.size()) {
            throw SerializeError(format(
                "trace length mismatch (saved {}, live {})", n,
                self.trace_.records.size()));
        }
        ar.u64(self.pos_);
        if (Ar::kLoading && self.pos_ >= self.trace_.records.size()) {
            throw SerializeError(format(
                "trace cursor {} out of range {}", self.pos_,
                self.trace_.records.size()));
        }
        ar.u64(self.loops_);
    }

  private:
    TraceData trace_;
    std::size_t pos_ = 0;
    std::uint64_t loops_ = 0;
};

} // namespace mopac

#endif // MOPAC_WORKLOAD_TRACE_FILE_HH

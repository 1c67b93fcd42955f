/**
 * @file
 * Instruction-trace abstraction for the trace-driven cores.
 *
 * A trace is a stream of memory operations separated by runs of
 * non-memory instructions, the standard format for memory-system
 * studies (the paper replays SPEC-2017 / STREAM / masstree traces at
 * 100M instructions; this repository synthesizes equivalent streams,
 * see src/workload).  Addresses are line-granular and already placed
 * in the issuing core's share of the physical address space.
 */

#ifndef MOPAC_CORE_TRACE_HH
#define MOPAC_CORE_TRACE_HH

#include <cstdint>
#include <memory>

#include "common/serialize.hh"
#include "common/types.hh"

namespace mopac
{

/** One memory operation plus the instruction gap preceding it. */
struct TraceRecord
{
    /** Non-memory instructions retired before this operation. */
    std::uint32_t inst_gap = 0;
    /** Line address of the access. */
    Addr line_addr = 0;
    bool is_write = false;
    /**
     * True if this operation consumes the value of the previous
     * memory read (pointer chasing): it cannot issue until that read
     * completes.  Dependent-miss chains are what make a workload
     * latency-bound rather than bandwidth-bound.
     */
    bool depends_on_prev = false;

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u32(self.inst_gap);
        ar.u64(self.line_addr);
        ar.flag(self.is_write);
        ar.flag(self.depends_on_prev);
    }
};

/** An endless stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next record. */
    virtual TraceRecord next() = 0;

    /**
     * Checkpoint the stream cursor so a restored source replays the
     * identical record sequence.  Sources that cannot be checkpointed
     * (externally driven streams) keep the throwing default, which
     * makes whole-System snapshots fail loudly instead of silently
     * desynchronizing the workload.  A source that checkpoints
     * overrides both with one-line forwards to its transfer body.
     */
    virtual void
    saveState(Serializer &ser) const
    {
        (void)ser;
        throw SerializeError("trace source does not support "
                             "checkpointing");
    }

    /** Restore state saved by saveState(). */
    virtual void
    loadState(Deserializer &des)
    {
        (void)des;
        throw SerializeError("trace source does not support "
                             "checkpointing");
    }
};

} // namespace mopac

#endif // MOPAC_CORE_TRACE_HH

/**
 * @file
 * Memory requests and the completion callback interface.
 */

#ifndef MOPAC_MC_REQUEST_HH
#define MOPAC_MC_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace mopac
{

/** One line-granular memory request inside the controller. */
struct Request
{
    /** Line address (byte address >> log2(line bytes)). */
    Addr line_addr = 0;
    bool is_write = false;
    /** Issuing core (or attack driver) id. */
    unsigned core_id = 0;
    /** Opaque tag the client uses to match completions. */
    std::uint64_t req_id = 0;
    /** Cycle the request entered the controller. */
    Cycle enqueue_cycle = 0;

    // Decoded coordinates (filled by the controller on enqueue).
    unsigned bank = 0;
    std::uint32_t row = 0;
    std::uint32_t column = 0;

    template <class Self, class Ar>
    static void
    transfer(Self &self, Ar &ar)
    {
        ar.u64(self.line_addr);
        ar.flag(self.is_write);
        ar.u32(self.core_id);
        ar.u64(self.req_id);
        ar.u64(self.enqueue_cycle);
        ar.u32(self.bank);
        ar.u32(self.row);
        ar.u32(self.column);
    }
};

/** Receives read-completion notifications from the controller. */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /**
     * The read identified by (core_id, req_id) will deliver its data
     * at @p done_cycle (>= the current cycle).
     */
    virtual void memComplete(const Request &req, Cycle done_cycle) = 0;
};

} // namespace mopac

#endif // MOPAC_MC_REQUEST_HH

/**
 * @file
 * BankArray implementation.
 */

#include "bank.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mopac
{

BankArray::BankArray(const TimingSet *normal, const TimingSet *cu,
                     unsigned count)
    : normal_(normal)
{
    MOPAC_ASSERT(normal != nullptr && cu != nullptr);
    MOPAC_ASSERT(count > 0 && count <= kMaxBanks);
    tras_by_cu_[0] = normal->tRAS;
    tras_by_cu_[1] = cu->tRAS;
    trp_by_cu_[0] = normal->tRP;
    trp_by_cu_[1] = cu->tRP;
    open_row_.assign(count, kInvalid32);
    open_since_.assign(count, 0);
    last_cas_.assign(count, 0);
    act_ready_.assign(count, 0);
    cas_ready_.assign(count, 0);
    pre_cas_constraint_.assign(count, 0);
    last_act_.assign(count, 0);
}

void
BankArray::act(unsigned b, Cycle now, std::uint32_t row)
{
    if (hasOpenRow(b)) {
        panic("ACT to bank with open row {} at cycle {}", open_row_[b],
              now);
    }
    if (now < act_ready_[b]) {
        panic("ACT at cycle {} violates act_ready {}", now,
              act_ready_[b]);
    }
    open_row_[b] = row;
    open_since_[b] = now;
    last_act_[b] = now;
    last_cas_[b] = now;
    cas_ready_[b] = now + normal_->tRCD;
    pre_cas_constraint_[b] = now;
    open_mask_ |= std::uint64_t{1} << b;
}

Cycle
BankArray::read(unsigned b, Cycle now)
{
    if (!hasOpenRow(b)) {
        panic("RD to closed bank at cycle {}", now);
    }
    if (now < cas_ready_[b]) {
        panic("RD at cycle {} violates cas_ready {}", now,
              cas_ready_[b]);
    }
    last_cas_[b] = now;
    pre_cas_constraint_[b] =
        std::max(pre_cas_constraint_[b], now + normal_->tRTP);
    return now + normal_->tCL + normal_->tBL;
}

Cycle
BankArray::write(unsigned b, Cycle now)
{
    if (!hasOpenRow(b)) {
        panic("WR to closed bank at cycle {}", now);
    }
    if (now < cas_ready_[b]) {
        panic("WR at cycle {} violates cas_ready {}", now,
              cas_ready_[b]);
    }
    last_cas_[b] = now;
    const Cycle burst_end = now + normal_->tCWL + normal_->tBL;
    pre_cas_constraint_[b] =
        std::max(pre_cas_constraint_[b], burst_end + normal_->tWR);
    return burst_end;
}

void
BankArray::pre(unsigned b, Cycle now, bool counter_update)
{
    if (!hasOpenRow(b)) {
        panic("PRE to closed bank at cycle {}", now);
    }
    if (now < preReadyAt(b, counter_update)) {
        panic("PRE at cycle {} violates pre_ready {}", now,
              preReadyAt(b, counter_update));
    }
    open_row_[b] = kInvalid32;
    act_ready_[b] =
        std::max(act_ready_[b],
                 now + trp_by_cu_[counter_update ? 1 : 0]);
    open_mask_ &= ~(std::uint64_t{1} << b);
}

void
BankArray::blockUntil(unsigned b, Cycle until)
{
    MOPAC_ASSERT(!hasOpenRow(b));
    act_ready_[b] = std::max(act_ready_[b], until);
}

void
BankArray::blockAllUntil(Cycle until)
{
    MOPAC_ASSERT(!anyOpen());
    for (Cycle &ready : act_ready_) {
        ready = std::max(ready, until);
    }
}

template <class Self, class Ar>
void
BankArray::transfer(Self &self, Ar &ar)
{
    // Byte-compatible with the former per-bank object layout: a bank
    // count, then the seven fields of each bank in turn.
    std::uint32_t nbanks = self.size();
    ar.u32(nbanks);
    if (Ar::kLoading && nbanks != self.size()) {
        throw SerializeError("sub-channel bank count mismatch");
    }
    std::uint64_t open_mask = 0;
    for (unsigned b = 0; b < self.size(); ++b) {
        ar.u32(self.open_row_[b]);
        ar.u64(self.open_since_[b]);
        ar.u64(self.last_cas_[b]);
        ar.u64(self.act_ready_[b]);
        ar.u64(self.cas_ready_[b]);
        ar.u64(self.pre_cas_constraint_[b]);
        ar.u64(self.last_act_[b]);
        if (self.open_row_[b] != kInvalid32) {
            open_mask |= std::uint64_t{1} << b;
        }
    }
    if constexpr (Ar::kLoading) {
        self.open_mask_ = open_mask;
    }
}

MOPAC_TRANSFER_INSTANTIATE(BankArray);

} // namespace mopac

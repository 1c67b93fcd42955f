/**
 * @file
 * Cpu implementation.
 */

#include "cpu.hh"

#include "common/log.hh"

namespace mopac
{

Cpu::Cpu(const CoreParams &params,
         const std::vector<TraceSource *> &traces,
         std::uint64_t target_insts, RequestSink *sink,
         std::uint64_t warmup_insts, Cycle lookahead)
    : target_(target_insts), warmup_(warmup_insts), lookahead_(lookahead)
{
    MOPAC_ASSERT(!traces.empty());
    cores_.reserve(traces.size());
    for (unsigned i = 0; i < traces.size(); ++i) {
        cores_.emplace_back(i, params, traces[i], target_insts, sink);
        done_count_ += cores_.back().done() ? 1 : 0;
    }
    wake_.assign(cores_.size(), 0);
}

std::vector<double>
Cpu::measuredIpcs() const
{
    std::vector<double> out;
    out.reserve(cores_.size());
    for (const auto &core : cores_) {
        out.push_back(core.measuredIpc());
    }
    return out;
}

} // namespace mopac

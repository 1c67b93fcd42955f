/**
 * @file
 * Synthetic trace generator implementations.
 */

#include "synth.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mopac
{

namespace
{

/** Exponential instruction gap with mean 1000/MPKI, capped. */
std::uint32_t
exponentialGap(Rng &rng, double mean_gap)
{
    const double u = rng.uniform();
    const double g = -std::log(1.0 - u) * mean_gap;
    return static_cast<std::uint32_t>(
        std::min(g, 200000.0));
}

/** Geometric burst length with the given mean (>= 1). */
unsigned
geometricBurst(Rng &rng, double mean)
{
    if (mean <= 1.0) {
        return 1;
    }
    const double q = 1.0 - 1.0 / mean;
    const double u = rng.uniform();
    const double len = 1.0 + std::floor(std::log(1.0 - u) / std::log(q));
    return static_cast<unsigned>(std::clamp(len, 1.0, 512.0));
}

} // namespace

BurstTraceSource::BurstTraceSource(const WorkloadSpec &spec,
                                   const AddressMap &map,
                                   unsigned core_id, unsigned num_cores,
                                   std::uint64_t seed)
    : spec_(spec), map_(map), rng_(seed)
{
    const Geometry &geo = map.geometry();
    const std::uint32_t rows_per_core =
        geo.rows_per_bank / std::max(1u, num_cores);
    MOPAC_ASSERT(rows_per_core > 0);
    row_base_ = core_id * rows_per_core;
    footprint_ =
        std::min<std::uint32_t>(spec_.footprint_rows, rows_per_core);
    MOPAC_ASSERT(footprint_ > 0);
    lines_per_row_ = geo.linesPerRow();
    spec_.hot_rows = std::min(spec_.hot_rows, footprint_);
}

void
BurstTraceSource::startBurst()
{
    const Geometry &geo = map_.geometry();
    if (spec_.hot_rows > 0 && rng_.chance(spec_.hot_frac)) {
        // Skewed hot set: density rises toward index 0 so a few rows
        // collect disproportionate activations (the ACT-200+ tail).
        // Each hot row is a fixed physical (sub-channel, bank, row):
        // real hot pages live in one bank, which is what produces the
        // paper's per-bank ACT-64+ counts.
        const double u = rng_.uniform();
        std::uint32_t idx = static_cast<std::uint32_t>(
            static_cast<double>(spec_.hot_rows) * u * u);
        idx = std::min(idx, spec_.hot_rows - 1);
        std::uint64_t h = 0x9E3779B97F4A7C15ull *
                          (idx + 0x51ED2701u);
        h ^= h >> 29;
        coord_.row = row_base_ + idx;
        coord_.bank = static_cast<unsigned>(
            h % geo.banks_per_subchannel);
        coord_.subchannel = static_cast<unsigned>(
            (h >> 8) % geo.num_subchannels);
    } else {
        // Cold traffic avoids the hot region so hot rows stay pinned
        // to their one bank (and their activation counts undiluted).
        const std::uint32_t cold_span = footprint_ - spec_.hot_rows;
        const std::uint32_t idx =
            cold_span > 0
                ? spec_.hot_rows +
                      static_cast<std::uint32_t>(rng_.below(cold_span))
                : static_cast<std::uint32_t>(rng_.below(footprint_));
        coord_.row = row_base_ + idx;
        coord_.bank = static_cast<unsigned>(
            rng_.below(geo.banks_per_subchannel));
        coord_.subchannel =
            static_cast<unsigned>(rng_.below(geo.num_subchannels));
    }
    coord_.column =
        static_cast<std::uint32_t>(rng_.below(lines_per_row_));
    burst_left_ = geometricBurst(rng_, spec_.burst_len);
}

std::uint32_t
BurstTraceSource::sampleGap()
{
    const double mean_gap = 1000.0 / spec_.mpki;
    if (spec_.cluster <= 1.0) {
        return exponentialGap(rng_, mean_gap);
    }
    // Clustered misses: a group of back-to-back misses (high MLP)
    // followed by a proportionally longer compute gap.
    if (cluster_left_ > 0) {
        --cluster_left_;
        return static_cast<std::uint32_t>(rng_.below(4));
    }
    cluster_left_ = geometricBurst(rng_, spec_.cluster);
    const unsigned len = cluster_left_;
    --cluster_left_;
    return exponentialGap(rng_, mean_gap * static_cast<double>(len));
}

TraceRecord
BurstTraceSource::next()
{
    bool burst_start = false;
    if (burst_left_ == 0) {
        startBurst();
        burst_start = true;
    }
    TraceRecord rec;
    rec.inst_gap = sampleGap();
    rec.line_addr = map_.encode(coord_);
    rec.is_write = rng_.chance(spec_.write_frac);
    // Dependence attaches to row-crossing accesses (pointer jumps);
    // the spatial accesses inside a burst issue together, like the
    // cache lines of one object streaming out of the ROB.
    rec.depends_on_prev =
        burst_start && !rec.is_write && rng_.chance(spec_.dep_frac);
    coord_.column = (coord_.column + 1) % lines_per_row_;
    --burst_left_;
    return rec;
}

StreamTraceSource::StreamTraceSource(const WorkloadSpec &spec,
                                     const AddressMap &map,
                                     unsigned core_id,
                                     unsigned num_cores,
                                     std::uint64_t seed)
    : spec_(spec), map_(map), rng_(seed)
{
    const Geometry &geo = map.geometry();
    const std::uint32_t rows_per_core =
        geo.rows_per_bank / std::max(1u, num_cores);
    // A core's row slice is contiguous in line-address space because
    // the row occupies the top bits of the MOP layout.
    const Addr lines_per_row_all_banks =
        map.numLines() / geo.rows_per_bank;
    region_base_ = static_cast<Addr>(core_id) * rows_per_core *
                   lines_per_row_all_banks;
    const std::uint32_t rows =
        std::min<std::uint32_t>(spec_.footprint_rows, rows_per_core);
    region_lines_ = static_cast<Addr>(rows) * lines_per_row_all_banks;
    MOPAC_ASSERT(region_lines_ > 0);
    // Start each core at a random phase of its region: real rate-mode
    // copies are never lock-step, and aligned phases make every core
    // hit the same bank in the same cycle.
    pos_ = rng_.below(region_lines_);
}

TraceRecord
StreamTraceSource::next()
{
    TraceRecord rec;
    rec.inst_gap = exponentialGap(rng_, 1000.0 / spec_.mpki);
    rec.line_addr = region_base_ + pos_;
    pos_ = (pos_ + 1) % region_lines_;
    rec.is_write = rng_.chance(spec_.write_frac);
    rec.depends_on_prev = false;
    return rec;
}

std::unique_ptr<TraceSource>
makeTraceSource(const WorkloadSpec &spec, const AddressMap &map,
                unsigned core_id, unsigned num_cores,
                std::uint64_t seed)
{
    if (spec.streaming) {
        return std::make_unique<StreamTraceSource>(spec, map, core_id,
                                                   num_cores, seed);
    }
    return std::make_unique<BurstTraceSource>(spec, map, core_id,
                                              num_cores, seed);
}

std::vector<std::unique_ptr<TraceSource>>
makeWorkloadTraces(const std::string &name, const AddressMap &map,
                   unsigned num_cores, std::uint64_t seed)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.reserve(num_cores);
    Rng seeder(seed);

    // Mix workloads assign a different spec per core.
    for (const auto &[mix_name, members] : mixTable()) {
        if (mix_name == name) {
            for (unsigned i = 0; i < num_cores; ++i) {
                const WorkloadSpec &spec =
                    findWorkload(members[i % members.size()]);
                traces.push_back(makeTraceSource(spec, map, i,
                                                 num_cores,
                                                 seeder.next()));
            }
            return traces;
        }
    }

    // Rate mode: the same program on every core.
    const WorkloadSpec &spec = findWorkload(name);
    for (unsigned i = 0; i < num_cores; ++i) {
        traces.push_back(
            makeTraceSource(spec, map, i, num_cores, seeder.next()));
    }
    return traces;
}

template <class Self, class Ar>
void
BurstTraceSource::transfer(Self &self, Ar &ar)
{
    Rng::transfer(self.rng_, ar);
    std::uint32_t row_base = self.row_base_;
    std::uint32_t footprint = self.footprint_;
    std::uint32_t lines_per_row = self.lines_per_row_;
    ar.u32(row_base);
    ar.u32(footprint);
    ar.u32(lines_per_row);
    if (Ar::kLoading && (row_base != self.row_base_ ||
                         footprint != self.footprint_ ||
                         lines_per_row != self.lines_per_row_)) {
        throw SerializeError(format(
            "burst trace layout mismatch (saved {}/{}/{}, live "
            "{}/{}/{})", row_base, footprint, lines_per_row,
            self.row_base_, self.footprint_, self.lines_per_row_));
    }
    ar.u32(self.cluster_left_);
    ar.u32(self.coord_.subchannel);
    ar.u32(self.coord_.bank);
    ar.u32(self.coord_.row);
    ar.u32(self.coord_.column);
    ar.u32(self.burst_left_);
}

MOPAC_TRANSFER_INSTANTIATE(BurstTraceSource);

template <class Self, class Ar>
void
StreamTraceSource::transfer(Self &self, Ar &ar)
{
    Rng::transfer(self.rng_, ar);
    Addr region_base = self.region_base_;
    Addr region_lines = self.region_lines_;
    ar.u64(region_base);
    ar.u64(region_lines);
    if (Ar::kLoading && (region_base != self.region_base_ ||
                         region_lines != self.region_lines_)) {
        throw SerializeError(format(
            "stream trace region mismatch (saved {}+{}, live {}+{})",
            region_base, region_lines, self.region_base_,
            self.region_lines_));
    }
    ar.u64(self.pos_);
}

MOPAC_TRANSFER_INSTANTIATE(StreamTraceSource);

} // namespace mopac

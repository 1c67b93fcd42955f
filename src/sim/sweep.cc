/**
 * @file
 * Sweep expansion and config signatures.
 */

#include "sweep.hh"

#include "common/format.hh"
#include "common/rng.hh"

namespace mopac
{

std::vector<ExperimentPoint>
SweepSpec::expand() const
{
    std::vector<ExperimentPoint> points;
    points.reserve(configs.size() * workloads.size());
    std::uint64_t id = 0;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (const NamedConfig &named : configs) {
            ExperimentPoint point;
            point.point_id = id;
            point.config_label = named.label;
            point.workload = workloads[w];
            point.cfg = named.cfg;
            const std::uint64_t stream =
                seed_policy == SeedPolicy::kPerWorkload ? w : id;
            point.cfg.seed = Rng::streamSeed(master_seed, stream);
            points.push_back(std::move(point));
            ++id;
        }
    }
    return points;
}

std::string
configSignature(const SystemConfig &cfg)
{
    return format(
        "m={} trh={} ath={} ath*={} srq={} tth={} drain={} nup={} "
        "rp={} smp={} mc={}/{}/{}/{}/{}/{} core={}/{}/{} n={} i={} "
        "w={} s={} mx={} ep={}/{}/{}/{} g={}/{}/{}/{}/{}/{}/{} "
        "wd={}/{}",
        toString(cfg.mitigation), cfg.trh, cfg.ath_override,
        cfg.ath_star_override, cfg.srq_capacity, cfg.tth,
        cfg.drain_per_ref, cfg.nup ? 1 : 0, cfg.rowpress ? 1 : 0,
        static_cast<int>(cfg.sampler), cfg.mc.read_queue_cap,
        cfg.mc.write_queue_cap, cfg.mc.wq_drain_high,
        cfg.mc.wq_drain_low, static_cast<int>(cfg.mc.page_policy),
        cfg.mc.timeout_ton, cfg.core.rob_entries, cfg.core.width,
        cfg.core.mshrs, cfg.num_cores, cfg.insts_per_core,
        cfg.warmup_insts, cfg.seed, cfg.max_cycles,
        cfg.track_epoch_stats ? 1 : 0, cfg.epoch_cycles, cfg.epoch_hi1,
        cfg.epoch_hi2, cfg.geometry.num_subchannels,
        cfg.geometry.banks_per_subchannel, cfg.geometry.rows_per_bank,
        cfg.geometry.row_bytes, cfg.geometry.line_bytes,
        cfg.geometry.mop_lines, cfg.geometry.chips,
        cfg.watchdog_cycles, cfg.watchdog_tail) +
        " " + cfg.faults.signature();
}

} // namespace mopac

/**
 * @file
 * AttackRunner implementation.
 */

#include "attack.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/profile.hh"

namespace mopac
{

AttackRunner::AttackRunner(const SystemConfig &cfg)
    : system_(cfg, /*traces=*/{})
{
}

AttackResult
AttackRunner::run(AttackPattern &pattern, Cycle duration,
                  unsigned max_inflight)
{
    MOPAC_ASSERT(duration > 0);
    drive(pattern, duration, max_inflight);

    const RunResult stats = system_.collectStats(duration);
    AttackResult res;
    res.cycles = duration;
    res.acts = stats.acts;
    res.alerts = stats.alerts;
    res.rfms = stats.rfms;
    res.mitigations = stats.mitigations;
    res.max_unmitigated = stats.max_unmitigated;
    res.violations = stats.violations;
    res.faults_injected = stats.faults_injected;
    const double us =
        cyclesToNs(duration) / 1000.0;
    res.acts_per_us = us > 0.0 ? static_cast<double>(stats.acts) / us
                               : 0.0;
    return res;
}

// mopac: hot-path
void
AttackRunner::drive(AttackPattern &pattern, Cycle duration,
                    unsigned max_inflight)
{
    const bool event_mode = system_.config().engine == SimEngine::kEvent;
    const unsigned nsub = system_.numSubchannels();
    SimProfile &prof = simProfile();
    auto target_of = [&](const Request &req) -> Controller & {
        return system_.controller(
            system_.addressMap().decode(req.line_addr).subchannel);
    };
    Request pending = pattern.next();
    Controller *target = &target_of(pending);

    Cycle now = 0;
    while (now < duration) {
        // Keep the head of the pattern flowing into its sub-channel's
        // read queue, preserving pattern order.
        while (target->readQueueDepth() < max_inflight &&
               target->enqueue(pending, now)) {
            pending = pattern.next();
            target = &target_of(pending);
        }
        Cycle next = kNeverCycle;
        for (unsigned s = 0; s < nsub; ++s) {
            Controller &mc = system_.controller(s);
            mc.tick(now);
            next = std::min(next, mc.nextWakeAt());
        }
        ++now;
        ++prof.cycles_run;
        // The head leaves this loop blocked, and only a tick that
        // issues a CAS frees a queue slot -- such a tick wakes its
        // controller at now + 1.  So every cycle before the earliest
        // wakeup is a no-op in the tick engine: a failed enqueue and
        // controller ticks that early-return.  Jumping over it is
        // exact.
        if (event_mode && next > now) {
            const Cycle wake = std::min(next, duration);
            prof.cycles_skipped += wake - now;
            now = wake;
        }
    }
}

} // namespace mopac

/**
 * @file
 * Profiler report formatting (see profile.hh for the counter contract).
 */

#include "profile.hh"

#include "common/format.hh"

namespace mopac
{

void
SimProfile::add(const SimProfile &o)
{
    cycles_run += o.cycles_run;
    cycles_skipped += o.cycles_skipped;
    event_maint += o.event_maint;
    core_ticks += o.core_ticks;
    core_active_ticks += o.core_active_ticks;
    core_issue_scans += o.core_issue_scans;
    core_issue_steps += o.core_issue_steps;
    core_release_scans += o.core_release_scans;
    core_ff_windows += o.core_ff_windows;
    core_ff_cycles += o.core_ff_cycles;
    mc_ticks += o.mc_ticks;
    mc_sched_passes += o.mc_sched_passes;
    mc_cas_candidates += o.mc_cas_candidates;
    mc_act_candidates += o.mc_act_candidates;
    mc_queue_cycles += o.mc_queue_cycles;
    mc_mark_walks += o.mc_mark_walks;
    mc_mark_steps += o.mc_mark_steps;
}

namespace
{

double
per(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) /
                                static_cast<double>(den);
}

} // namespace

std::string
profileReport(const SimProfile &p, double wall_seconds)
{
    const std::uint64_t total = p.cycles_run + p.cycles_skipped;
    std::string out;
    out += "cycle attribution\n";
    out += format("  cycles simulated        {:>14}\n", total);
    out += format("  cycles executed         {:>14}  ({:.1f}%)\n",
                  p.cycles_run, 100.0 * per(p.cycles_run, total));
    out += format("  cycles skipped (event)  {:>14}  ({:.1f}%)\n",
                  p.cycles_skipped, 100.0 * per(p.cycles_skipped, total));
    out += format("  next-event computations {:>14}  ({:.3f}/exec cycle)\n",
                  p.event_maint, per(p.event_maint, p.cycles_run));
    out += "core model\n";
    out += format("  ticks                   {:>14}  (active {:.1f}%)\n",
                  p.core_ticks,
                  100.0 * per(p.core_active_ticks, p.core_ticks));
    out += format("  issue scans             {:>14}  ({:.2f}/tick)\n",
                  p.core_issue_scans,
                  per(p.core_issue_scans, p.core_ticks));
    out += format("  issue steps             {:>14}  ({:.2f}/scan)\n",
                  p.core_issue_steps,
                  per(p.core_issue_steps, p.core_issue_scans));
    out += format("  MSHR release scans      {:>14}\n",
                  p.core_release_scans);
    out += format("  fast-forward windows    {:>14}  ({:.1f} cycles each)\n",
                  p.core_ff_windows,
                  per(p.core_ff_cycles, p.core_ff_windows));
    out += format("  fast-forwarded cycles   {:>14}  ({:.2f}/tick)\n",
                  p.core_ff_cycles, per(p.core_ff_cycles, p.core_ticks));
    out += "memory controller\n";
    out += format("  awake ticks             {:>14}\n", p.mc_ticks);
    out += format("  scheduler passes        {:>14}\n", p.mc_sched_passes);
    out += format("  CAS candidates          {:>14}  ({:.2f}/pass)\n",
                  p.mc_cas_candidates,
                  per(p.mc_cas_candidates, p.mc_sched_passes));
    out += format("  ACT candidates          {:>14}  ({:.2f}/pass)\n",
                  p.mc_act_candidates,
                  per(p.mc_act_candidates, p.mc_sched_passes));
    out += format("  mean queue depth        {:>14.2f}\n",
                  per(p.mc_queue_cycles, p.mc_sched_passes));
    out += format("  mark rewalks            {:>14}  ({:.2f}/pass)\n",
                  p.mc_mark_walks,
                  per(p.mc_mark_walks, p.mc_sched_passes));
    out += format("  mark steps              {:>14}  ({:.2f}/walk)\n",
                  p.mc_mark_steps,
                  per(p.mc_mark_steps, p.mc_mark_walks));
    if (wall_seconds > 0.0 && total > 0) {
        out += "rates\n";
        out += format("  sim cycles / sec        {:>14.3e}\n",
                      static_cast<double>(total) / wall_seconds);
        out += format("  ns / executed cycle     {:>14.2f}\n",
                      1e9 * wall_seconds /
                          static_cast<double>(
                              p.cycles_run ? p.cycles_run : 1));
    }
    return out;
}

} // namespace mopac

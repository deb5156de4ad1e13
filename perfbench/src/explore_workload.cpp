// The explore_sweep world: a fault-interleaving sweep of the canonical
// request-manager world.
//
// The sweep enumerates canonical_enumeration() up to the schedule budget
// (the canonical ~220 singles and pairs, then the seeded random tier) and
// checks every schedule with the invariant harness, the deterministic
// replay applied to every 8th.  This is explore::run_sweep's loop without
// the shrinker (which runs only on a violation), written out so that each
// schedule's host time and its ScheduleRun manifest counters are visible.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bytebuf.hpp"
#include "sim/explore/enumerate.hpp"
#include "sim/explore/invariants.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace esg;

constexpr std::size_t kSchedules = 2000;
constexpr std::size_t kDeterminismStride = 8;

}  // namespace

WorldResult run_explore_world(const Options& options, HostTrace& trace,
                              SpeedProbe& probe) {
  WorldResult r(trace);
  const std::size_t budget = options.schedules > 0
                                 ? static_cast<std::size_t>(options.schedules)
                                 : kSchedules;
  r.step_ms.reserve(budget);

  r.phases.start();
  explore::EnumerationConfig config = explore::canonical_enumeration();
  config.budget = budget;
  config.sim_seed = options.seed;
  config.sweep_seed = options.seed;
  std::vector<explore::FaultSchedule> schedules;
  {
    Scope s(trace, "explore.enumerate");
    schedules = explore::enumerate_schedules(config);
  }
  r.phases.setup_done();

  std::size_t invariants = 0, replays = 0, violations = 0, terminated = 0;
  double rm_completed = 0, rm_retries = 0, rm_stage_retries = 0,
         rm_breaker_opens = 0, hrm_misses = 0, purges = 0, started = 0,
         completed = 0, retries = 0, restarts = 0, reused = 0, verified = 0,
         flight_events = 0, spans_dropped = 0;
  std::uint64_t schedules_hash = common::fnv1a64("esg.explore.sweep.v1");
  std::uint64_t outcome_digest = schedules_hash;
  std::vector<std::string> violation_lines;
  double t = steady_seconds();
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    explore::InvariantOptions opts;
    opts.check_determinism = i % kDeterminismStride == 0;
    explore::CheckResult check;
    {
      Scope s(trace, "explore.check_schedule");
      check = explore::check_schedule(schedules[i], opts);
    }
    r.step_ms.push_back((steady_seconds() - t) * 1e3);
    probe.between_steps();
    t = steady_seconds();

    invariants += static_cast<std::size_t>(check.invariants_checked);
    replays += opts.check_determinism ? 1 : 0;
    const std::uint64_t h = schedules[i].hash();
    schedules_hash = common::fnv1a64(&h, sizeof h, schedules_hash);
    outcome_digest = common::fnv1a64(&check.run.flight_digest,
                                     sizeof check.run.flight_digest,
                                     outcome_digest);
    const explore::ScheduleRun& run = check.run;
    if (run.terminated) ++terminated;
    if (!check.violations.empty()) {
      ++violations;
      for (const auto& v : check.violations) {
        violation_lines.push_back(schedules[i].hash_hex() + " " +
                                  v.invariant + ": " + v.detail);
      }
    } else if (run.terminated) {
      r.items += 1.0;
    }
    r.sim_s += common::to_seconds(run.finished_at);
    const obs::MetricsSnapshot& m = run.manifest.metrics;
    rm_completed += m.family_total("rm_files_completed_total");
    rm_retries += m.family_total("rm_retries_total");
    rm_stage_retries += m.family_total("rm_stage_retries_total");
    rm_breaker_opens += m.family_total("rm_breaker_open_total");
    hrm_misses += m.family_total("hrm_cache_misses_total");
    purges += m.family_total("sim_queue_purges");
    started += m.family_total("gridftp_transfers_started_total");
    completed += m.family_total("gridftp_transfers_completed_total");
    retries += m.family_total("gridftp_retries_total");
    restarts += m.family_total("gridftp_restarts_total");
    reused += m.family_total("gridftp_channels_reused_total");
    verified += m.family_total("gridftp_checksums_verified_total");
    spans_dropped += m.family_total("obs_trace_dropped");
    flight_events += static_cast<double>(run.manifest.events_recorded);
  }
  r.phases.run_done();
  r.phases.post_done();

  r.attempted = static_cast<double>(schedules.size());
  if (schedules.size() != budget) {
    r.failures.push_back("enumerated " + std::to_string(schedules.size()) +
                         " of " + std::to_string(budget) + " schedules");
  }
  if (terminated != schedules.size()) {
    r.failures.push_back(std::to_string(schedules.size() - terminated) +
                         " schedules did not terminate");
  }
  for (const auto& line : violation_lines) {
    r.failures.push_back("violation " + line);
  }

  r.counts = {
      {"sim.queue_purges", purges},
      {"gridftp.started", started},
      {"gridftp.retries", retries},
      {"gridftp.restarts", restarts},
      {"gridftp.channels_reused", reused},
      {"gridftp.checksums_verified", verified},
      {"gridftp.useful_ratio", started > 0 ? completed / started : 0.0},
      {"rm.files_completed", rm_completed},
      {"rm.retries", rm_retries},
      {"rm.stage_retries", rm_stage_retries},
      {"rm.breaker_opens", rm_breaker_opens},
      {"hrm.cache_misses", hrm_misses},
      {"obs.spans_dropped", spans_dropped},
      {"obs.flight_events", flight_events},
      {"explore.invariants_checked", static_cast<double>(invariants)},
      {"explore.determinism_replays", static_cast<double>(replays)},
      {"explore.violations", static_cast<double>(violations)},
  };
  r.times = {
      {"explore.enumerate_s", trace.seconds("explore.enumerate")},
  };
  char identity[256];
  std::snprintf(identity, sizeof identity,
                "sim finish %.9f s summed over %zu schedules, outcome digest "
                "%016" PRIx64 ", schedule-set hash %016" PRIx64
                ", flight events %.0f",
                r.sim_s, schedules.size(), outcome_digest, schedules_hash,
                flight_events);
  r.identity = identity;
  return r;
}

}  // namespace perfbench

#include "sim/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common/bytebuf.hpp"

namespace esg::sim {

namespace {

std::string fmt_magnitude(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::brownout: return "brownout";
    case FaultKind::loss_spike: return "loss_spike";
    case FaultKind::service_crash: return "service_crash";
    case FaultKind::stage_stall: return "stage_stall";
    case FaultKind::corruption: return "corruption";
  }
  return "unknown";
}

common::Result<FaultKind> parse_fault_kind(std::string_view name) {
  for (int i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    if (name == fault_kind_name(kind)) return kind;
  }
  return common::make_error(common::Errc::invalid_argument,
                            "unknown fault kind '" + std::string(name) + "'");
}

void normalize_fault(FaultEvent& event) {
  if (event.start < 0) event.start = 0;
  if (event.duration < 0) event.duration = 0;
  if (!fault_kind_durable(event.kind)) event.duration = 0;
  if (event.magnitude == 0.0) event.magnitude = 0.0;  // -0.0 -> +0.0
}

FaultInjector& FaultInjector::add(FaultEvent event) {
  normalize_fault(event);
  plan_.push_back(std::move(event));
  return *this;
}

FaultInjector& FaultInjector::clamp_to(SimTime horizon) {
  if (horizon < 0) horizon = 0;
  for (auto& e : plan_) {
    if (e.start > horizon) e.start = horizon;
    if (e.duration > horizon - e.start) e.duration = horizon - e.start;
  }
  return *this;
}

void FaultInjector::generate_kind(FaultKind kind, const FaultProfile& profile,
                                  SimTime horizon) {
  if (profile.mean_interval <= 0 || profile.targets.empty()) return;
  const double mean = static_cast<double>(profile.mean_interval);
  double t = rng_.exponential(mean);
  while (static_cast<SimTime>(t) < horizon) {
    FaultEvent e;
    e.kind = kind;
    e.target = profile.targets[rng_.uniform_int(profile.targets.size())];
    e.start = static_cast<SimTime>(t);
    e.duration = static_cast<SimDuration>(
        rng_.uniform(static_cast<double>(profile.min_duration),
                     static_cast<double>(profile.max_duration)));
    e.magnitude = rng_.uniform(profile.min_magnitude, profile.max_magnitude);
    e.description = std::string(fault_kind_name(kind)) + " on " + e.target;
    normalize_fault(e);
    plan_.push_back(std::move(e));
    t += rng_.exponential(mean);
  }
}

void FaultInjector::generate(const ChaosProfile& profile, SimTime horizon) {
  // Fixed kind order keeps the Rng draw sequence (and thus the plan) a pure
  // function of the seed.
  generate_kind(FaultKind::brownout, profile.brownout, horizon);
  generate_kind(FaultKind::loss_spike, profile.loss_spike, horizon);
  generate_kind(FaultKind::service_crash, profile.service_crash, horizon);
  generate_kind(FaultKind::stage_stall, profile.stage_stall, horizon);
  generate_kind(FaultKind::corruption, profile.corruption, horizon);
  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start < b.start;
                   });
}

std::uint64_t FaultInjector::timeline_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& e : plan_) {
    const auto kind = static_cast<std::uint32_t>(e.kind);
    h = common::fnv1a64(&kind, sizeof(kind), h);
    h = common::fnv1a64(e.target.data(), e.target.size(), h);
    h = common::fnv1a64(&e.start, sizeof(e.start), h);
    h = common::fnv1a64(&e.duration, sizeof(e.duration), h);
    h = common::fnv1a64(&e.magnitude, sizeof(e.magnitude), h);
  }
  return h;
}

void FaultInjector::arm(Simulation& simulation, FaultHooks hooks) const {
  auto& metrics = simulation.metrics();
  auto* recorder = &simulation.flight_recorder();
  auto* active_gauge = &metrics.gauge("chaos_active_faults");
  // Overlap reference counting per (kind, target), like FailureSchedule.
  auto depth = std::make_shared<std::map<std::string, int>>();
  auto shared_hooks = std::make_shared<FaultHooks>(std::move(hooks));

  auto durable = [&](const FaultEvent& e,
                     std::function<void(const FaultEvent&, bool)>
                         FaultHooks::* hook) {
    const std::string key =
        std::string(fault_kind_name(e.kind)) + "|" + e.target;
    const std::string stem = std::string("fault.") + fault_kind_name(e.kind);
    auto* injected =
        &metrics.counter("chaos_faults_injected_total",
                         {{"kind", fault_kind_name(e.kind)}});
    // Windows already in the past clamp to now(): begin fires immediately
    // and, because begin is scheduled before end, still strictly first.
    const SimTime begin_at = std::max(e.start, simulation.now());
    simulation.schedule_at(
        begin_at, [e, key, stem, depth, shared_hooks, hook, injected,
                   active_gauge, recorder] {
          injected->add();
          active_gauge->add(1.0);
          recorder->record("chaos", stem + ".begin", e.target,
                           {{"magnitude", fmt_magnitude(e.magnitude)},
                            {"description", e.description}});
          if (++(*depth)[key] == 1 && (*shared_hooks).*hook) {
            ((*shared_hooks).*hook)(e, true);
          }
        });
    simulation.schedule_at(
        std::max(e.start + e.duration, begin_at),
        [e, key, stem, depth, shared_hooks, hook, active_gauge, recorder] {
          active_gauge->add(-1.0);
          recorder->record("chaos", stem + ".end", e.target);
          if (--(*depth)[key] == 0 && (*shared_hooks).*hook) {
            ((*shared_hooks).*hook)(e, false);
          }
        });
  };

  for (const auto& e : plan_) {
    switch (e.kind) {
      case FaultKind::brownout: durable(e, &FaultHooks::brownout); break;
      case FaultKind::loss_spike: durable(e, &FaultHooks::loss_spike); break;
      case FaultKind::service_crash:
        durable(e, &FaultHooks::service_crash);
        break;
      case FaultKind::stage_stall: durable(e, &FaultHooks::stage_stall); break;
      case FaultKind::corruption: {
        auto* injected = &metrics.counter("chaos_faults_injected_total",
                                          {{"kind", "corruption"}});
        simulation.schedule_at(
            std::max(e.start, simulation.now()),
            [e, shared_hooks, injected, recorder] {
              injected->add();
              // Record, then call the hook: consumers armed inside it link
              // to this event (see FaultHooks).
              recorder->record("chaos", "fault.corruption", e.target,
                               {{"description", e.description}});
              if (shared_hooks->corruption) shared_hooks->corruption(e);
            });
        break;
      }
    }
  }
}

bool FaultInjector::active(FaultKind kind, const std::string& target,
                           SimTime t) const {
  for (const auto& e : plan_) {
    if (e.kind == kind && e.target == target && t >= e.start &&
        t < e.start + e.duration) {
      return true;
    }
  }
  return false;
}

}  // namespace esg::sim

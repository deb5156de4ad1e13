// Chaos engine: seeded, deterministic fault injection beyond binary outages.
//
// FailureSchedule scripts up/down outages (Figure 8's power failure); real
// deployments mostly suffer *degraded* states instead — links that brown out
// to a fraction of capacity, loss-rate spikes, services that crash and come
// back with empty state, tape libraries that stall, and payloads corrupted
// in flight.  The FaultInjector models all of these as timed FaultEvents.
//
// The injector is target-agnostic: sim cannot depend on net/gridftp/hrm, so
// each fault kind maps to a FaultHooks callback and the composition (which
// link browns out, which server crashes) happens where the stack is
// assembled — benches and tests.  A plan is either scripted via add() or
// generated from a ChaosProfile using the injector's private Rng, so a seed
// fully determines the fault timeline (assertable via timeline_hash()).
// Overlapping same-kind faults on one target are reference-counted exactly
// like FailureSchedule outages: the end hook fires when the last one lifts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace esg::sim {

enum class FaultKind {
  brownout,       // resource degraded to a fraction of nominal capacity
  loss_spike,     // elevated packet-loss probability on a link
  service_crash,  // a service dies (losing state) and later restarts
  stage_stall,    // a tape library stops dispatching queued stages
  corruption,     // payload bytes flipped in flight (instantaneous)
};

inline constexpr int kFaultKindCount = 5;

const char* fault_kind_name(FaultKind kind);
/// Inverse of fault_kind_name (used by serialized fault schedules).
common::Result<FaultKind> parse_fault_kind(std::string_view name);
/// Durable kinds hold a [start, start+duration) window; corruption fires
/// once at its start time.
inline bool fault_kind_durable(FaultKind kind) {
  return kind != FaultKind::corruption;
}

struct FaultEvent {
  FaultKind kind = FaultKind::brownout;
  std::string target;        // link / host / service name, hook-interpreted
  SimTime start = 0;
  SimDuration duration = 0;  // ignored for corruption (instantaneous)
  /// Kind-specific: brownout = remaining capacity fraction in [0,1];
  /// loss_spike = loss probability; others unused.
  double magnitude = 0.0;
  std::string description;
};

/// Callbacks invoked at fault transitions.  Durable kinds get (event, begin);
/// corruption fires once at its start time.  Unset hooks are skipped (the
/// fault still counts in the chaos metrics).
///
/// Corruption contract: the injector records the `fault.corruption` flight
/// event and then calls `corruption` synchronously, so inside the hook that
/// event is the newest one in the recorder, stamped now().  A hook that arms
/// a consumer (GridFtpClient::inject_corruption) must do so before recording
/// anything else; the consumer links to that event's seq, which is how the
/// resulting symptom names its exact cause.
struct FaultHooks {
  std::function<void(const FaultEvent&, bool begin)> brownout;
  std::function<void(const FaultEvent&, bool begin)> loss_spike;
  std::function<void(const FaultEvent&, bool begin)> service_crash;
  std::function<void(const FaultEvent&, bool begin)> stage_stall;
  std::function<void(const FaultEvent&)> corruption;
};

/// Generation knobs for one fault kind: events arrive as a Poisson process
/// with the given mean interval, durations and magnitudes drawn uniformly.
struct FaultProfile {
  std::vector<std::string> targets;
  SimDuration mean_interval = 0;  // 0 = kind disabled
  SimDuration min_duration = 30 * common::kSecond;
  SimDuration max_duration = 2 * common::kMinute;
  double min_magnitude = 0.0;
  double max_magnitude = 0.0;
};

struct ChaosProfile {
  FaultProfile brownout;
  FaultProfile loss_spike;
  FaultProfile service_crash;
  FaultProfile stage_stall;
  FaultProfile corruption;
};

/// Canonicalize one event in place: negative starts/durations clamp to 0,
/// a -0.0 magnitude becomes +0.0 (so timeline_hash() is stable for plans
/// that are equal as fault windows), and corruption durations are zeroed.
/// add() and generate() apply this to everything entering a plan.
void normalize_fault(FaultEvent& event);

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Script an explicit fault (normalized; see normalize_fault).
  FaultInjector& add(FaultEvent event);

  /// Draw a randomized fault plan over [0, horizon) from the profile.  The
  /// injector's seed determines the plan; repeatable and order-stable.
  void generate(const ChaosProfile& profile, SimTime horizon);

  const std::vector<FaultEvent>& plan() const { return plan_; }

  /// Clamp every planned window to [0, horizon]: starts past the horizon
  /// snap to it and durations truncate so no window extends beyond it.  A
  /// window collapsed to zero length stays in the plan (it still counts,
  /// hashes, and fires begin-then-end at one instant) rather than being
  /// silently dropped — schedule enumerators rely on that determinism.
  FaultInjector& clamp_to(SimTime horizon);

  /// Fingerprint of the plan (kinds, targets, times, magnitudes) — two runs
  /// with the same seed must agree on it.
  std::uint64_t timeline_hash() const;

  /// Arm every planned fault on `simulation`.  Also records per-kind
  /// `chaos_faults_injected_total` counters and the `chaos_active_faults`
  /// gauge in the simulation's metrics registry.  Windows already in the
  /// simulation's past clamp to now() instead of asserting: the begin (and,
  /// for an already-elapsed window, the end) fires immediately, in order.
  void arm(Simulation& simulation, FaultHooks hooks) const;

  /// True if a planned fault of `kind` covers `target` at time `t`.
  bool active(FaultKind kind, const std::string& target, SimTime t) const;

 private:
  void generate_kind(FaultKind kind, const FaultProfile& profile,
                     SimTime horizon);

  common::Rng rng_;
  std::vector<FaultEvent> plan_;
};

}  // namespace esg::sim

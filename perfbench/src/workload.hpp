// What one benchmark world measures, and the two workload families.
//
// A run repeats one workload's world (same seed, same inputs) until its
// time is up.  Each world goes through three host phases, timed by the
// runner: setup (inputs and world, before the first simulated event),
// run (the simulation) and post (the reports the workload requires).
// run_s covers run + post, less the speed probe's time (probe.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "probe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny-scale overrides for the self-test (0 = the workload's size).
  int files = 0;
  int schedules = 0;
  /// Replace the computed expected campaign fingerprint (self-test: a
  /// wrong value must be rejected).
  std::optional<std::uint64_t> expect_fingerprint;
  std::string spans_path;
};

/// Phase boundaries, marked by the workload as it goes.  Each phase is
/// also a host span ("setup", "run", "post") under the world's "world"
/// span, so a traced run covers setup_s and run_s exactly.
class Phases {
 public:
  explicit Phases(HostTrace& trace) : trace_(&trace) {}

  void start() {
    trace_->open("world");
    trace_->open("setup");
    cpu0_ = cpu_seconds();
    t_ = steady_seconds();
    a_ = alloc_count();
  }
  void setup_done() { next(setup_s, setup_alloc, "run"); }
  void run_done() { next(run_s, run_alloc, "post"); }
  void post_done() {
    next(post_s, post_alloc, nullptr);
    cpu_s = cpu_seconds() - cpu0_;
    trace_->close();  // world
  }

  double setup_s = 0.0, run_s = 0.0, post_s = 0.0;
  double cpu_s = 0.0;  // user+sys over all three phases
  AllocCount setup_alloc, run_alloc, post_alloc;

 private:
  void next(double& s, AllocCount& a, const char* following) {
    const double t = steady_seconds();
    const AllocCount c = alloc_count();
    trace_->close();
    s = t - t_;
    a = c - a_;
    if (following != nullptr) trace_->open(following);
    t_ = steady_seconds();
    a_ = alloc_count();
  }

  HostTrace* trace_;
  double t_ = 0.0;
  double cpu0_ = 0.0;
  AllocCount a_;
};

struct WorldResult {
  explicit WorldResult(HostTrace& trace) : phases(trace) {}

  Phases phases;
  double items = 0.0;      // landed files / checked schedules
  double attempted = 0.0;  // planned files / enumerated schedules
  double sim_s = 0.0;      // simulated seconds advanced
  /// Host ms per simulation step: one explored schedule, or 0.1 simulated
  /// seconds of a campaign.
  std::vector<double> step_ms;
  /// Per-layer values that must repeat exactly at a fixed seed.
  std::vector<std::pair<std::string, double>> counts;
  /// Per-layer host seconds (benchmark-call timers).
  std::vector<std::pair<std::string, double>> times;
  /// Failed correctness checks, one line each.
  std::vector<std::string> failures;
  /// Sim-side results printed for the reader (finish time, digest, ...).
  std::string identity;
};

/// `expected` is the integrity fingerprint the campaign must report; when
/// empty the world derives it from its catalog and stores it.
WorldResult run_campaign_world(const Options& options, bool traced_tasks,
                               std::optional<std::uint64_t>& expected,
                               HostTrace& trace, SpeedProbe& probe);
WorldResult run_explore_world(const Options& options, HostTrace& trace,
                              SpeedProbe& probe);

}  // namespace perfbench

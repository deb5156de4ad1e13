// Chaos-engineering suite: RetryPolicy math, the seeded FaultInjector,
// circuit-breaker transitions, end-to-end integrity recovery, service
// crash/restart, tape stalls, and same-seed determinism of a faulted run.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/retry.hpp"
#include "grid_fixture.hpp"
#include "gridftp/reliability.hpp"
#include "hrm/hrm.hpp"
#include "rm/health.hpp"
#include "sim/chaos.hpp"

namespace es = esg::sim;
namespace ec = esg::common;
namespace eg = esg::gridftp;
namespace er = esg::rm;
using ec::kMinute;
using ec::kSecond;
using esg::testing::MiniGrid;

// ---------- RetryPolicy ----------

TEST(RetryPolicy, ExponentialGrowthWithCap) {
  ec::RetryPolicy p;
  p.retry_backoff = 2 * kSecond;
  p.backoff_multiplier = 2.0;
  p.max_backoff = 10 * kSecond;
  ec::Rng rng{1};
  EXPECT_EQ(p.backoff_after(1, rng), 2 * kSecond);
  EXPECT_EQ(p.backoff_after(2, rng), 4 * kSecond);
  EXPECT_EQ(p.backoff_after(3, rng), 8 * kSecond);
  EXPECT_EQ(p.backoff_after(4, rng), 10 * kSecond);   // capped
  EXPECT_EQ(p.backoff_after(50, rng), 10 * kSecond);  // stays capped
}

TEST(RetryPolicy, JitterStaysInBoundsAndReplays) {
  ec::RetryPolicy p;
  p.retry_backoff = 10 * kSecond;
  p.backoff_multiplier = 1.0;
  p.jitter = 0.25;
  std::vector<ec::SimDuration> first;
  {
    ec::Rng rng{42};
    for (int i = 0; i < 100; ++i) {
      const auto d = p.backoff_after(1, rng);
      EXPECT_GE(d, static_cast<ec::SimDuration>(7.5 * kSecond));
      EXPECT_LT(d, static_cast<ec::SimDuration>(12.5 * kSecond));
      first.push_back(d);
    }
  }
  ec::Rng rng{42};  // same seed => identical jittered sequence
  for (int i = 0; i < 100; ++i) EXPECT_EQ(p.backoff_after(1, rng), first[i]);
}

TEST(RetryPolicy, JitterNeverExceedsMaxBackoffAtTheCap) {
  // Regression: jitter used to be multiplied in *after* the max_backoff
  // clamp, so a backoff already at the cap could exceed it by up to
  // (1 + jitter)x.  The cap must bound the jittered value too.
  ec::RetryPolicy p;
  p.retry_backoff = 2 * kSecond;
  p.backoff_multiplier = 2.0;
  p.max_backoff = 10 * kSecond;
  p.jitter = 0.5;
  ec::Rng rng{7};
  for (int failures = 1; failures <= 12; ++failures) {
    for (int i = 0; i < 200; ++i) {
      const auto d = p.backoff_after(failures, rng);
      EXPECT_LE(d, p.max_backoff)
          << "failures=" << failures << " draw=" << i;
    }
  }
  // The downward half of the jitter still applies at the cap.
  ec::Rng rng2{7};
  bool saw_below_cap = false;
  for (int i = 0; i < 200; ++i) {
    if (p.backoff_after(8, rng2) < p.max_backoff) saw_below_cap = true;
  }
  EXPECT_TRUE(saw_below_cap);
}

TEST(RetryPolicy, BackoffWithinDeadlineTruncatesToRemainingBudget) {
  ec::RetryPolicy p;
  p.retry_backoff = 10 * kSecond;
  p.backoff_multiplier = 1.0;
  p.deadline = kMinute;
  ec::Rng rng{1};
  // Plenty of budget: full backoff.
  EXPECT_EQ(p.backoff_within_deadline(1, 0, 0, rng), 10 * kSecond);
  // 4 s of budget left: the sleep is truncated so the retry fires at the
  // deadline, not past it.
  EXPECT_EQ(p.backoff_within_deadline(1, 0, kMinute - 4 * kSecond, rng),
            4 * kSecond);
  // Budget exhausted: no sleep at all.
  EXPECT_EQ(p.backoff_within_deadline(1, 0, kMinute, rng), 0);
  EXPECT_EQ(p.backoff_within_deadline(1, 0, 2 * kMinute, rng), 0);
  EXPECT_EQ(p.remaining_budget(0, kMinute + 1), 0);
  // No deadline: never truncated.
  p.deadline = 0;
  EXPECT_EQ(p.backoff_within_deadline(1, 0, 100 * kMinute, rng),
            10 * kSecond);
}

TEST(RetryPolicy, DeadlineTruncationKeepsTheJitterStreamStable) {
  // The jitter draw must happen whether or not the result is truncated —
  // otherwise how much budget was left would shift every later draw and
  // break same-seed replay.
  ec::RetryPolicy p;
  p.retry_backoff = 10 * kSecond;
  p.backoff_multiplier = 1.0;
  p.jitter = 0.25;
  p.deadline = kMinute;
  ec::Rng a{5};
  ec::Rng b{5};
  (void)p.backoff_within_deadline(1, 0, 0, a);           // not truncated
  (void)p.backoff_within_deadline(1, 0, kMinute - 1, b); // fully truncated
  // Both streams consumed exactly one uniform: the next draws agree.
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(RetryPolicy, AttemptAndDeadlineBudgets) {
  ec::RetryPolicy p;
  p.max_attempts = 3;
  p.deadline = kMinute;
  EXPECT_FALSE(p.out_of_attempts(2));
  EXPECT_TRUE(p.out_of_attempts(3));
  EXPECT_FALSE(p.past_deadline(0, kMinute - 1));
  EXPECT_TRUE(p.past_deadline(0, kMinute));
  p.deadline = 0;  // unlimited
  EXPECT_FALSE(p.past_deadline(0, 1000 * kMinute));
}

// ---------- FaultInjector ----------

static es::ChaosProfile small_profile() {
  es::ChaosProfile profile;
  profile.brownout.targets = {"link-a", "link-b"};
  profile.brownout.mean_interval = 2 * kMinute;
  profile.brownout.min_magnitude = 0.2;
  profile.brownout.max_magnitude = 0.6;
  profile.loss_spike.targets = {"link-a"};
  profile.loss_spike.mean_interval = 5 * kMinute;
  profile.loss_spike.min_magnitude = 0.001;
  profile.loss_spike.max_magnitude = 0.01;
  profile.corruption.targets = {"client"};
  profile.corruption.mean_interval = 10 * kMinute;
  return profile;
}

TEST(FaultInjector, SameSeedSamePlan) {
  es::FaultInjector a{7}, b{7};
  a.generate(small_profile(), ec::kHour);
  b.generate(small_profile(), ec::kHour);
  ASSERT_EQ(a.plan().size(), b.plan().size());
  EXPECT_GT(a.plan().size(), 0u);
  EXPECT_EQ(a.timeline_hash(), b.timeline_hash());
  for (std::size_t i = 0; i < a.plan().size(); ++i) {
    EXPECT_EQ(a.plan()[i].start, b.plan()[i].start);
    EXPECT_EQ(a.plan()[i].target, b.plan()[i].target);
    EXPECT_EQ(a.plan()[i].magnitude, b.plan()[i].magnitude);
  }
}

TEST(FaultInjector, DifferentSeedDifferentPlan) {
  es::FaultInjector a{7}, c{8};
  a.generate(small_profile(), ec::kHour);
  c.generate(small_profile(), ec::kHour);
  EXPECT_NE(a.timeline_hash(), c.timeline_hash());
}

TEST(FaultInjector, MagnitudesAndDurationsRespectProfile) {
  es::FaultInjector inj{3};
  auto profile = small_profile();
  inj.generate(profile, ec::kHour);
  for (const auto& e : inj.plan()) {
    if (e.kind == es::FaultKind::brownout) {
      EXPECT_GE(e.magnitude, profile.brownout.min_magnitude);
      EXPECT_LT(e.magnitude, profile.brownout.max_magnitude);
      EXPECT_GE(e.duration, profile.brownout.min_duration);
      EXPECT_LE(e.duration, profile.brownout.max_duration);
    }
    EXPECT_LT(e.start, ec::kHour);
  }
}

TEST(FaultInjector, OverlappingFaultsRefCount) {
  es::Simulation sim;
  es::FaultInjector inj{1};
  inj.add({es::FaultKind::brownout, "link", 100, 100, 0.5, ""})
      .add({es::FaultKind::brownout, "link", 150, 100, 0.3, ""});
  std::vector<std::pair<ec::SimTime, bool>> transitions;
  es::FaultHooks hooks;
  hooks.brownout = [&](const es::FaultEvent&, bool begin) {
    transitions.emplace_back(sim.now(), begin);
  };
  inj.arm(sim, std::move(hooks));
  sim.run();
  // Begin once at 100, end once at 250 — no bounce at 200.
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(ec::SimTime{100}, true));
  EXPECT_EQ(transitions[1], std::make_pair(ec::SimTime{250}, false));
  EXPECT_FALSE(inj.active(es::FaultKind::brownout, "link", 99));
  EXPECT_TRUE(inj.active(es::FaultKind::brownout, "link", 220));
  EXPECT_FALSE(inj.active(es::FaultKind::brownout, "link", 250));
}

TEST(FaultInjector, ArmRecordsChaosMetrics) {
  es::Simulation sim;
  es::FaultInjector inj{1};
  inj.add({es::FaultKind::brownout, "link", 10, 50, 0.5, ""})
      .add({es::FaultKind::corruption, "client", 20, 0, 0.0, ""});
  inj.arm(sim, {});  // no hooks: metrics still count
  sim.run_until(30);
  auto mid = sim.metrics().snapshot(sim.now());
  EXPECT_EQ(mid.value_or("chaos_faults_injected_total", {{"kind", "brownout"}}),
            1.0);
  EXPECT_EQ(
      mid.value_or("chaos_faults_injected_total", {{"kind", "corruption"}}),
      1.0);
  EXPECT_EQ(mid.value_or("chaos_active_faults", {}), 1.0);  // brownout ongoing
  sim.run();
  auto done = sim.metrics().snapshot(sim.now());
  EXPECT_EQ(done.value_or("chaos_active_faults", {}), 0.0);
}

TEST(FaultInjector, FaultKindNamesRoundTrip) {
  for (int i = 0; i < es::kFaultKindCount; ++i) {
    const auto kind = static_cast<es::FaultKind>(i);
    auto parsed = es::parse_fault_kind(es::fault_kind_name(kind));
    ASSERT_TRUE(parsed.ok()) << es::fault_kind_name(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(es::parse_fault_kind("meteor_strike").ok());
  EXPECT_FALSE(es::parse_fault_kind("").ok());
}

TEST(FaultInjector, NormalizeClampsAndCanonicalizes) {
  es::FaultEvent e{es::FaultKind::brownout, "link", -50, -10, -0.0, ""};
  es::normalize_fault(e);
  EXPECT_EQ(e.start, 0);
  EXPECT_EQ(e.duration, 0);
  EXPECT_FALSE(std::signbit(e.magnitude));  // -0.0 would split the hash
  es::FaultEvent c{es::FaultKind::corruption, "client", 5, 1000, 0.0, ""};
  es::normalize_fault(c);
  EXPECT_EQ(c.duration, 0);  // corruption is instantaneous
}

TEST(FaultInjector, ClampToHorizonKeepsCollapsedWindows) {
  es::FaultInjector a{1}, b{1};
  for (auto* inj : {&a, &b}) {
    inj->add({es::FaultKind::brownout, "link", 100, 200, 0.5, ""})
        .add({es::FaultKind::brownout, "link", 200, 50, 0.5, ""})
        .clamp_to(150);
  }
  ASSERT_EQ(a.plan().size(), 2u);  // collapsed window kept, not dropped
  EXPECT_EQ(a.plan()[0].start, 100);
  EXPECT_EQ(a.plan()[0].duration, 50);  // truncated to the horizon
  EXPECT_EQ(a.plan()[1].start, 150);    // snapped to the horizon...
  EXPECT_EQ(a.plan()[1].duration, 0);   // ...with zero length
  EXPECT_EQ(a.timeline_hash(), b.timeline_hash());  // clamping hashes stably
}

TEST(FaultInjector, ZeroDurationFaultFiresBeginThenEndAtOneInstant) {
  es::Simulation sim;
  es::FaultInjector inj{1};
  inj.add({es::FaultKind::brownout, "link", 100, 0, 0.5, ""});
  std::vector<std::pair<ec::SimTime, bool>> transitions;
  es::FaultHooks hooks;
  hooks.brownout = [&](const es::FaultEvent&, bool begin) {
    transitions.emplace_back(sim.now(), begin);
  };
  inj.arm(sim, std::move(hooks));
  sim.run();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(ec::SimTime{100}, true));
  EXPECT_EQ(transitions[1], std::make_pair(ec::SimTime{100}, false));
  EXPECT_FALSE(inj.active(es::FaultKind::brownout, "link", 100));
}

TEST(FaultInjector, ArmClampsWindowsAlreadyInThePast) {
  es::Simulation sim;
  sim.schedule_at(50, [] {});
  sim.run();  // now() == 50
  es::FaultInjector inj{1};
  inj.add({es::FaultKind::brownout, "link", 10, 20, 0.5, ""})    // elapsed
      .add({es::FaultKind::brownout, "other", 10, 100, 0.5, ""});  // ongoing
  std::vector<std::tuple<ec::SimTime, std::string, bool>> transitions;
  es::FaultHooks hooks;
  hooks.brownout = [&](const es::FaultEvent& e, bool begin) {
    transitions.emplace_back(sim.now(), e.target, begin);
  };
  inj.arm(sim, std::move(hooks));
  sim.run();
  ASSERT_EQ(transitions.size(), 4u);
  // Fully elapsed window: begin and end both fire at now(), begin first.
  EXPECT_EQ(transitions[0], std::make_tuple(ec::SimTime{50},
                                            std::string("link"), true));
  EXPECT_EQ(transitions[1], std::make_tuple(ec::SimTime{50},
                                            std::string("link"), false));
  // Ongoing window: begin clamps to now(), end stays at start + duration.
  EXPECT_EQ(transitions[2], std::make_tuple(ec::SimTime{50},
                                            std::string("other"), true));
  EXPECT_EQ(transitions[3], std::make_tuple(ec::SimTime{110},
                                            std::string("other"), false));
}

// ---------- circuit breaker ----------

TEST(Breaker, OpensAfterConsecutiveFailuresAndShortCircuits) {
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 3,
                                      .cooldown = 30 * kSecond});
  EXPECT_TRUE(reg.allow("srv"));
  reg.record_failure("srv");
  reg.record_failure("srv");
  EXPECT_EQ(reg.state("srv"), er::BreakerState::closed);
  EXPECT_TRUE(reg.healthy("srv"));
  reg.record_failure("srv");
  EXPECT_EQ(reg.state("srv"), er::BreakerState::open);
  EXPECT_FALSE(reg.healthy("srv"));
  EXPECT_FALSE(reg.allow("srv"));  // still cooling down
  auto snap = sim.metrics().snapshot(sim.now());
  EXPECT_EQ(snap.value_or("rm_breaker_open_total", {{"host", "srv"}}), 1.0);
  EXPECT_GE(snap.value_or("rm_breaker_short_circuits_total",
                          {{"host", "srv"}}),
            1.0);
}

TEST(Breaker, HalfOpenProbeClosesOnSuccess) {
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 1,
                                      .cooldown = 30 * kSecond});
  reg.record_failure("srv");
  EXPECT_EQ(reg.state("srv"), er::BreakerState::open);
  sim.schedule_at(31 * kSecond, [] {});
  sim.run();
  EXPECT_TRUE(reg.healthy("srv"));  // cooled down: rankable again
  EXPECT_TRUE(reg.allow("srv"));    // admits the probe
  EXPECT_EQ(reg.state("srv"), er::BreakerState::half_open);
  EXPECT_FALSE(reg.allow("srv"));   // probe slot taken
  reg.record_success("srv");
  EXPECT_EQ(reg.state("srv"), er::BreakerState::closed);
  EXPECT_TRUE(reg.allow("srv"));
  EXPECT_EQ(reg.consecutive_failures("srv"), 0);
}

TEST(Breaker, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 1,
                                      .cooldown = 30 * kSecond});
  reg.record_failure("srv");
  sim.schedule_at(31 * kSecond, [] {});
  sim.run();
  EXPECT_TRUE(reg.allow("srv"));  // probe admitted
  reg.record_failure("srv");
  EXPECT_EQ(reg.state("srv"), er::BreakerState::open);
  EXPECT_FALSE(reg.allow("srv"));  // fresh cooldown from the re-open
  sim.schedule_at(62 * kSecond, [] {});
  sim.run();
  EXPECT_TRUE(reg.allow("srv"));  // next probe after the new cooldown
}

TEST(Breaker, HealthyIsConstAndDoesNotConsumeProbe) {
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 1,
                                      .cooldown = 10 * kSecond});
  reg.record_failure("srv");
  sim.schedule_at(11 * kSecond, [] {});
  sim.run();
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(reg.healthy("srv"));
  EXPECT_EQ(reg.state("srv"), er::BreakerState::open);  // ranking didn't probe
  EXPECT_TRUE(reg.allow("srv"));                        // the real attempt does
  EXPECT_EQ(reg.state("srv"), er::BreakerState::half_open);
}

TEST(Breaker, StaleSuccessDoesNotAdmitAConcurrentProbeHerd) {
  // Under sustained per-site load many attempts admitted *before* the trip
  // are still draining when the breaker goes half-open.  Their outcomes
  // must not multiply the probe slot: after any single success the breaker
  // either closes (half_open_successes reached) or frees exactly one slot
  // for the next sequential probe — two allow() calls in a row never both
  // pass while half-open.
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 1,
                                      .cooldown = 30 * kSecond,
                                      .half_open_successes = 3});
  reg.record_failure("srv");
  sim.schedule_at(31 * kSecond, [] {});
  sim.run();
  ASSERT_TRUE(reg.allow("srv"));  // probe 1
  EXPECT_EQ(reg.state("srv"), er::BreakerState::half_open);
  for (int round = 0; round < 2; ++round) {
    // A stale success drains in; the slot frees for ONE next probe.
    reg.record_success("srv");
    EXPECT_EQ(reg.state("srv"), er::BreakerState::half_open);
    EXPECT_TRUE(reg.allow("srv"));
    EXPECT_FALSE(reg.allow("srv"));  // still one probe at a time
    EXPECT_FALSE(reg.allow("srv"));
  }
  reg.record_success("srv");  // third success closes
  EXPECT_EQ(reg.state("srv"), er::BreakerState::closed);
}

TEST(Breaker, StaleFailureWhileHalfOpenCannotStarveProbing) {
  // Regression: a failure arriving while half-open with NO probe
  // outstanding (a stale attempt from before the trip) used to re-open the
  // breaker with a fresh cooldown — a stream of stale failures pushed the
  // next probe out forever.  The re-open must keep the original cooldown
  // clock so probing resumes immediately.
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 1,
                                      .cooldown = 30 * kSecond,
                                      .half_open_successes = 2});
  reg.record_failure("srv");  // trip at t=0
  sim.schedule_at(31 * kSecond, [] {});
  sim.run();
  ASSERT_TRUE(reg.allow("srv"));   // probe admitted
  reg.record_success("srv");       // 1 of 2: slot free, still half-open
  EXPECT_EQ(reg.state("srv"), er::BreakerState::half_open);
  // Stale failures drain in while no probe is outstanding.
  for (int i = 0; i < 5; ++i) reg.record_failure("srv");
  EXPECT_EQ(reg.state("srv"), er::BreakerState::open);
  // The original cooldown (from t=0) has long elapsed, so the very next
  // real attempt is admitted as a probe — no 30 s starvation window.
  EXPECT_TRUE(reg.healthy("srv"));
  EXPECT_TRUE(reg.allow("srv"));
  EXPECT_EQ(reg.state("srv"), er::BreakerState::half_open);
}

TEST(Breaker, ProbeFailureWithProbeOutstandingRestartsCooldown) {
  // The conservative half: when the probe itself (indistinguishable from a
  // concurrent stale attempt) fails, the breaker re-opens with a FRESH
  // cooldown.
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim, {.failure_threshold = 1,
                                      .cooldown = 30 * kSecond});
  reg.record_failure("srv");
  sim.schedule_at(31 * kSecond, [] {});
  sim.run();
  ASSERT_TRUE(reg.allow("srv"));  // probe outstanding
  reg.record_failure("srv");      // probe failed
  EXPECT_EQ(reg.state("srv"), er::BreakerState::open);
  EXPECT_FALSE(reg.allow("srv"));  // fresh cooldown holds
  EXPECT_FALSE(reg.healthy("srv"));
}

TEST(Breaker, UnknownHostsAreHealthy) {
  es::Simulation sim;
  er::ReplicaHealthRegistry reg(sim);
  EXPECT_TRUE(reg.healthy("never-seen"));
  EXPECT_EQ(reg.state("never-seen"), er::BreakerState::closed);
  EXPECT_EQ(reg.consecutive_failures("never-seen"), 0);
}

// ---------- end-to-end: integrity, crash/restart, stalls ----------

namespace {

constexpr ec::Bytes kTestFile = 8'000'000;

void put_everywhere(MiniGrid& grid, const std::string& name) {
  for (auto& [host, server] : grid.servers) {
    (void)server->storage().put(
        esg::storage::FileObject::synthetic(name, kTestFile));
  }
}

}  // namespace

TEST(ChaosEndToEnd, CorruptionFailsPlainGetWithIoError) {
  MiniGrid grid;
  put_everywhere(grid, "data.ncx");
  grid.client->inject_corruption(1);
  bool done = false;
  esg::common::Status status;
  grid.client->get({"lbnl.host", "data.ncx"}, "in/data.ncx", {},
                   [&](eg::TransferResult r) {
                     status = r.status;
                     done = true;
                   });
  ASSERT_TRUE(grid.run_until_flag(done));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ec::Errc::io_error);
  auto snap = grid.sim.metrics().snapshot(grid.sim.now());
  EXPECT_EQ(snap.value_or("gridftp_checksum_failures_total", {}), 1.0);
  EXPECT_EQ(snap.value_or("gridftp_corruptions_injected_total", {}), 1.0);
}

TEST(ChaosEndToEnd, VerifiedGetReportsChecksum) {
  MiniGrid grid;
  put_everywhere(grid, "data.ncx");
  bool done = false;
  eg::TransferResult result;
  grid.client->get({"lbnl.host", "data.ncx"}, "in/data.ncx", {},
                   [&](eg::TransferResult r) {
                     result = r;
                     done = true;
                   });
  ASSERT_TRUE(grid.run_until_flag(done));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.checksum_verified);
}

TEST(ChaosEndToEnd, ReliableGetRefetchesAfterCorruption) {
  MiniGrid grid;
  put_everywhere(grid, "data.ncx");
  grid.client->inject_corruption(1);
  eg::ReliabilityOptions rel;
  rel.retry_backoff = kSecond;
  bool done = false;
  eg::ReliableResult result;
  eg::ReliableGet::start(*grid.client,
                         {{"lbnl.host", "data.ncx"}, {"isi.host", "data.ncx"}},
                         "in/data.ncx", {}, rel,
                         [&](eg::ReliableResult r) {
                           result = r;
                           done = true;
                         });
  ASSERT_TRUE(grid.run_until_flag(done));
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.attempts, 2);
  auto snap = grid.sim.metrics().snapshot(grid.sim.now());
  EXPECT_EQ(snap.value_or("gridftp_checksum_failures_total", {}), 1.0);
  EXPECT_EQ(snap.value_or("gridftp_corruption_refetches_total", {}), 1.0);
  EXPECT_EQ(snap.value_or("gridftp_checksums_verified_total", {}), 1.0);
}

TEST(ChaosEndToEnd, ServerCrashFailsInFlightGetAndRestartRecovers) {
  MiniGrid grid;
  // Big enough that the transfer (~100 Mb/s uplink) is still in flight when
  // the server dies at t=2s.
  for (auto& [host, server] : grid.servers) {
    (void)server->storage().put(
        esg::storage::FileObject::synthetic("data.ncx", 100'000'000));
  }
  auto* lbnl = grid.servers.at("lbnl.host").get();
  // Crash shortly after the transfer starts, restart a minute later.
  grid.sim.schedule_at(2 * kSecond, [&] { lbnl->crash(); });
  grid.sim.schedule_at(62 * kSecond, [&] { lbnl->restart(); });
  eg::ReliabilityOptions rel;
  rel.retry_backoff = 5 * kSecond;
  rel.jitter = 0.0;
  eg::TransferOptions opts;
  opts.stall_timeout = 5 * kSecond;
  bool done = false;
  eg::ReliableResult result;
  eg::ReliableGet::start(*grid.client, {{"lbnl.host", "data.ncx"}},
                         "in/data.ncx", opts, rel,
                         [&](eg::ReliableResult r) {
                           result = r;
                           done = true;
                         });
  ASSERT_TRUE(grid.run_until_flag(done));
  EXPECT_TRUE(result.status.ok());
  EXPECT_GT(result.attempts, 1);
  EXPECT_TRUE(lbnl->crashed() == false);
  EXPECT_GT(grid.sim.now(), 62 * kSecond);  // only completable post-restart
}

TEST(ChaosEndToEnd, ReliableGetDeadlineIsNeverOvershotByBackoff) {
  // Regression: past_deadline was only consulted between attempts, so the
  // last backoff sleep could carry the transfer past its deadline by up to
  // max_backoff.  Now the backoff is truncated to the remaining budget and
  // the failure is reported AT the deadline.
  MiniGrid grid;
  put_everywhere(grid, "data.ncx");
  auto* lbnl = grid.servers.at("lbnl.host").get();
  lbnl->crash();  // every attempt fails: the policy alone decides the end
  eg::ReliabilityOptions rel;
  rel.retry_backoff = 15 * kSecond;
  rel.backoff_multiplier = 1.0;
  rel.max_backoff = kMinute;
  rel.jitter = 0.0;
  rel.deadline = 12 * kSecond;
  rel.max_attempts = 100;
  eg::TransferOptions opts;
  opts.stall_timeout = 5 * kSecond;
  bool done = false;
  eg::ReliableResult result;
  eg::ReliableGet::start(*grid.client, {{"lbnl.host", "data.ncx"}},
                         "in/data.ncx", opts, rel,
                         [&](eg::ReliableResult r) {
                           result = r;
                           done = true;
                         });
  ASSERT_TRUE(grid.run_until_flag(done));
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.error().code, ec::Errc::timed_out);
  // Attempt 1 fails around t=5s (stall timeout); the 15 s backoff must be
  // truncated to the 7 s of budget left, ending the transfer exactly at
  // the 12 s deadline — never at 5 + 15 = 20 s.
  EXPECT_LE(result.finished, result.started + rel.deadline);
}

TEST(ChaosEndToEnd, ReliableGetGivesUpImmediatelyWhenBudgetExhausted) {
  // When an attempt's failure already lands past the deadline there is no
  // budget to sleep on: the transfer must fail right then, not after
  // another backoff.
  MiniGrid grid;
  put_everywhere(grid, "data.ncx");
  auto* lbnl = grid.servers.at("lbnl.host").get();
  lbnl->crash();
  eg::ReliabilityOptions rel;
  rel.retry_backoff = 30 * kSecond;
  rel.jitter = 0.0;
  rel.deadline = 3 * kSecond;  // shorter than the first attempt's timeout
  eg::TransferOptions opts;
  opts.stall_timeout = 5 * kSecond;
  bool done = false;
  eg::ReliableResult result;
  eg::ReliableGet::start(*grid.client, {{"lbnl.host", "data.ncx"}},
                         "in/data.ncx", opts, rel,
                         [&](eg::ReliableResult r) {
                           result = r;
                           done = true;
                         });
  ASSERT_TRUE(grid.run_until_flag(done));
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.error().code, ec::Errc::timed_out);
  // The first attempt fails ~5 s in (already past the 3 s deadline); the
  // 30 s backoff must not be slept.
  EXPECT_LT(result.finished, result.started + 10 * kSecond);
  EXPECT_EQ(result.attempts, 1);
}

TEST(ChaosEndToEnd, CrashedServerLosesTicketsAcrossRestart) {
  MiniGrid grid;
  put_everywhere(grid, "data.ncx");
  auto* lbnl = grid.servers.at("lbnl.host").get();
  lbnl->crash();
  EXPECT_TRUE(lbnl->crashed());
  bool done = false;
  esg::common::Status status;
  eg::TransferOptions opts;
  opts.stall_timeout = 5 * kSecond;
  grid.client->get({"lbnl.host", "data.ncx"}, "in/data.ncx", opts,
                   [&](eg::TransferResult r) {
                     status = r.status;
                     done = true;
                   });
  ASSERT_TRUE(grid.run_until_flag(done));
  EXPECT_FALSE(status.ok());  // service down: control channel times out
  lbnl->restart();
  done = false;
  grid.client->get({"lbnl.host", "data.ncx"}, "in/data2.ncx", opts,
                   [&](eg::TransferResult r) {
                     status = r.status;
                     done = true;
                   });
  ASSERT_TRUE(grid.run_until_flag(done));
  EXPECT_TRUE(status.ok());  // fresh sessions work after restart
}

TEST(ChaosEndToEnd, TapeStallPausesStagingUntilCleared) {
  MiniGrid grid({"lbnl"});
  auto* mss = grid.add_server("hpss.lbl.gov", "lbnl");
  esg::hrm::HrmConfig hcfg;
  hcfg.tape.drives = 1;
  hcfg.tape.mount_time = kSecond;
  hcfg.tape.avg_seek = kSecond;
  hcfg.tape.read_rate = ec::mbps(800);
  esg::hrm::HrmService hrm(grid.orb, mss->host(), mss->storage_ptr(), hcfg);
  hrm.archive(esg::storage::FileObject::synthetic("archive/deep.ncx",
                                                  kTestFile));
  hrm.tape().set_stalled(true);
  bool done = false;
  ec::SimTime staged_at = 0;
  hrm.stage("archive/deep.ncx", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    staged_at = grid.sim.now();
    done = true;
  });
  grid.sim.schedule_at(2 * kMinute, [&] { hrm.tape().set_stalled(false); });
  ASSERT_TRUE(grid.run_until_flag(done));
  EXPECT_GE(staged_at, 2 * kMinute);  // nothing staged while jammed
}

TEST(ChaosEndToEnd, HrmCrashFailsPendingStagesRestartServesAgain) {
  MiniGrid grid({"lbnl"});
  auto* mss = grid.add_server("hpss.lbl.gov", "lbnl");
  esg::hrm::HrmConfig hcfg;
  hcfg.tape.drives = 1;
  hcfg.tape.mount_time = 30 * kSecond;
  hcfg.tape.avg_seek = 10 * kSecond;
  esg::hrm::HrmService hrm(grid.orb, mss->host(), mss->storage_ptr(), hcfg);
  hrm.archive(esg::storage::FileObject::synthetic("archive/deep.ncx",
                                                  kTestFile));
  bool failed = false;
  hrm.stage("archive/deep.ncx", [&](ec::Result<ec::Bytes> r) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ec::Errc::unavailable);
    failed = true;
  });
  grid.sim.schedule_at(5 * kSecond, [&] { hrm.crash(); });
  ASSERT_TRUE(grid.run_until_flag(failed));
  hrm.restart();
  bool ok = false;
  hrm.stage("archive/deep.ncx", [&](ec::Result<ec::Bytes> r) {
    ASSERT_TRUE(r.ok());
    ok = true;
  });
  ASSERT_TRUE(grid.run_until_flag(ok));
}

// ---------- determinism ----------

namespace {

struct FaultedRunOutcome {
  ec::SimTime finished = 0;
  int attempts = 0;
  bool ok = false;
  std::uint64_t timeline_hash = 0;
};

FaultedRunOutcome faulted_run(std::uint64_t seed) {
  MiniGrid grid;  // sim seed fixed by the fixture; injector seeded below
  put_everywhere(grid, "data.ncx");

  es::FaultInjector inj{seed};
  inj.add({es::FaultKind::brownout, "lbnl-uplink", 2 * kSecond, 20 * kSecond,
           0.2, ""})
      .add({es::FaultKind::corruption, "client", kSecond, 0, 0.0, ""});
  es::ChaosProfile profile;
  profile.brownout.targets = {"isi-uplink"};
  profile.brownout.mean_interval = kMinute;
  profile.brownout.min_duration = 5 * kSecond;
  profile.brownout.max_duration = 15 * kSecond;
  profile.brownout.min_magnitude = 0.3;
  profile.brownout.max_magnitude = 0.8;
  inj.generate(profile, 5 * kMinute);
  es::FaultHooks hooks;
  hooks.brownout = [&grid](const es::FaultEvent& e, bool begin) {
    if (auto* link = grid.net.find_link(e.target)) {
      grid.net.set_link_brownout(*link, begin ? e.magnitude : 1.0);
    }
  };
  hooks.corruption = [&grid](const es::FaultEvent&) {
    grid.client->inject_corruption(1);
  };
  inj.arm(grid.sim, std::move(hooks));

  eg::ReliabilityOptions rel;
  rel.retry_backoff = 2 * kSecond;
  rel.jitter = 0.5;  // jitter must still replay under the same seed
  FaultedRunOutcome out;
  out.timeline_hash = inj.timeline_hash();
  bool done = false;
  eg::ReliableGet::start(*grid.client,
                         {{"lbnl.host", "data.ncx"}, {"isi.host", "data.ncx"}},
                         "in/data.ncx", {}, rel,
                         [&](eg::ReliableResult r) {
                           out.ok = r.status.ok();
                           out.attempts = r.attempts;
                           out.finished = r.finished;
                           done = true;
                         });
  grid.sim.run();
  (void)done;
  return out;
}

}  // namespace

TEST(ChaosDeterminism, SameSeedIdenticalOutcome) {
  const auto a = faulted_run(99);
  const auto b = faulted_run(99);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.timeline_hash, b.timeline_hash);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.attempts, b.attempts);
}

// Flight recorder, causal postmortems, run manifests, and the SLO /
// regression watchdog (DESIGN.md §9): the ring is bounded and digested,
// same-seed chaos runs serialize to byte-identical manifests, an injected
// brownout is traced back to the faulted link, a checksum mismatch to the
// exact corruption that armed it (cause_of), per-phase attribution tiles
// the rm.file span exactly, and SLO / drift verdicts behave as golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "grid_fixture.hpp"
#include "obs/cause.hpp"
#include "obs/manifest.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"
#include "obs/slo.hpp"
#include "rm/request_manager.hpp"
#include "sim/chaos.hpp"

namespace ec = esg::common;
namespace eo = esg::obs;
namespace erm = esg::rm;
namespace es = esg::sim;
using ec::kMillisecond;
using ec::kSecond;
using ec::mbps;
using esg::testing::MiniGrid;

// ---------- FlightRecorder ----------

TEST(FlightRecorder, RingEvictsOldestAndDigestCoversEverything) {
  ec::SimTime now = 0;
  eo::FlightRecorder rec([&now] { return now; }, 4);
  std::vector<std::uint64_t> digests{rec.digest()};
  for (int i = 0; i < 6; ++i) {
    now = i * kSecond;
    rec.record("test", "event." + std::to_string(i), "t");
    digests.push_back(rec.digest());
  }
  EXPECT_EQ(rec.events().size(), 4u);   // ring keeps the newest four
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.evicted(), 2u);
  EXPECT_EQ(rec.events().front().seq, 2u);
  EXPECT_EQ(rec.events().front().name, "event.2");
  EXPECT_EQ(rec.events().back().seq, 5u);
  // Every record (including the ones later evicted) moved the digest.
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_NE(digests[i], digests[i - 1]);
  }
}

TEST(FlightRecorder, AttrsAndQueries) {
  ec::SimTime now = 0;
  eo::FlightRecorder rec([&now] { return now; });
  now = 5 * kSecond;
  rec.record("rm", "file.queued", "jan.ncx", {{"host", "lbnl.host"}}, 3);
  now = 9 * kSecond;
  rec.record("net", "link.down", "uplink");
  const auto& e = rec.events().front();
  EXPECT_EQ(e.attr("host"), "lbnl.host");
  EXPECT_EQ(e.attr("absent"), "");
  EXPECT_EQ(rec.for_target("jan.ncx").size(), 1u);
  EXPECT_EQ(rec.for_track(3).size(), 1u);
  EXPECT_EQ(rec.in_window(0, 6 * kSecond).size(), 1u);
  EXPECT_EQ(rec.in_window(0, 10 * kSecond).size(), 2u);
}

// ---------- end-to-end: brownout postmortem + manifest determinism ----------

namespace {

constexpr ec::Bytes kBigFile = 200'000'000;

struct BrownoutRun {
  bool ok = false;
  std::uint64_t digest = 0;
  std::uint64_t timeline_hash = 0;
  std::string manifest_json;
  eo::RunManifest manifest;
  eo::Postmortem pm;
  ec::SimDuration span_duration = -1;  // the closed rm.file tracer span
};

// One large replicated file fetched through the request manager while the
// preferred (lbnl) uplink browns out to 2 Mb/s; the rate monitor abandons
// the slow replica and the transfer finishes from isi.  `brownout_start`
// perturbs the fault plan so runs can be made intentionally different.
BrownoutRun brownout_run(ec::SimTime brownout_start) {
  MiniGrid grid{{"lbnl", "isi"}};
  auto catalog = grid.make_catalog();
  catalog.create_catalog([](ec::Status st) { ASSERT_TRUE(st.ok()); });
  catalog.create_collection("co2-1998",
                            [](ec::Status st) { ASSERT_TRUE(st.ok()); });
  catalog.register_logical_file("co2-1998", {"big.ncx", kBigFile},
                                [](ec::Status st) { ASSERT_TRUE(st.ok()); });
  for (const char* host : {"lbnl.host", "isi.host"}) {
    esg::replica::LocationInfo loc;
    loc.name = std::string(host) + "-disk";
    loc.hostname = host;
    loc.path = "co2";
    loc.files = {"big.ncx"};
    catalog.register_location("co2-1998", loc,
                              [](ec::Status st) { ASSERT_TRUE(st.ok()); });
    EXPECT_TRUE(grid.servers.at(host)
                    ->storage()
                    .put(esg::storage::FileObject::synthetic("co2/big.ncx",
                                                             kBigFile))
                    .ok());
  }
  auto mds = grid.make_mds_client();
  esg::mds::NetworkRecord rec;
  rec.src_host = "lbnl.host";
  rec.dst_host = "client";
  rec.bandwidth = mbps(90);  // lbnl forecast fastest: ranked first
  rec.latency = 10 * kMillisecond;
  mds.publish_network(rec, [](ec::Status st) { ASSERT_TRUE(st.ok()); });
  rec.src_host = "isi.host";
  rec.bandwidth = mbps(30);
  mds.publish_network(rec, [](ec::Status st) { ASSERT_TRUE(st.ok()); });
  grid.sim.run();

  es::FaultInjector inj{11};
  inj.add({es::FaultKind::brownout, "lbnl-uplink", brownout_start,
           60 * kSecond, 0.02, "backhoe through the fiber"});
  es::FaultHooks hooks;
  hooks.brownout = [&grid](const es::FaultEvent& e, bool begin) {
    if (auto* link = grid.net.find_link(e.target)) {
      grid.net.set_link_brownout(*link, begin ? e.magnitude : 1.0);
    }
  };
  inj.arm(grid.sim, std::move(hooks));

  erm::TransferMonitor monitor;
  erm::RequestManager rm(grid.orb, *grid.client_host, grid.make_catalog(),
                         grid.make_mds_client(), *grid.client, &monitor);
  erm::RequestOptions o;
  o.transfer.buffer_size = 4 * ec::kMiB;
  o.transfer.parallelism = 2;
  o.reliability.retry_backoff = 2 * kSecond;
  o.reliability.jitter = 0.0;
  o.reliability.min_rate = mbps(5);  // brownout leaves 2 Mb/s: abandon
  o.reliability.eval_window = 5 * kSecond;

  BrownoutRun out;
  out.timeline_hash = inj.timeline_hash();
  rm.submit({{"co2-1998", "big.ncx"}}, o, [&out](erm::RequestResult r) {
    out.ok = r.status.ok();
  });
  grid.sim.run();

  out.digest = grid.sim.flight_recorder().digest();
  out.manifest = eo::capture_manifest(
      "postmortem-test", 11, "star: client-site/hub/lbnl/isi",
      inj.timeline_hash(), grid.sim.flight_recorder(),
      grid.sim.metrics().snapshot(grid.sim.now()));
  out.manifest_json = out.manifest.to_json();
  out.pm = eo::build_postmortem(grid.sim.flight_recorder(), "big.ncx");
  const auto& tracer = grid.sim.tracer();
  for (const auto& s : tracer.span_rows()) {
    if (tracer.symbol(s.name) == "rm.file" && !s.open()) {
      out.span_duration = s.end - s.start;
    }
  }
  return out;
}

}  // namespace

TEST(Postmortem, BrownoutIsNamedAsRootCause) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  const eo::Postmortem& pm = run.pm;
  ASSERT_TRUE(pm.found);
  EXPECT_FALSE(pm.failed);
  EXPECT_TRUE(pm.degraded);
  EXPECT_GE(pm.replica_switches, 1);
  EXPECT_EQ(pm.chosen_host, "isi.host");  // abandoned lbnl mid-brownout

  ASSERT_TRUE(pm.has_root_cause);
  EXPECT_EQ(pm.root_cause.category, "chaos");
  EXPECT_EQ(pm.root_cause.name, "fault.brownout.begin");
  EXPECT_EQ(pm.root_cause.target, "lbnl-uplink");
  EXPECT_EQ(pm.root_cause.at, 2 * kSecond);
  EXPECT_GE(pm.first_anomaly.at, pm.root_cause.at);
  EXPECT_EQ(pm.anomaly_lag, pm.first_anomaly.at - pm.root_cause.at);

  // The render names the link so a human postmortem reads causally.
  const std::string text = pm.render();
  EXPECT_NE(text.find("fault.brownout.begin lbnl-uplink"), std::string::npos);
}

TEST(Postmortem, PhaseAttributionTilesTheFileSpanExactly) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  const eo::Postmortem& pm = run.pm;
  ASSERT_TRUE(pm.found);
  ASSERT_FALSE(pm.phases.empty());
  // Slices are contiguous: each begins where the previous ended.
  EXPECT_EQ(pm.phases.front().start, pm.started);
  EXPECT_EQ(pm.phases.back().end, pm.finished);
  for (std::size_t i = 1; i < pm.phases.size(); ++i) {
    EXPECT_EQ(pm.phases[i].start, pm.phases[i - 1].end);
  }
  ec::SimDuration sum = 0;
  for (const auto& p : pm.phases) sum += p.duration();
  EXPECT_EQ(sum, pm.total());
  // ...and the total is the rm.file tracer span, tick for tick.
  ASSERT_GE(run.span_duration, 0);
  EXPECT_EQ(sum, run.span_duration);
}

TEST(Postmortem, SameSeedRunsProduceIdenticalManifests) {
  const auto a = brownout_run(2 * kSecond);
  const auto b = brownout_run(2 * kSecond);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.timeline_hash, b.timeline_hash);
  EXPECT_EQ(a.manifest_json, b.manifest_json);  // byte-identical

  const auto self = eo::diff_manifests(a.manifest, b.manifest, {});
  EXPECT_TRUE(self.clean()) << self.render();
  EXPECT_GT(self.series_compared, 0u);
}

TEST(Postmortem, PerturbedRunIsFlaggedByTheWatchdog) {
  const auto a = brownout_run(2 * kSecond);
  const auto c = brownout_run(4 * kSecond);  // fault plan moved: drift
  EXPECT_NE(a.digest, c.digest);
  EXPECT_NE(a.timeline_hash, c.timeline_hash);

  const auto diff = eo::diff_manifests(a.manifest, c.manifest, {});
  EXPECT_FALSE(diff.clean());
  bool saw_timeline = false, saw_digest = false;
  for (const auto& d : diff.drifts) {
    if (d.series == "fault_timeline_hash") saw_timeline = true;
    if (d.series == "flight_digest") saw_digest = true;
  }
  EXPECT_TRUE(saw_timeline) << diff.render();
  EXPECT_TRUE(saw_digest) << diff.render();
}

TEST(Postmortem, ManifestRoundTripsAndWorksOffline) {
  const auto run = brownout_run(2 * kSecond);
  ASSERT_TRUE(run.ok);
  auto parsed = eo::RunManifest::from_json(run.manifest_json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->to_json(), run.manifest_json);
  EXPECT_EQ(parsed->events.size(), run.manifest.events.size());
  EXPECT_EQ(parsed->flight_digest, run.digest);

  // The offline postmortem (what esg-report sees) tells the same story.
  const auto offline = eo::build_postmortem(*parsed, "big.ncx");
  EXPECT_EQ(offline.render(), run.pm.render());
  const auto degraded = eo::degraded_files(parsed->events);
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0], "big.ncx");
}

// ---------- fault attribution (cause_of) ----------

namespace {

eo::FlightEvent event(std::uint64_t seq, ec::SimTime at, std::string category,
                      std::string name, std::string target,
                      std::vector<std::pair<std::string, std::string>> attrs =
                          {}) {
  eo::FlightEvent e;
  e.seq = seq;
  e.at = at;
  e.category = std::move(category);
  e.name = std::move(name);
  e.target = std::move(target);
  e.attrs = std::move(attrs);
  return e;
}

/// Two clients, each armed with one corruption; b consumes its own early,
/// a consumes its own 240 s after it was armed.
std::vector<eo::FlightEvent> two_client_stream() {
  std::vector<eo::FlightEvent> e;
  e.push_back(event(0, 1 * kSecond, "rm", "file.queued", "fa"));
  e.push_back(event(1, 1 * kSecond, "rm", "file.queued", "fb"));
  e.push_back(event(2, 10 * kSecond, "chaos", "fault.corruption", "a.client"));
  e.push_back(event(3, 20 * kSecond, "chaos", "fault.corruption", "b.client"));
  e.push_back(event(4, 40 * kSecond, "gridftp", "checksum.mismatch", "fb",
                    {{"host", "lbnl.host"}, {"cause", "3"}}));
  e.push_back(event(5, 250 * kSecond, "gridftp", "checksum.mismatch", "fa",
                    {{"host", "lbnl.host"}, {"cause", "2"}}));
  return e;
}

constexpr ec::Bytes kCorruptFile = 8'000'000;

std::unique_ptr<esg::gridftp::GridFtpClient> second_client(
    MiniGrid& grid, const std::string& host_name) {
  auto* host = grid.net.add_host({.name = host_name, .site = "client-site",
                                  .nic_rate = ec::gbps(1),
                                  .cpu_rate = ec::gbps(1),
                                  .disk_rate = ec::gbps(1)});
  esg::security::CredentialWallet wallet;
  wallet.set_identity(
      grid.ca.issue("/O=Grid/CN=esg-user", 0, 100000 * ec::kHour));
  return std::make_unique<esg::gridftp::GridFtpClient>(
      grid.orb, *host, std::make_shared<esg::storage::HostStorage>(),
      std::move(wallet), grid.registry);
}

void fetch_at(MiniGrid& grid, esg::gridftp::GridFtpClient& client,
              ec::SimTime at, const std::string& local_name) {
  grid.sim.schedule_at(at, [&client, local_name] {
    client.get({"lbnl.host", "data.ncx"}, local_name, {},
               [](esg::gridftp::TransferResult) {});
  });
}

std::vector<eo::FlightEvent> recorded(const MiniGrid& grid) {
  const auto& ring = grid.sim.flight_recorder().events();
  return {ring.begin(), ring.end()};
}

}  // namespace

TEST(CauseOf, TwoClientCorruptionsAttributeToTheirOwnArmingEvent) {
  const auto events = two_client_stream();
  const auto fa = eo::build_postmortem(events, "fa");
  ASSERT_TRUE(fa.has_root_cause);
  EXPECT_EQ(fa.root_cause.target, "a.client");
  EXPECT_EQ(fa.anomaly_lag, 240 * kSecond);
  const auto fb = eo::build_postmortem(events, "fb");
  ASSERT_TRUE(fb.has_root_cause);
  EXPECT_EQ(fb.root_cause.target, "b.client");
  // An alert at 260 s: a's corruption stopped acting at 250 s (the event
  // naming it); b's at 40 s, outside the window.
  const auto* alert = eo::cause_of(events, 260 * kSecond);
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->target, "a.client");
}

TEST(CauseOf, EachMismatchNamesItsOwnClientsCorruption) {
  MiniGrid grid;
  (void)grid.servers.at("lbnl.host")->storage().put(
      esg::storage::FileObject::synthetic("data.ncx", kCorruptFile));
  auto client_b = second_client(grid, "client-b");

  es::FaultInjector inj{3};
  inj.add({es::FaultKind::corruption, "client", 1 * kSecond, 0, 0.0, "a1"})
      .add({es::FaultKind::corruption, "client-b", 2 * kSecond, 0, 0.0, "b1"})
      .add({es::FaultKind::corruption, "client", 3 * kSecond, 0, 0.0, "a2"});
  es::FaultHooks hooks;
  hooks.corruption = [&](const es::FaultEvent& e) {
    (e.target == "client" ? *grid.client : *client_b).inject_corruption(1);
  };
  inj.arm(grid.sim, std::move(hooks));
  // Consumed out of arming order: b first, then a's two in turn.
  fetch_at(grid, *client_b, 5 * kSecond, "b/1");
  fetch_at(grid, *grid.client, 25 * kSecond, "a/1");
  fetch_at(grid, *grid.client, 45 * kSecond, "a/2");
  grid.sim.run();

  const auto events = recorded(grid);
  const std::map<std::string, std::string> armed_by = {
      {"b/1", "b1"}, {"a/1", "a1"}, {"a/2", "a2"}};
  int mismatches = 0;
  for (const auto& e : events) {
    if (e.name != "checksum.mismatch") continue;
    ++mismatches;
    ASSERT_FALSE(e.attr("cause").empty()) << e.target;
    const auto* cause = eo::cause_of(events, e.at, &e);
    ASSERT_NE(cause, nullptr) << e.target;
    EXPECT_EQ(cause->name, "fault.corruption");
    EXPECT_EQ(std::to_string(cause->seq), e.attr("cause"));
    EXPECT_EQ(cause->attr("description"), armed_by.at(e.target)) << e.target;
  }
  EXPECT_EQ(mismatches, 3);
}

TEST(CauseOf, UnlinkedDirectInjectionFallsBackToTheWindowRule) {
  MiniGrid grid;
  (void)grid.servers.at("lbnl.host")->storage().put(
      esg::storage::FileObject::synthetic("data.ncx", kCorruptFile));
  es::FaultInjector inj{5};
  // A corruption armed for a client nobody runs: it stops acting at its
  // injection, so it explains nothing 170 s later.
  inj.add({es::FaultKind::corruption, "client-b", 30 * kSecond, 0, 0.0, ""})
      .add({es::FaultKind::brownout, "isi-uplink", 300 * kSecond,
            100 * kSecond, 0.5, ""});
  inj.arm(grid.sim, {});
  // Direct injections (no fault.corruption event at now()): unlinked.
  grid.client->inject_corruption(1);
  fetch_at(grid, *grid.client, 200 * kSecond, "in/1");
  grid.sim.schedule_at(340 * kSecond,
                       [&grid] { grid.client->inject_corruption(1); });
  fetch_at(grid, *grid.client, 350 * kSecond, "in/2");
  grid.sim.run();

  const auto events = recorded(grid);
  std::vector<const eo::FlightEvent*> mismatches;
  for (const auto& e : events) {
    if (e.name == "checksum.mismatch") mismatches.push_back(&e);
  }
  ASSERT_EQ(mismatches.size(), 2u);
  for (const auto* m : mismatches) EXPECT_TRUE(m->attr("cause").empty());
  // Nothing active or recent at 200 s: no cause, not the other client's.
  EXPECT_EQ(eo::cause_of(events, mismatches[0]->at, mismatches[0]), nullptr);
  // At 350 s the brownout is active: the window rule names it.
  const auto* cause = eo::cause_of(events, mismatches[1]->at, mismatches[1]);
  ASSERT_NE(cause, nullptr);
  EXPECT_EQ(cause->name, "fault.brownout.begin");
}

// ---------- SLO rules ----------

TEST(Slo, ParsesRuleForms) {
  auto bare = eo::parse_slo_rule("rm_files_failed_total == 0");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->metric, "rm_files_failed_total");
  EXPECT_TRUE(bare->labels.empty());
  EXPECT_LT(bare->quantile, 0.0);
  EXPECT_EQ(bare->cmp, eo::SloCmp::eq);
  EXPECT_EQ(bare->threshold, 0.0);

  auto labeled = eo::parse_slo_rule("rm_breaker_open_total{host=lbnl.host} <= 2");
  ASSERT_TRUE(labeled.ok());
  EXPECT_EQ(labeled->metric, "rm_breaker_open_total");
  ASSERT_EQ(labeled->labels.size(), 1u);
  EXPECT_EQ(labeled->labels[0].first, "host");
  EXPECT_EQ(labeled->labels[0].second, "lbnl.host");
  EXPECT_EQ(labeled->cmp, eo::SloCmp::le);

  auto quant = eo::parse_slo_rule("p99(rm_file_duration_seconds) < 300");
  ASSERT_TRUE(quant.ok());
  EXPECT_EQ(quant->metric, "rm_file_duration_seconds");
  EXPECT_DOUBLE_EQ(quant->quantile, 0.99);
  EXPECT_EQ(quant->cmp, eo::SloCmp::lt);
  EXPECT_EQ(quant->threshold, 300.0);
}

TEST(Slo, RejectsMalformedRules) {
  EXPECT_FALSE(eo::parse_slo_rule("").ok());
  EXPECT_FALSE(eo::parse_slo_rule("no_comparison_here").ok());
  EXPECT_FALSE(eo::parse_slo_rule("foo < ").ok());
  EXPECT_FALSE(eo::parse_slo_rule("foo < twelve").ok());
  EXPECT_FALSE(eo::parse_slo_rule(" <= 3").ok());
  EXPECT_FALSE(eo::parse_slo_rule("p200(foo) < 1").ok());
  EXPECT_FALSE(eo::parse_slo_rule("foo{host=a < 1").ok());
}

TEST(Slo, GoldenVerdicts) {
  eo::MetricsRegistry reg;
  reg.counter("failed_total").add(2);
  reg.counter("bytes_total", {{"host", "a"}}).add(1);
  reg.counter("bytes_total", {{"host", "b"}}).add(3);
  auto& h = reg.histogram("lat_seconds", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.7);
  h.observe(3.0);
  const auto snap = reg.snapshot(0);

  std::vector<eo::SloRule> rules;
  for (const char* text : {
           "failed_total == 2",           // pass
           "failed_total < 2",            // FAIL
           "bytes_total == 4",            // pass: family sum over hosts
           "bytes_total{host=b} >= 3",    // pass: one series
           "p50(lat_seconds) <= 1.5",     // pass: interpolated median
           "p99(lat_seconds) > 4",        // FAIL: p99 interpolates to 3.92
           "never_observed_total == 0",   // pass, but series absent
       }) {
    auto r = eo::parse_slo_rule(text);
    ASSERT_TRUE(r.ok()) << text;
    rules.push_back(std::move(*r));
  }
  const auto report = eo::evaluate_slos(rules, snap);
  ASSERT_EQ(report.checks.size(), 7u);
  EXPECT_FALSE(report.all_pass);
  EXPECT_TRUE(report.checks[0].pass);
  EXPECT_FALSE(report.checks[1].pass);
  EXPECT_TRUE(report.checks[2].pass);
  EXPECT_DOUBLE_EQ(report.checks[2].observed, 4.0);
  EXPECT_TRUE(report.checks[3].pass);
  EXPECT_TRUE(report.checks[4].pass);
  EXPECT_DOUBLE_EQ(report.checks[4].observed, 1.5);
  EXPECT_FALSE(report.checks[5].pass);
  // rank 3.96 of 4 sits 0.96 into the (2,4] bucket: 2 + 2 * 0.96.
  EXPECT_DOUBLE_EQ(report.checks[5].observed, 3.92);
  EXPECT_TRUE(report.checks[6].pass);
  EXPECT_FALSE(report.checks[6].series_found);
  EXPECT_NE(report.render().find("RULES FAILED"), std::string::npos);
}

// ---------- run diff ----------

TEST(Drift, ToleranceIgnoreAndOneSidedSeries) {
  eo::MetricsRegistry base, cur;
  base.counter("steady_total").add(10);
  cur.counter("steady_total").add(11);  // +10%: inside the default 20%
  base.counter("moved_total").add(10);
  cur.counter("moved_total").add(15);   // +50%: drift
  base.counter("wall_clock_seconds").add(1);
  cur.counter("wall_clock_seconds").add(100);  // ignored by substring
  base.counter("gone_total").add(7);           // missing in current
  cur.counter("new_total").add(9);             // missing in baseline

  eo::DriftTolerance tol;
  tol.ignore = {"wall_clock"};
  const auto report =
      eo::diff_snapshots(base.snapshot(0), cur.snapshot(0), tol);
  ASSERT_EQ(report.drifts.size(), 3u) << report.render();
  bool moved = false, gone = false, added = false;
  for (const auto& d : report.drifts) {
    if (d.series == "moved_total") moved = true;
    if (d.series == "gone_total") gone = (d.note == "missing in current");
    if (d.series == "new_total") added = (d.note == "missing in baseline");
  }
  EXPECT_TRUE(moved && gone && added) << report.render();

  // Exact mode flags even the 10% move.
  eo::DriftTolerance exact;
  exact.relative = 0.0;
  exact.absolute = 0.0;
  exact.ignore = {"wall_clock"};
  EXPECT_EQ(eo::diff_snapshots(base.snapshot(0), cur.snapshot(0), exact)
                .drifts.size(),
            4u);
}

// Campaign layer: catalog generation/loading, planner fairness, manifest
// round-trip + resume semantics, and the driver end-to-end (including a
// mid-run kill under a chaos service crash and breaker-guided failover).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "campaign/driver.hpp"
#include "grid_fixture.hpp"
#include "sim/chaos.hpp"

namespace ec = esg::common;
namespace es = esg::sim;
namespace ecp = esg::campaign;
using ec::kSecond;
using esg::testing::MiniGrid;

namespace {

ecp::SyntheticCatalogSpec small_spec() {
  ecp::SyntheticCatalogSpec spec;
  spec.name = "camp-test";
  spec.seed = 11;
  spec.datasets = 3;
  spec.files = 60;
  spec.min_file_size = 256 * ec::kKiB;
  spec.max_file_size = 512 * ec::kKiB;
  spec.sources = {{"src-a.host", "data"}, {"src-b.host", "data"}};
  spec.destination_sites = {"dst-x", "dst-y"};
  return spec;
}

// Two source sites (servers), two destination sites (clients), star
// topology.  The whole world is rebuilt per run so kill/resume tests get a
// genuinely fresh simulation.
struct CampWorld {
  esg::sim::Simulation sim;
  esg::net::Network net{sim};
  esg::rpc::Orb orb{net};
  esg::security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  esg::gridftp::ServerRegistry registry;
  std::map<std::string, std::unique_ptr<esg::gridftp::GridFtpServer>> servers;
  std::vector<std::unique_ptr<esg::gridftp::GridFtpClient>> clients;
  std::vector<ecp::SiteEndpoint> endpoints;

  explicit CampWorld(const ecp::CampaignCatalog& catalog,
                     std::uint64_t seed = 5)
      : sim{seed} {
    net.add_site("hub");
    auto wire = [&](const std::string& site) {
      net.add_site(site);
      net.add_link({.name = site + "-uplink", .site_a = site,
                    .site_b = "hub", .capacity = ec::mbps(20),
                    .latency = 2 * ec::kMillisecond});
    };
    for (const char* site : {"src-a", "src-b"}) {
      wire(site);
      auto* host = net.add_host({.name = std::string(site) + ".host",
                                 .site = site,
                                 .nic_rate = ec::gbps(1),
                                 .cpu_rate = ec::gbps(1),
                                 .disk_rate = ec::gbps(1)});
      esg::security::GridMapFile gm;
      gm.add("/O=Grid/CN=esg-user", "esg");
      auto server = std::make_unique<esg::gridftp::GridFtpServer>(
          orb, *host, std::make_shared<esg::storage::HostStorage>(), ca, gm);
      for (const auto& f : catalog.files) {
        (void)server->storage().put(
            esg::storage::FileObject::synthetic("data/" + f.name, f.size));
      }
      registry.add(server.get());
      servers[std::string(site) + ".host"] = std::move(server);
    }
    for (const char* site : {"dst-x", "dst-y"}) {
      wire(site);
      auto* host = net.add_host({.name = std::string(site) + ".client",
                                 .site = site,
                                 .nic_rate = ec::gbps(1),
                                 .cpu_rate = ec::gbps(1),
                                 .disk_rate = ec::gbps(1)});
      esg::security::CredentialWallet wallet;
      wallet.set_identity(
          ca.issue("/O=Grid/CN=esg-user", 0, 1000 * ec::kHour));
      clients.push_back(std::make_unique<esg::gridftp::GridFtpClient>(
          orb, *host, std::make_shared<esg::storage::HostStorage>(),
          std::move(wallet), registry));
      endpoints.push_back({site, clients.back().get(), "replica"});
    }
  }

  ecp::CampaignOptions options() const {
    ecp::CampaignOptions opts;
    opts.per_site_concurrency = 3;
    opts.transfer.stall_timeout = 5 * kSecond;
    opts.retry.max_attempts = 10;
    opts.retry.retry_backoff = kSecond;
    opts.retry.max_backoff = 5 * kSecond;
    opts.breaker.failure_threshold = 2;
    opts.breaker.cooldown = 10 * kSecond;
    return opts;
  }
};

}  // namespace

// ---------- catalog ----------

TEST(CampaignCatalog, SyntheticIsDeterministicAndFingerprinted) {
  const auto a = ecp::synthetic_catalog(small_spec());
  const auto b = ecp::synthetic_catalog(small_spec());
  ASSERT_EQ(a.files.size(), 60u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(a.files[i].name, b.files[i].name);
    EXPECT_EQ(a.files[i].size, b.files[i].size);
  }
  EXPECT_EQ(a.datasets(), (std::vector<std::string>{"ds0", "ds1", "ds2"}));
  EXPECT_EQ(a.destination_sites(),
            (std::vector<std::string>{"dst-x", "dst-y"}));
  EXPECT_GT(a.total_bytes(), 0u);
  for (const auto& f : a.files) {
    ASSERT_EQ(f.sources.size(), 2u);
    EXPECT_GE(f.size, 256 * ec::kKiB);
    EXPECT_LE(f.size, 512 * ec::kKiB);
  }
  auto spec = small_spec();
  spec.seed = 12;
  EXPECT_NE(ecp::synthetic_catalog(spec).fingerprint(), a.fingerprint());
}

TEST(CampaignCatalog, LoadsFromLiveReplicaCatalog) {
  MiniGrid grid;
  auto rc = grid.make_catalog();
  rc.create_catalog([](ec::Status) {});
  rc.create_collection("co2", [](ec::Status) {});
  esg::replica::LocationInfo lbnl{};
  lbnl.name = "lbnl-disk";
  lbnl.hostname = "lbnl.host";
  lbnl.path = "co2";
  esg::replica::LocationInfo isi = lbnl;
  isi.name = "isi-disk";
  isi.hostname = "isi.host";
  for (int i = 0; i < 4; ++i) {
    const std::string name = "f" + std::to_string(i) + ".ncx";
    rc.register_logical_file("co2", {name, 1000u * (i + 1)},
                             [](ec::Status) {});
    lbnl.files.push_back(name);
    if (i < 2) isi.files.push_back(name);  // partial replica
  }
  rc.register_location("co2", lbnl, [](ec::Status) {});
  bool ready = false;
  rc.register_location("co2", isi, [&](ec::Status st) {
    ASSERT_TRUE(st.ok());
    ready = true;
  });
  ASSERT_TRUE(grid.run_until_flag(ready));

  bool done = false;
  ecp::CampaignCatalog catalog;
  ecp::load_catalog_from_replica(rc, "co2", {"site-1", "site-2"},
                                 [&](ec::Result<ecp::CampaignCatalog> r) {
                                   ASSERT_TRUE(r.ok()) << r.error().message;
                                   catalog = std::move(r.value());
                                   done = true;
                                 });
  ASSERT_TRUE(grid.run_until_flag(done));
  ASSERT_EQ(catalog.files.size(), 4u);
  EXPECT_EQ(catalog.files[0].name, "f0.ncx");
  EXPECT_EQ(catalog.files[0].size, 1000u);
  EXPECT_EQ(catalog.files[0].sources.size(), 2u);  // both locations hold f0
  EXPECT_EQ(catalog.files[3].sources.size(), 1u);  // only lbnl holds f3
  EXPECT_EQ(catalog.files[3].sources[0].host, "lbnl.host");
  EXPECT_EQ(catalog.files[3].sources[0].path, "co2/f3.ncx");
  // Destinations dealt round-robin.
  EXPECT_EQ(catalog.files[0].destination_site, "site-1");
  EXPECT_EQ(catalog.files[1].destination_site, "site-2");
}

// ---------- planner ----------

TEST(CampaignPlanner, ShardsPerSiteAndInterleavesDatasets) {
  const auto catalog = ecp::synthetic_catalog(small_spec());
  const auto plan = ecp::plan_campaign(catalog);
  ASSERT_EQ(plan.sites.size(), 2u);
  EXPECT_EQ(plan.total_tasks(), catalog.files.size());
  EXPECT_EQ(plan.total_bytes(), catalog.total_bytes());
  for (const auto& sp : plan.sites) {
    ASSERT_FALSE(sp.queue.empty());
    // Every queued file belongs to this site.
    for (auto idx : sp.queue) {
      EXPECT_EQ(catalog.files[idx].destination_site, sp.site);
    }
    // Round-robin fairness: while all datasets still have files, any
    // window of `datasets` consecutive tasks covers every dataset.
    const std::size_t d = catalog.datasets().size();
    for (std::size_t i = 0; i + d <= sp.queue.size(); i += d) {
      std::set<std::string> window;
      for (std::size_t j = i; j < i + d; ++j) {
        window.insert(catalog.files[sp.queue[j]].dataset);
      }
      if (i + d <= sp.queue.size() - sp.queue.size() % d) {
        EXPECT_EQ(window.size(), d) << "window at " << i;
      }
    }
  }
}

TEST(CampaignPlanner, ResumeExcludesCompletedWork) {
  const auto catalog = ecp::synthetic_catalog(small_spec());
  ecp::CampaignManifest manifest;
  // Mark the first 10 files complete at their destination.
  for (int i = 0; i < 10; ++i) {
    const auto& f = catalog.files[i];
    manifest.record({f.dataset, f.name, f.destination_site, f.size, 1, 1, 0});
  }
  const auto plan = ecp::plan_campaign(catalog, &manifest);
  EXPECT_EQ(plan.total_tasks(), catalog.files.size() - 10);
  EXPECT_EQ(plan.total_resumed(), 10u);
  for (const auto& sp : plan.sites) {
    for (auto idx : sp.queue) {
      EXPECT_FALSE(
          manifest.is_complete(catalog.files[idx].name, sp.site));
    }
  }
}

// ---------- manifest ----------

TEST(CampaignManifest, RoundTripsByteStableAndDeduplicates) {
  ecp::CampaignManifest m;
  m.campaign = "camp-test";
  m.seed = 9;
  m.catalog_fingerprint = 0xabcdef;
  m.record({"ds0", "a.ncx", "dst-x", 1000, 0x1111, 2, 5 * kSecond});
  m.record({"ds1", "b.ncx", "dst-y", 2000, 0x2222, 1, 6 * kSecond});
  m.record({"ds0", "a.ncx", "dst-x", 1000, 0x1111, 2, 7 * kSecond});  // dup
  m.record_failure({"ds1", "c.ncx", "dst-x", "gave up", 4});
  EXPECT_EQ(m.completed_count(), 2u);
  EXPECT_TRUE(m.is_complete("a.ncx", "dst-x"));
  EXPECT_FALSE(m.is_complete("a.ncx", "dst-y"));

  const std::string json = m.to_json();
  auto parsed = ecp::CampaignManifest::from_json(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().to_json(), json);  // byte-stable round trip
  EXPECT_EQ(parsed.value().completed_count(), 2u);
  EXPECT_EQ(parsed.value().failed.size(), 1u);
  EXPECT_EQ(parsed.value().completed[0].checksum, 0x1111u);
  EXPECT_EQ(parsed.value().failed[0].error, "gave up");
  EXPECT_TRUE(parsed.value().is_complete("b.ncx", "dst-y"));
}

TEST(CampaignManifest, RejectsIntegerFieldsThatAreNotInRangeIntegers) {
  for (const char* text :
       {R"({"seed":1e300})", R"({"completed":[{"attempts":1.5}]})",
        R"({"completed":[{"bytes":1e19}]})",
        R"({"failed":[{"attempts":3e9}]})"}) {
    const auto parsed = ecp::CampaignManifest::from_json(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.error().code, ec::Errc::protocol_error) << text;
  }
}

TEST(CampaignManifest, ReportIsInvariantToCompletionOrder) {
  ecp::CampaignManifest fwd;
  ecp::CampaignManifest rev;
  std::vector<ecp::CompletedTransfer> records = {
      {"ds0", "a.ncx", "dst-x", 1000, 0x11, 1, 1},
      {"ds0", "b.ncx", "dst-y", 2000, 0x22, 3, 2},
      {"ds1", "c.ncx", "dst-x", 3000, 0x33, 1, 3},
  };
  for (const auto& r : records) fwd.record(r);
  std::reverse(records.begin(), records.end());
  for (auto& r : records) {
    r.attempts = 1;  // attempt counts may differ between runs...
    rev.record(r);
  }
  const auto a = fwd.report(3, 0);
  const auto b = rev.report(3, 0);
  // ...but the content view agrees: fingerprint + dataset checksums.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.dataset_checksums, b.dataset_checksums);
  ASSERT_EQ(a.dataset_checksums.size(), 2u);
  EXPECT_EQ(a.dataset_checksums[0].first, "ds0");
  EXPECT_EQ(a.bytes_moved, 6000u);
  EXPECT_EQ(a.files_moved, 3u);
  EXPECT_EQ(a.retries, 2u);  // fwd: b.ncx took 3 attempts
  EXPECT_EQ(b.retries, 0u);
}

// ---------- driver end-to-end ----------

TEST(CampaignDriver, ReplicatesEverythingAndReportsIntegrity) {
  const auto catalog = ecp::synthetic_catalog(small_spec());
  CampWorld world(catalog);
  ecp::CampaignDriver driver(world.sim, catalog, world.endpoints,
                             world.options());
  bool done = false;
  ecp::IntegrityReport report;
  driver.run([&](const ecp::IntegrityReport& r) {
    report = r;
    done = true;
  });
  world.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(report.files_planned, catalog.files.size());
  EXPECT_EQ(report.files_moved, catalog.files.size());
  EXPECT_EQ(report.files_failed, 0u);
  EXPECT_EQ(report.bytes_moved, catalog.total_bytes());
  EXPECT_EQ(report.dataset_checksums.size(), 3u);
  EXPECT_NE(report.fingerprint, 0u);
  // Every landed file is actually present at its destination client.
  for (const auto& f : catalog.files) {
    auto* client = f.destination_site == "dst-x" ? world.clients[0].get()
                                                 : world.clients[1].get();
    EXPECT_TRUE(client->local_storage().get("replica/" + f.name).ok())
        << f.name;
  }
  auto snap = world.sim.metrics().snapshot(world.sim.now());
  EXPECT_EQ(snap.family_total("campaign_files_completed_total"),
            static_cast<double>(catalog.files.size()));
  EXPECT_EQ(snap.family_total("campaign_failures_total"), 0.0);
}

TEST(CampaignDriver, MissingEndpointIsAPermanentFailureNotAHang) {
  auto spec = small_spec();
  spec.files = 6;
  spec.destination_sites = {"dst-x", "nowhere"};
  const auto catalog = ecp::synthetic_catalog(spec);
  CampWorld world(catalog);
  ecp::CampaignDriver driver(world.sim, catalog, world.endpoints,
                             world.options());
  bool done = false;
  ecp::IntegrityReport report;
  driver.run([&](const ecp::IntegrityReport& r) {
    report = r;
    done = true;
  });
  world.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(report.files_moved, 3u);
  EXPECT_EQ(report.files_failed, 3u);
}

TEST(CampaignDriver, DeadSourceFailsOverViaBreakerToHealthyReplica) {
  const auto catalog = ecp::synthetic_catalog(small_spec());
  CampWorld world(catalog);
  world.servers.at("src-a.host")->crash();  // never restarts
  ecp::CampaignDriver driver(world.sim, catalog, world.endpoints,
                             world.options());
  bool done = false;
  ecp::IntegrityReport report;
  driver.run([&](const ecp::IntegrityReport& r) {
    report = r;
    done = true;
  });
  world.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(report.files_moved, catalog.files.size());
  EXPECT_EQ(report.files_failed, 0u);
  // The dead host's breaker opened and subsequent selection skipped it.
  EXPECT_EQ(driver.health().state("src-a.host"),
            esg::rm::BreakerState::open);
  auto snap = world.sim.metrics().snapshot(world.sim.now());
  EXPECT_GE(snap.value_or("rm_breaker_open_total", {{"host", "src-a.host"}}),
            1.0);
  EXPECT_GE(snap.value_or("gridftp_breaker_skips_total", {}), 1.0);
}

// ---------- kill mid-run + resume ----------

namespace {

struct CampaignRun {
  bool completed = false;
  ecp::IntegrityReport report;
  std::string manifest_json;
  double transfers_this_run = 0.0;
  std::size_t completed_at_kill = 0;
};

// One world-run: seeded chaos (a source crash mid-run), optionally killing
// the driver at `kill_at` (simulating the campaign process dying), and
// optionally resuming from a prior manifest.
CampaignRun campaign_run(const ecp::CampaignCatalog& catalog,
                         ec::SimTime kill_at,
                         const std::string* resume_json) {
  CampWorld world(catalog, /*seed=*/5);
  es::FaultInjector injector{5};
  injector.add({es::FaultKind::service_crash, "src-a.host", 2 * kSecond,
                4 * kSecond, 0.0, "source crash"});
  es::FaultHooks hooks;
  hooks.service_crash = [&world](const es::FaultEvent& e, bool begin) {
    auto it = world.servers.find(e.target);
    if (it != world.servers.end()) {
      begin ? it->second->crash() : it->second->restart();
    }
  };
  injector.arm(world.sim, std::move(hooks));

  ecp::CampaignManifest manifest;
  if (resume_json != nullptr) {
    auto parsed = ecp::CampaignManifest::from_json(*resume_json);
    EXPECT_TRUE(parsed.ok());
    if (parsed.ok()) manifest = std::move(parsed.value());
  }
  ecp::CampaignDriver driver(world.sim, catalog, world.endpoints,
                             world.options(), std::move(manifest));
  CampaignRun out;
  driver.run([&](const ecp::IntegrityReport& r) {
    out.report = r;
    out.completed = true;
  });
  if (kill_at > 0) {
    world.sim.schedule_at(kill_at, [&] { driver.abort(); });
  }
  world.sim.run();
  out.manifest_json = driver.manifest().to_json();
  out.completed_at_kill = driver.manifest().completed_count();
  out.transfers_this_run = world.sim.metrics()
                               .snapshot(world.sim.now())
                               .family_total("campaign_files_completed_total");
  return out;
}

}  // namespace

TEST(CampaignResume, KilledCampaignResumesWithoutRetransferring) {
  const auto catalog = ecp::synthetic_catalog(small_spec());

  const CampaignRun full = campaign_run(catalog, 0, nullptr);
  ASSERT_TRUE(full.completed);
  ASSERT_EQ(full.report.files_failed, 0u);
  ASSERT_EQ(full.report.files_moved, catalog.files.size());

  // Kill mid-run (while the chaos crash is also in play).
  const CampaignRun killed = campaign_run(catalog, 3 * kSecond, nullptr);
  EXPECT_FALSE(killed.completed);  // aborted campaigns never report
  ASSERT_GT(killed.completed_at_kill, 0u);
  ASSERT_LT(killed.completed_at_kill, catalog.files.size());

  // Resume from the killed run's manifest in a fresh world.
  const CampaignRun resumed =
      campaign_run(catalog, 0, &killed.manifest_json);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.report.files_failed, 0u);
  // Completed-file set preserved: everything the killed run landed was
  // skipped, and only the remainder was transferred — nothing twice.
  EXPECT_EQ(resumed.report.files_resumed, killed.completed_at_kill);
  EXPECT_EQ(resumed.transfers_this_run,
            static_cast<double>(catalog.files.size() -
                                killed.completed_at_kill));
  EXPECT_EQ(resumed.report.files_moved, catalog.files.size());
  // Final integrity report matches the uninterrupted same-seed run where
  // it must: content fingerprint, dataset checksums, bytes.
  EXPECT_EQ(resumed.report.fingerprint, full.report.fingerprint);
  EXPECT_EQ(resumed.report.dataset_checksums,
            full.report.dataset_checksums);
  EXPECT_EQ(resumed.report.bytes_moved, full.report.bytes_moved);
}

TEST(CampaignResume, FullyResumedCampaignCompletesImmediately) {
  const auto catalog = ecp::synthetic_catalog(small_spec());
  const CampaignRun full = campaign_run(catalog, 0, nullptr);
  ASSERT_TRUE(full.completed);
  const CampaignRun again = campaign_run(catalog, 0, &full.manifest_json);
  ASSERT_TRUE(again.completed);
  EXPECT_EQ(again.transfers_this_run, 0.0);  // nothing re-transferred
  EXPECT_EQ(again.report.files_resumed, catalog.files.size());
  EXPECT_EQ(again.report.fingerprint, full.report.fingerprint);
}

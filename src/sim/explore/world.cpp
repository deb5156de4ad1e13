#include "sim/explore/world.hpp"

#include <memory>
#include <utility>

#include "campaign/driver.hpp"
#include "directory/service.hpp"
#include "hrm/hrm.hpp"
#include "mds/mds.hpp"
#include "obs/alert.hpp"
#include "obs/cause.hpp"
#include "replica/catalog.hpp"
#include "rm/request_manager.hpp"
#include "sim/chaos.hpp"

namespace esg::explore {

namespace {

using common::kSecond;

constexpr const char* kCollection = "explore";
constexpr const char* kTopology = "star: client-site/hub/lbnl/isi, 3 uplinks";

std::string disk_file_name(int i) {
  return "month." + std::to_string(i) + ".ncx";
}
std::string tape_file_name(int i) {
  return "deep." + std::to_string(i) + ".ncx";
}

}  // namespace

ScheduleRun run_schedule(const FaultSchedule& schedule,
                         const WorldOptions& options) {
  ScheduleRun out;

  sim::Simulation sim{schedule.sim_seed};
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;

  for (const char* site : {"client-site", "hub", "lbnl", "isi"}) {
    net.add_site(site);
  }
  net.add_link({.name = "client-uplink", .site_a = "client-site",
                .site_b = "hub", .capacity = common::mbps(200),
                .latency = 5 * common::kMillisecond});
  net.add_link({.name = "lbnl-uplink", .site_a = "lbnl", .site_b = "hub",
                .capacity = common::mbps(150),
                .latency = 5 * common::kMillisecond});
  net.add_link({.name = "isi-uplink", .site_a = "isi", .site_b = "hub",
                .capacity = common::mbps(150),
                .latency = 5 * common::kMillisecond});

  auto add_host = [&](const char* name, const char* site) {
    return net.add_host({.name = name, .site = site,
                         .nic_rate = common::gbps(1),
                         .cpu_rate = common::gbps(1),
                         .disk_rate = common::gbps(1)});
  };
  auto* client_host = add_host("client", "client-site");
  auto* catalog_host = add_host("catalog.host", "lbnl");
  auto* mds_host = add_host("mds.host", "lbnl");

  auto make_server = [&](const char* name, const char* site) {
    auto* host = add_host(name, site);
    security::GridMapFile gm;
    gm.add("/O=Grid/CN=esg-user", "esg");
    auto server = std::make_unique<gridftp::GridFtpServer>(
        orb, *host, std::make_shared<storage::HostStorage>(), ca,
        std::move(gm));
    registry.add(server.get());
    return server;
  };
  auto lbnl_server = make_server("lbnl.host", "lbnl");
  auto isi_server = make_server("isi.host", "isi");
  auto mss_server = make_server("hpss.lbl.gov", "lbnl");

  hrm::HrmConfig hcfg;
  hcfg.tape.drives = 1;
  hcfg.tape.mount_time = 5 * kSecond;
  hcfg.tape.avg_seek = 2 * kSecond;
  hcfg.tape.read_rate = common::mbps(400);
  hrm::HrmService hrm(orb, mss_server->host(), mss_server->storage_ptr(),
                      hcfg);

  security::CredentialWallet wallet;
  wallet.set_identity(
      ca.issue("/O=Grid/CN=esg-user", 0, 1000 * common::kHour));
  gridftp::GridFtpClient client(orb, *client_host,
                                std::make_shared<storage::HostStorage>(),
                                std::move(wallet), registry);

  directory::DirectoryService catalog_service(
      orb, *catalog_host, std::make_shared<directory::DirectoryServer>());
  mds::MdsService mds_service(orb, *mds_host);

  // ---- seed catalog, replicas and MDS forecasts ----
  replica::ReplicaCatalog catalog(
      directory::DirectoryClient(orb, *client_host, *catalog_host), "esg");
  catalog.create_catalog([](common::Status) {});
  catalog.create_collection(kCollection, [](common::Status) {});
  replica::LocationInfo lbnl{};
  lbnl.name = "lbnl-disk";
  lbnl.hostname = "lbnl.host";
  lbnl.path = "co2";
  replica::LocationInfo isi = lbnl;
  isi.name = "isi-disk";
  isi.hostname = "isi.host";
  replica::LocationInfo mss{};
  mss.name = "lbnl-hpss";
  mss.hostname = "hpss.lbl.gov";
  mss.path = "archive";
  mss.storage_type = "mss";

  std::vector<rm::FileRequest> wanted;
  for (int i = 0; i < options.disk_files; ++i) {
    const std::string name = disk_file_name(i);
    catalog.register_logical_file(kCollection, {name, options.file_size},
                                  [](common::Status) {});
    lbnl.files.push_back(name);
    isi.files.push_back(name);
    for (auto* server : {lbnl_server.get(), isi_server.get()}) {
      (void)server->storage().put(
          storage::FileObject::synthetic("co2/" + name, options.file_size));
    }
    wanted.push_back({kCollection, name});
  }
  const bool want_tape =
      options.workload == Workload::request_manager && options.tape_files > 0;
  for (int i = 0; want_tape && i < options.tape_files; ++i) {
    const std::string name = tape_file_name(i);
    catalog.register_logical_file(kCollection, {name, options.file_size},
                                  [](common::Status) {});
    mss.files.push_back(name);
    hrm.archive(
        storage::FileObject::synthetic("archive/" + name, options.file_size));
    wanted.push_back({kCollection, name});
  }
  catalog.register_location(kCollection, lbnl, [](common::Status) {});
  catalog.register_location(kCollection, isi, [](common::Status) {});
  if (want_tape) {
    catalog.register_location(kCollection, mss, [](common::Status) {});
  }

  auto mds = mds::MdsClient(orb, *client_host, *mds_host);
  for (const auto& [src, bw] :
       std::vector<std::pair<std::string, common::Rate>>{
           {"lbnl.host", common::mbps(120)},
           {"isi.host", common::mbps(80)},
           {"hpss.lbl.gov", common::mbps(100)}}) {
    mds::NetworkRecord rec;
    rec.src_host = src;
    rec.dst_host = "client";
    rec.bandwidth = bw;
    rec.latency = 10 * common::kMillisecond;
    mds.publish_network(rec, [](common::Status) {});
  }
  sim.run();  // drain the seeding RPCs before faults/workload start

  // ---- arm the schedule ----
  sim::FaultInjector injector(schedule.sim_seed);
  for (const auto& e : schedule.faults) injector.add(e);
  injector.clamp_to(schedule.horizon);
  out.timeline_hash = injector.timeline_hash();

  sim::FaultHooks hooks;
  hooks.brownout = [&](const sim::FaultEvent& e, bool begin) {
    if (auto* link = net.find_link(e.target)) {
      net.set_link_brownout(*link, begin ? e.magnitude : 1.0);
    }
  };
  hooks.loss_spike = [&](const sim::FaultEvent& e, bool begin) {
    if (auto* link = net.find_link(e.target)) {
      net.set_link_loss(*link, begin ? e.magnitude : link->nominal_loss());
    }
  };
  hooks.service_crash = [&](const sim::FaultEvent& e, bool begin) {
    if (e.target == "lbnl.host") {
      begin ? lbnl_server->crash() : lbnl_server->restart();
    } else if (e.target == "isi.host") {
      begin ? isi_server->crash() : isi_server->restart();
    } else if (e.target == "hpss.lbl.gov") {
      begin ? hrm.crash() : hrm.restart();
    }
  };
  hooks.stage_stall = [&](const sim::FaultEvent&, bool begin) {
    hrm.tape().set_stalled(begin);
  };
  hooks.corruption = [&](const sim::FaultEvent&) {
    client.inject_corruption(1);
  };
  injector.arm(sim, std::move(hooks));

  // ---- streaming telemetry: burn-rate paging only.  The canonical runs
  // are short and bursty, so an EWMA anomaly watchdog would fire on the
  // workload's own ramp — every page must instead be attributable to an
  // injected fault, which is exactly the alert invariant.
  obs::BurnRateRule burn;
  burn.name = "gridftp-failure-burn";
  burn.bad_metric = "gridftp_transfers_failed_total";
  burn.good_metric = "gridftp_transfers_started_total";
  burn.objective = 0.99;
  burn.threshold = 2.0;
  sim.alerts().add(burn);
  auto telemetry = sim.start_telemetry(kSecond);

  // ---- workload ----
  rm::BreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown = 30 * kSecond;

  bool done = false;
  if (options.workload == Workload::request_manager) {
    rm::RequestManager manager(orb, *client_host, catalog,
                               mds::MdsClient(orb, *client_host, *mds_host),
                               client, nullptr, breaker);
    rm::RequestOptions opts;
    opts.transfer.buffer_size = common::kMiB;
    opts.transfer.parallelism = 2;
    opts.transfer.stall_timeout = 10 * kSecond;
    // Generous budgets: every bounded fault window must be survivable, so
    // a permanent failure is a lost file, not an exhausted retry count.
    opts.reliability.max_attempts = 60;
    opts.reliability.retry_backoff = kSecond;
    opts.reliability.max_backoff = 8 * kSecond;
    opts.reliability.jitter = 0.25;
    // A crashed HRM loses in-flight stage RPCs; the default 30-minute
    // per-attempt stage timeout would park the tape worker far past the
    // liveness cap, so detect and retry within a minute instead.
    opts.stage_timeout = 60 * kSecond;
    opts.stage_retry.max_attempts = 12;
    opts.stage_retry.retry_backoff = 5 * kSecond;
    opts.max_concurrent = 4;

    out.files_requested = static_cast<int>(wanted.size());
    rm::RequestResult result;
    manager.submit(wanted, opts, [&](rm::RequestResult r) {
      result = std::move(r);
      done = true;
      telemetry.cancel();
    });
    sim.run_while_pending(
        [&] { return done || sim.now() >= options.run_cap; });
    out.terminated = done;
    if (done) {
      sim.run();  // drain trailing fault windows deterministically
      out.finished_at = result.finished;
      for (const auto& f : result.files) {
        if (f.status.ok()) {
          ++out.completed;
        } else {
          ++out.failed;
          out.failure_details.push_back(
              f.request.filename + ": " + f.status.error().to_string());
        }
      }
    }
    // Advance past the breaker cooldown, then every breaker must re-admit
    // traffic (closed, or open-past-cooldown ready to probe).
    sim.schedule_after(breaker.cooldown + kSecond, [] {});
    sim.run();
    for (const auto& host : manager.health().hosts()) {
      if (!manager.health().healthy(host)) {
        out.unhealthy_hosts.push_back(host);
      }
    }
  } else {
    campaign::CampaignCatalog ccat;
    ccat.name = kCollection;
    for (int i = 0; i < options.disk_files; ++i) {
      campaign::CampaignFile f;
      f.dataset = kCollection;
      f.name = disk_file_name(i);
      f.size = options.file_size;
      f.sources = {{"lbnl.host", "co2/" + f.name},
                   {"isi.host", "co2/" + f.name}};
      f.destination_site = "client-site";
      ccat.files.push_back(std::move(f));
    }
    campaign::CampaignOptions copts;
    copts.per_site_concurrency = 2;
    copts.transfer.buffer_size = common::kMiB;
    copts.transfer.parallelism = 2;
    copts.transfer.stall_timeout = 10 * kSecond;
    copts.retry.max_attempts = 60;
    copts.retry.retry_backoff = kSecond;
    copts.retry.max_backoff = 8 * kSecond;
    copts.retry.jitter = 0.25;
    copts.breaker = breaker;
    campaign::CampaignDriver driver(
        sim, std::move(ccat),
        {{.site = "client-site", .client = &client,
          .local_prefix = "replica"}},
        copts);

    out.files_requested = options.disk_files;
    campaign::IntegrityReport report;
    driver.run([&](const campaign::IntegrityReport& r) {
      report = r;
      done = true;
      telemetry.cancel();
    });
    sim.run_while_pending(
        [&] { return done || sim.now() >= options.run_cap; });
    out.terminated = done;
    if (done) {
      sim.run();
      out.finished_at = sim.now();
      out.completed = static_cast<int>(report.files_moved);
      out.failed = static_cast<int>(report.files_failed);
      if (report.files_failed > 0) {
        out.failure_details.push_back(
            std::to_string(report.files_failed) +
            " campaign task(s) permanently failed");
      }
    }
    sim.schedule_after(breaker.cooldown + kSecond, [] {});
    sim.run();
    for (const auto& host : driver.health().hosts()) {
      if (!driver.health().healthy(host)) {
        out.unhealthy_hosts.push_back(host);
      }
    }
  }
  if (!out.terminated) out.finished_at = sim.now();
  out.flight_digest = sim.flight_recorder().digest();

  // ---- manifest + alert correlation ----
  out.manifest = obs::capture_manifest(
      "explore", schedule.sim_seed, kTopology, out.timeline_hash,
      sim.flight_recorder(), sim.metrics().snapshot(sim.now()));
  out.manifest.set_bench("files_completed", out.completed);
  out.manifest.set_bench("files_failed", out.failed);
  out.manifest.set_bench("finished_at_s", common::to_seconds(out.finished_at));
  out.manifest.alerts = sim.alerts().history();
  for (const auto& a : out.manifest.alerts) {
    if (a.fired_at > out.finished_at) continue;
    ++out.alerts_fired;
    if (obs::cause_of(out.manifest.events, a.fired_at) == nullptr) {
      out.uncorrelated_alerts.push_back(
          a.rule + " @" + common::format_time(a.fired_at));
    }
  }
  out.manifest_json = out.manifest.to_json();
  return out;
}

}  // namespace esg::explore

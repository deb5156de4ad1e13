// The campaign worlds: bench_campaign's fleet replication under chaos.
//
// Two source sites hold every file; four destination sites each pull
// their share through the campaign driver, 8 transfers at a time (a closed
// loop per site), while scripted and generated faults run throughout.
// `campaign` runs it at 100,000 files with task tracing off;
// `campaign_traced` at 20,000 files with CampaignOptions::trace_tasks on,
// followed by the time-where profile and its flame export.
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/driver.hpp"
#include "obs/flame.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "sim/chaos.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace esg;
using common::kMinute;
using common::kSecond;

const char* const kDestSites[] = {"anl", "isi", "lanl", "npaci"};
constexpr int kDatasets = 20;
/// One campaign step: this much simulated time, timed on the host clock.
/// Short enough that even a 20k-file campaign (~120 sim s) yields over a
/// thousand samples per world, ten of them beyond p99.
constexpr common::SimDuration kStep = 100 * common::kMillisecond;

campaign::SyntheticCatalogSpec catalog_spec(std::uint64_t seed, int files) {
  campaign::SyntheticCatalogSpec spec;
  spec.name = "co2-fleet";
  spec.seed = seed;
  spec.datasets = kDatasets;
  spec.files = files;
  spec.min_file_size = common::kMiB;
  spec.max_file_size = 4 * common::kMiB;
  spec.sources = {{"src-lbnl.host", "camp"}, {"src-ornl.host", "camp"}};
  for (const char* s : kDestSites) spec.destination_sites.push_back(s);
  return spec;
}

/// The fingerprint a fully landed campaign must report, derived from the
/// catalog alone: every file at its destination with its source payload's
/// checksum.  Independent of the simulated timeline.
std::uint64_t expected_fingerprint(const campaign::CampaignCatalog& catalog) {
  campaign::CampaignManifest landed;
  for (const auto& f : catalog.files) {
    campaign::CompletedTransfer t;
    t.dataset = f.dataset;
    t.file = f.name;
    t.site = f.destination_site;
    t.bytes = f.size;
    t.checksum =
        storage::file_checksum(storage::FileObject::synthetic(f.name, f.size));
    landed.record(std::move(t));
  }
  return landed.report(catalog.files.size(), 0).fingerprint;
}

/// bench_campaign's world, built in the steps the benchmark times.
struct World {
  sim::Simulation sim;
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;
  std::vector<std::unique_ptr<gridftp::GridFtpServer>> servers;
  std::vector<std::unique_ptr<gridftp::GridFtpClient>> clients;
  std::vector<campaign::SiteEndpoint> endpoints;
  sim::FaultInjector injector;
  std::size_t puts = 0;

  explicit World(std::uint64_t seed) : sim{seed}, injector{seed} {}

  net::Host* add_host(const std::string& name, const std::string& site) {
    return net.add_host({.name = name, .site = site,
                         .nic_rate = common::gbps(4),
                         .cpu_rate = common::gbps(4),
                         .disk_rate = common::gbps(4)});
  }

  void build_topology() {
    net.add_site("hub");
    for (const char* site : {"src-lbnl", "src-ornl"}) {
      net.add_site(site);
      net.add_link({.name = std::string(site) + "-uplink", .site_a = site,
                    .site_b = "hub", .capacity = common::gbps(4),
                    .latency = 5 * common::kMillisecond});
    }
    for (const char* site : kDestSites) {
      net.add_site(site);
      net.add_link({.name = std::string(site) + "-uplink", .site_a = site,
                    .site_b = "hub", .capacity = common::gbps(2),
                    .latency = 10 * common::kMillisecond});
    }
  }

  void add_servers_and_seed(const campaign::CampaignCatalog& catalog,
                            HostTrace& trace) {
    for (const char* site : {"src-lbnl", "src-ornl"}) {
      auto* host = add_host(std::string(site) + ".host", site);
      security::GridMapFile gm;
      gm.add("/O=Grid/CN=esg-user", "esg");
      auto server = std::make_unique<gridftp::GridFtpServer>(
          orb, *host, std::make_shared<storage::HostStorage>(), ca, gm);
      {
        Scope s(trace, "storage.seed");
        for (const auto& f : catalog.files) {
          (void)server->storage().put(
              storage::FileObject::synthetic("camp/" + f.name, f.size));
          ++puts;
        }
      }
      registry.add(server.get());
      servers.push_back(std::move(server));
    }
  }

  void add_clients() {
    for (const char* site : kDestSites) {
      auto* host = add_host(std::string(site) + ".client", site);
      security::CredentialWallet wallet;
      wallet.set_identity(
          ca.issue("/O=Grid/CN=esg-user", 0, 1000 * common::kHour));
      clients.push_back(std::make_unique<gridftp::GridFtpClient>(
          orb, *host, std::make_shared<storage::HostStorage>(),
          std::move(wallet), registry));
      endpoints.push_back({site, clients.back().get(), "replica"});
    }
  }

  // Fault plan: a source crash (with restart), brownouts and a loss spike
  // on destination uplinks, corruption at two destinations, plus generated
  // brownouts for the rest of the campaign.
  void arm_faults(HostTrace& trace) {
    injector
        .add({sim::FaultKind::service_crash, "src-lbnl.host", 4 * kSecond,
              8 * kSecond, 0.0, "source server crash"})
        .add({sim::FaultKind::brownout, "anl-uplink", 2 * kSecond,
              30 * kSecond, 0.4, "anl uplink brownout"})
        .add({sim::FaultKind::loss_spike, "isi-uplink", 6 * kSecond,
              20 * kSecond, 0.004, "isi uplink loss spike"})
        .add({sim::FaultKind::corruption, "lanl.client", 1 * kSecond, 0,
              0.0, "bit flip at lanl"})
        .add({sim::FaultKind::corruption, "npaci.client", 9 * kSecond, 0,
              0.0, "bit flip at npaci"});
    sim::ChaosProfile extras;
    extras.brownout.targets = {"lanl-uplink", "npaci-uplink"};
    extras.brownout.mean_interval = 5 * kMinute;
    extras.brownout.min_duration = 20 * kSecond;
    extras.brownout.max_duration = kMinute;
    extras.brownout.min_magnitude = 0.4;
    extras.brownout.max_magnitude = 0.7;
    injector.generate(extras, 30 * kMinute);

    sim::FaultHooks hooks;
    hooks.brownout = [this, &trace](const sim::FaultEvent& e, bool begin) {
      if (auto* link = net.find_link(e.target)) {
        Scope s(trace, "net.fault_hook");
        net.set_link_brownout(*link, begin ? e.magnitude : 1.0);
      }
    };
    hooks.loss_spike = [this, &trace](const sim::FaultEvent& e, bool begin) {
      if (auto* link = net.find_link(e.target)) {
        Scope s(trace, "net.fault_hook");
        net.set_link_loss(*link, begin ? e.magnitude : link->nominal_loss());
      }
    };
    hooks.service_crash = [this](const sim::FaultEvent& e, bool begin) {
      for (auto& server : servers) {
        if (server->host().name() == e.target) {
          begin ? server->crash() : server->restart();
        }
      }
    };
    hooks.corruption = [this](const sim::FaultEvent& e) {
      for (auto& client : clients) {
        if (client->local_host().name() == e.target) {
          client->inject_corruption(1);
        }
      }
    };
    injector.arm(sim, std::move(hooks));
  }
};

campaign::CampaignOptions campaign_options(bool traced_tasks) {
  campaign::CampaignOptions opts;
  opts.per_site_concurrency = 8;
  opts.transfer.parallelism = 2;
  opts.transfer.buffer_size = common::kMiB;
  opts.transfer.stall_timeout = 10 * kSecond;
  opts.retry.max_attempts = 30;
  opts.retry.retry_backoff = 2 * kSecond;
  opts.retry.max_backoff = 20 * kSecond;
  opts.retry.jitter = 0.25;
  opts.breaker.failure_threshold = 3;
  opts.breaker.cooldown = 15 * kSecond;
  opts.trace_tasks = traced_tasks;
  return opts;
}

/// Sum of the weights of collapsed-stack lines ("a;b;c 1234").
long long flame_total(const std::string& collapsed) {
  long long sum = 0;
  std::size_t pos = 0;
  while (pos < collapsed.size()) {
    std::size_t eol = collapsed.find('\n', pos);
    if (eol == std::string::npos) eol = collapsed.size();
    const std::size_t sp = collapsed.rfind(' ', eol);
    if (sp != std::string::npos && sp > pos) {
      sum += std::stoll(collapsed.substr(sp + 1, eol - sp - 1));
    }
    pos = eol + 1;
  }
  return sum;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

WorldResult run_campaign_world(const Options& options, bool traced_tasks,
                               std::optional<std::uint64_t>& expected,
                               HostTrace& trace, SpeedProbe& probe) {
  const int files =
      options.files > 0 ? options.files : (traced_tasks ? 20'000 : 100'000);
  WorldResult r(trace);
  r.attempted = files;
  // Room for every step sample before any phase starts, so the benchmark's
  // own bookkeeping never shows in the allocation counts.
  r.step_ms.reserve(16384);

  r.phases.start();
  campaign::CampaignCatalog catalog;
  {
    Scope s(trace, "campaign.catalog");
    catalog = campaign::synthetic_catalog(catalog_spec(options.seed, files));
  }
  World world(options.seed);
  {
    Scope s(trace, "net.topology");
    world.build_topology();
  }
  world.add_servers_and_seed(catalog, trace);
  world.add_clients();
  {
    Scope s(trace, "chaos.arm");
    world.arm_faults(trace);
  }
  if (traced_tasks) {
    // Room for every task's root span plus its transfer/net children and
    // retry attempts, as bench_campaign sizes it: drops would hole the
    // profile.
    world.sim.tracer().set_capacity(static_cast<std::size_t>(files) * 256);
  }
  std::unique_ptr<campaign::CampaignDriver> driver;
  {
    Scope s(trace, "campaign.plan");
    driver = std::make_unique<campaign::CampaignDriver>(
        world.sim, catalog, world.endpoints, campaign_options(traced_tasks));
  }
  r.phases.setup_done();

  campaign::IntegrityReport report;
  bool completed = false;
  common::SimTime finished_at = 0;
  {
    Scope s(trace, "sim.run");
    world.sim.start_telemetry(kSecond);
    driver->run([&](const campaign::IntegrityReport& rep) {
      report = rep;
      completed = true;
      finished_at = world.sim.now();
    });
    // Step through simulated time one kStep at a time.  run_while_pending
    // fires exactly the events run() would, in the same order; between
    // steps the benchmark only reads the host clock and runs the speed
    // probe.  Steps are sampled until the campaign completes; the queue
    // then drains (telemetry ticks and the generated fault windows) like
    // bench_campaign's run() does.
    common::SimTime boundary = world.sim.now() + kStep;
    const std::function<bool()> crossed = [&] {
      return world.sim.now() >= boundary;
    };
    double t = steady_seconds();
    for (;;) {
      const bool sampled = !completed;
      const bool more = world.sim.run_while_pending(crossed);
      const double now = steady_seconds();
      if (sampled) r.step_ms.push_back((now - t) * 1e3);
      if (!more) break;
      probe.between_steps();
      t = steady_seconds();
      while (boundary <= world.sim.now()) boundary += kStep;
    }
  }
  r.phases.run_done();

  obs::MetricsSnapshot snapshot;
  {
    Scope s(trace, "obs.snapshot");
    snapshot = world.sim.metrics().snapshot(world.sim.now());
  }
  obs::RunManifest manifest;
  {
    Scope s(trace, "obs.capture_manifest");
    manifest = obs::capture_manifest(
        "campaign", options.seed,
        "star: 2 source + 4 destination sites around a hub",
        world.injector.timeline_hash(), world.sim.flight_recorder(),
        snapshot);
    manifest.events.clear();
    manifest.set_bench("files_planned", report.files_planned);
    manifest.set_bench("files_moved", report.files_moved);
    manifest.set_bench("files_failed", report.files_failed);
    manifest.set_bench("retries", report.retries);
    manifest.set_bench("finished_at_s", common::to_seconds(finished_at));
  }
  {
    Scope s(trace, "obs.telemetry_attach");
    obs::attach_telemetry(manifest, world.sim.telemetry(), world.sim.alerts(),
                          {"campaign_file_seconds:p", "campaign_queue_depth"},
                          12);
  }
  obs::TimeWhereProfile profile;
  std::string flame;
  if (traced_tasks) {
    {
      Scope s(trace, "obs.profile");
      obs::ProfileOptions popts;
      popts.root_span = "campaign.file";
      profile = obs::build_profile(world.sim.tracer(),
                                   world.sim.flight_recorder(), popts);
      obs::attach_profile(manifest, profile);
    }
    {
      Scope s(trace, "obs.flame");
      flame = obs::to_collapsed_stacks(profile);
    }
  }
  std::string manifest_json;
  {
    Scope s(trace, "obs.manifest_json");
    manifest_json = manifest.to_json();
  }
  std::string campaign_json;
  {
    Scope s(trace, "campaign.manifest_json");
    campaign_json = driver->manifest().to_json();
  }
  std::optional<common::Result<campaign::CampaignManifest>> reparsed;
  {
    Scope s(trace, "campaign.manifest_parse");
    reparsed = campaign::CampaignManifest::from_json(campaign_json);
  }
  r.phases.post_done();

  // --- correctness: nothing here depends on the simulated timeline ---
  if (!expected) expected = expected_fingerprint(catalog);
  auto fail = [&](std::string what) { r.failures.push_back(std::move(what)); };
  if (!completed) fail("campaign never reported completion");
  if (report.files_failed != 0) {
    fail(std::to_string(report.files_failed) + " files failed permanently");
  }
  if (report.files_moved != static_cast<std::uint64_t>(files)) {
    fail(std::to_string(report.files_moved) + " of " + std::to_string(files) +
         " files landed");
  }
  if (report.fingerprint != *expected) {
    fail("integrity fingerprint " + hex64(report.fingerprint) +
         " != expected " + hex64(*expected));
  }
  if (!reparsed->ok()) {
    fail("campaign manifest does not parse: " +
         reparsed->error().to_string());
  } else if (reparsed->value().to_json() != campaign_json) {
    fail("campaign manifest does not round-trip");
  }
  if (traced_tasks) {
    if (profile.files.size() != static_cast<std::size_t>(files)) {
      fail("profile covers " + std::to_string(profile.files.size()) + " of " +
           std::to_string(files) + " campaign.file spans");
    }
    if (profile.dropped_spans != 0) {
      fail(std::to_string(profile.dropped_spans) + " spans dropped");
    }
    for (const auto& fp : profile.files) {
      if (fp.category_sum() != fp.total()) {
        fail("campaign.file span of " + fp.file + " does not tile");
        break;
      }
    }
    if (flame_total(flame) != static_cast<long long>(profile.total)) {
      fail("flame self times do not sum to the profile total");
    }
  }

  // A campaign whose landed set fails a check has no trustworthy item.
  r.items = r.failures.empty() ? static_cast<double>(report.files_moved) : 0.0;
  r.sim_s = common::to_seconds(finished_at);
  const auto& fluid = world.net.fluid();
  const auto& tracer = world.sim.tracer();
  const auto& recorder = world.sim.flight_recorder();
  const double events = static_cast<double>(world.sim.events_fired());
  const double solves = static_cast<double>(fluid.component_solves());
  const double started =
      snapshot.family_total("gridftp_transfers_started_total");
  r.counts = {
      {"sim.events", events},
      {"sim.events_per_item", r.items > 0 ? events / r.items : 0.0},
      {"sim.allocs_per_event",
       events > 0 ? static_cast<double>(r.phases.run_alloc.calls) / events
                  : 0.0},
      {"sim.queue_purges", static_cast<double>(world.sim.purges())},
      {"net.touches", static_cast<double>(fluid.touches())},
      {"net.reallocations", static_cast<double>(fluid.reallocations())},
      {"net.component_solves", solves},
      {"net.flows_solved", static_cast<double>(fluid.flows_solved_total())},
      {"net.flows_per_solve",
       solves > 0 ? static_cast<double>(fluid.flows_solved_total()) / solves
                  : 0.0},
      {"net.max_solve_flows", static_cast<double>(fluid.max_solve_flows())},
      {"net.component_rebuilds",
       static_cast<double>(fluid.component_rebuilds())},
      {"gridftp.started", started},
      {"gridftp.retries", snapshot.family_total("gridftp_retries_total")},
      {"gridftp.restarts", snapshot.family_total("gridftp_restarts_total")},
      {"gridftp.channels_reused",
       snapshot.family_total("gridftp_channels_reused_total")},
      {"gridftp.checksums_verified",
       snapshot.family_total("gridftp_checksums_verified_total")},
      {"gridftp.useful_ratio",
       started > 0
           ? snapshot.family_total("gridftp_transfers_completed_total") /
                 started
           : 0.0},
      {"storage.puts", static_cast<double>(world.puts)},
      {"campaign.retries", static_cast<double>(report.retries)},
      {"campaign.checkpoints",
       snapshot.family_total("campaign_checkpoints_total")},
      {"obs.spans", static_cast<double>(tracer.span_count())},
      {"obs.spans_dropped", static_cast<double>(tracer.dropped())},
      {"obs.flight_events", static_cast<double>(recorder.recorded())},
  };
  const double sim_run_s = trace.seconds("sim.run") - probe.seconds();
  r.times = {
      {"sim.ns_per_event", events > 0 ? sim_run_s * 1e9 / events : 0.0},
      {"net.fault_hook_s", trace.seconds("net.fault_hook")},
      {"storage.seed_s", trace.seconds("storage.seed")},
      {"campaign.catalog_s", trace.seconds("campaign.catalog")},
      {"campaign.plan_s", trace.seconds("campaign.plan")},
      {"campaign.manifest_json_s", trace.seconds("campaign.manifest_json")},
      {"campaign.manifest_parse_s",
       trace.seconds("campaign.manifest_parse")},
      {"obs.snapshot_s", trace.seconds("obs.snapshot")},
      {"obs.capture_manifest_s", trace.seconds("obs.capture_manifest")},
      {"obs.telemetry_attach_s", trace.seconds("obs.telemetry_attach")},
      {"obs.profile_s", trace.seconds("obs.profile")},
      {"obs.flame_s", trace.seconds("obs.flame")},
      {"obs.manifest_json_s", trace.seconds("obs.manifest_json")},
  };
  char identity[256];
  std::snprintf(identity, sizeof identity,
                "sim finish %.9f s, flight digest %016" PRIx64
                ", sim events %.0f, fingerprint %016" PRIx64,
                r.sim_s, recorder.digest(), events, report.fingerprint);
  r.identity = identity;
  return r;
}

}  // namespace perfbench

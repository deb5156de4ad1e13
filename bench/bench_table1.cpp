// Table 1 reproduction: the SC'2000 striped GridFTP run.
//
// Paper setup (§7): eight Linux workstations in Dallas sending to eight
// workstations at LBNL over SciNET + HSCC/NTON, all with GbE NICs, dual-
// bonded GbE uplinks, an OC-48 (2.5 Gb/s) path of which 1.5 Gb/s was the
// allotment, 10-20 ms latencies, 1 MB TCP buffers.  A 2 GB file was striped
// across the eight hosts; each host held four copies of its partition and
// initiated the next copy's transfer when the previous was 25% complete, so
// up to 4 TCP streams per server and 32 overall.  The hosts ran at 100% CPU
// servicing GbE interrupts.
//
// Paper results:  peak 1.55 Gb/s over 0.1 s, 1.03 Gb/s over 5 s, sustained
// 512.9 Mb/s over one hour, 230.8 GB moved in the hour.
//
// The gap between peak and sustained is reproduced by the same mechanisms
// the paper describes: SC'2000-era GridFTP tears down and rebuilds its
// control and data channels between consecutive transfers (re-connect,
// re-authenticate, slow start), exhibit-floor cross traffic varies the
// share of the OC-48 available, and the interrupt-limited hosts cap each
// endpoint pair.
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "gridftp/client.hpp"
#include "net/background.hpp"
#include "sim/simulation.hpp"

using namespace esg;
using common::Bytes;
using common::kMiB;
using common::kMillisecond;
using common::kSecond;
using common::Rate;

namespace {

constexpr int kServers = 8;
constexpr int kCopiesPerServer = 4;  // max simultaneous streams per server
constexpr Bytes kFileSize = 2 * common::kGB;
constexpr Bytes kPartition = kFileSize / kServers;  // 250 MB per host

struct Table1World {
  sim::Simulation sim{2001};
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;
  std::vector<std::unique_ptr<gridftp::GridFtpServer>> servers;
  std::vector<std::unique_ptr<gridftp::GridFtpClient>> clients;
  std::unique_ptr<net::BackgroundTraffic> floor_traffic;
  common::BandwidthSampler sampler{100 * kMillisecond};

  Table1World() {
    net.add_site("dcc");
    net.add_site("pop");
    net.add_site("lbnl");
    // Two hops in series: the SciNET allotment out of the convention center
    // ("we were only supposed to use 1.5 Gb/s") and the shared OC-48 the
    // rest of the exhibit floor contends for.
    net.add_link({.name = "scinet-allotment",
                  .site_a = "dcc",
                  .site_b = "pop",
                  .capacity = common::gbps(1.6),
                  .latency = 3 * kMillisecond});
    auto* wan = net.add_link({.name = "hscc-nton-oc48",
                              .site_a = "pop",
                              .site_b = "lbnl",
                              .capacity = common::gbps(2.5),
                              .latency = 5 * kMillisecond});
    // Cross traffic: heavy, varying, seeded (deterministic run).
    net::BackgroundConfig bg;
    bg.mean = common::gbps(2.07);
    bg.amplitude = common::gbps(0.35);
    bg.period = 9 * common::kMinute;
    bg.noise_frac = 0.35;
    bg.update_interval = 200 * kMillisecond;
    bg.seed = 42;
    floor_traffic =
        std::make_unique<net::BackgroundTraffic>(net, wan->forward(), bg);

    security::CredentialWallet wallet;
    wallet.set_identity(ca.issue("/O=Grid/CN=esg", 0, 1000 * common::kHour));

    for (int i = 0; i < kServers; ++i) {
      // Senders in Dallas: GbE NIC, interrupt-limited CPU, software RAID.
      auto* src = net.add_host({.name = "dallas" + std::to_string(i),
                                .site = "dcc",
                                .nic_rate = common::gbps(1),
                                .cpu_rate = common::mbps(620),
                                .disk_rate = common::mbps(700)});
      // Receivers at LBNL (four Linux, four Solaris in the paper).
      auto* dst = net.add_host({.name = "lbnl" + std::to_string(i),
                                .site = "lbnl",
                                .nic_rate = common::gbps(1),
                                .cpu_rate = common::mbps(620),
                                .disk_rate = common::mbps(700)});
      (void)dst;
      security::GridMapFile gm;
      gm.add("/O=Grid/CN=esg", "esg");
      servers.push_back(std::make_unique<gridftp::GridFtpServer>(
          orb, *src, std::make_shared<storage::HostStorage>(), ca, gm));
      registry.add(servers.back().get());
      // The four copies of this host's partition.
      for (int c = 0; c < kCopiesPerServer; ++c) {
        (void)servers.back()->storage().put(storage::FileObject::synthetic(
            "partition" + std::to_string(i) + "." + std::to_string(c),
            kPartition));
      }
      clients.push_back(std::make_unique<gridftp::GridFtpClient>(
          orb, *net.find_host("lbnl" + std::to_string(i)),
          std::make_shared<storage::HostStorage>(), wallet, registry));
    }
  }

  void start() {
    gridftp::TransferOptions opts;
    opts.buffer_size = kMiB;            // the paper's choice
    opts.use_channel_cache = false;     // SC'2000-era behaviour
    opts.parallelism = 1;
    opts.stall_timeout = 60 * kSecond;
    pumps = std::make_unique<bench::PartitionPumps>(
        sim, sampler, kPartition, kCopiesPerServer, opts);
    for (int i = 0; i < kServers; ++i) {
      pumps->add({clients[static_cast<std::size_t>(i)].get(),
                  "dallas" + std::to_string(i),
                  "partition" + std::to_string(i) + "."});
    }
    pumps->start();
  }

  std::unique_ptr<bench::PartitionPumps> pumps;
};

}  // namespace

int main() {
  bench::print_header(
      "Table 1 — SC'2000 striped transfer, Dallas -> Berkeley (emulated)");
  std::printf(
      "8 striped servers/side, <=4 TCP streams per server (32 overall),\n"
      "2 GB file striped as 8 x 250 MB partitions, 1 MB TCP buffers,\n"
      "OC-48 path with exhibit-floor cross traffic, no channel caching.\n");

  Table1World world;
  world.start();
  world.sim.run_until(common::kHour);

  const auto& s = world.sampler;
  const Rate peak01 = s.peak_rate(100 * kMillisecond);
  const Rate peak5 = s.peak_rate(5 * kSecond);
  const Rate hour = s.average_rate(0, common::kHour);
  const Bytes total = s.total_bytes();

  std::vector<bench::Row> rows = {
      {"striped servers at source", "8", std::to_string(kServers)},
      {"striped servers at destination", "8", std::to_string(kServers)},
      {"max simultaneous TCP streams/server", "4",
       std::to_string(kCopiesPerServer)},
      {"max simultaneous TCP streams overall", "32",
       std::to_string(kServers * kCopiesPerServer)},
      {"peak transfer rate over 0.1 s", "1.55 Gb/s",
       common::format_rate(peak01)},
      {"peak transfer rate over 5 s", "1.03 Gb/s",
       common::format_rate(peak5)},
      {"sustained transfer rate over 1 h", "512.9 Mb/s",
       common::format_rate(hour)},
      {"total data transferred in 1 h", "230.8 GB",
       common::format_bytes(total)},
  };
  bench::print_table(rows);

  const auto series =
      bench::coarsen(s.series(), 100 * kMillisecond, common::kMinute);
  bench::print_series(series, common::kMinute, 2000.0);

  // Shape checks (reported, not asserted): peak >> sustained, sustained in
  // the paper's regime.
  std::printf("\npeak/sustained ratio: paper %.2f, measured %.2f\n",
              1550.0 / 512.9, common::to_mbps(peak01) / common::to_mbps(hour));
  return 0;
}

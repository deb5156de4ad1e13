// Robustness sweep — Table 1's sustained rate across random seeds.
//
// A single deterministic run could be a lucky draw of the cross-traffic
// process.  This bench re-runs the Table 1 hour under 12 different seeds
// (different cross-traffic sample paths, same distribution) and reports
// mean / spread of the sustained rate, peak, and bytes moved.  Independent
// simulations are embarrassingly parallel, so the sweep runs across a
// common::ThreadPool — the one place this repository uses real threads.
#include <mutex>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "gridftp/client.hpp"
#include "net/background.hpp"
#include "sim/simulation.hpp"

using namespace esg;
using common::Bytes;
using common::kMillisecond;
using common::kSecond;
using common::Rate;

namespace {

struct SweepPoint {
  double sustained_mbps = 0.0;
  double peak_mbps = 0.0;
  double total_gb = 0.0;
};

// A compact re-statement of the Table 1 world, parameterized by seed.
SweepPoint run_hour(std::uint64_t seed) {
  constexpr int kServers = 8;
  constexpr int kCopies = 4;
  constexpr Bytes kPartition = 2 * common::kGB / kServers;

  sim::Simulation sim{seed};
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;
  common::BandwidthSampler sampler{100 * kMillisecond};

  net.add_site("dcc");
  net.add_site("pop");
  net.add_site("lbnl");
  net.add_link({.name = "allotment", .site_a = "dcc", .site_b = "pop",
                .capacity = common::gbps(1.6), .latency = 3 * kMillisecond});
  auto* wan = net.add_link({.name = "oc48", .site_a = "pop",
                            .site_b = "lbnl", .capacity = common::gbps(2.5),
                            .latency = 5 * kMillisecond});
  net::BackgroundConfig bg;
  bg.mean = common::gbps(2.07);
  bg.amplitude = common::gbps(0.35);
  bg.period = 9 * common::kMinute;
  bg.noise_frac = 0.35;
  bg.update_interval = 200 * kMillisecond;
  bg.seed = seed;
  net::BackgroundTraffic floor(net, wan->forward(), bg);

  security::CredentialWallet wallet;
  wallet.set_identity(ca.issue("/O=Grid/CN=esg", 0, 1000 * common::kHour));
  std::vector<std::unique_ptr<gridftp::GridFtpServer>> servers;
  std::vector<std::unique_ptr<gridftp::GridFtpClient>> clients;
  for (int i = 0; i < kServers; ++i) {
    auto* src = net.add_host({.name = "d" + std::to_string(i), .site = "dcc",
                              .nic_rate = common::gbps(1),
                              .cpu_rate = common::mbps(620),
                              .disk_rate = common::mbps(700)});
    net.add_host({.name = "l" + std::to_string(i), .site = "lbnl",
                  .nic_rate = common::gbps(1), .cpu_rate = common::mbps(620),
                  .disk_rate = common::mbps(700)});
    security::GridMapFile gm;
    gm.add("/O=Grid/CN=esg", "esg");
    servers.push_back(std::make_unique<gridftp::GridFtpServer>(
        orb, *src, std::make_shared<storage::HostStorage>(), ca, gm));
    registry.add(servers.back().get());
    for (int c = 0; c < kCopies; ++c) {
      (void)servers.back()->storage().put(storage::FileObject::synthetic(
          "p" + std::to_string(c), kPartition));
    }
    clients.push_back(std::make_unique<gridftp::GridFtpClient>(
        orb, *net.find_host("l" + std::to_string(i)),
        std::make_shared<storage::HostStorage>(), wallet, registry));
  }

  gridftp::TransferOptions opts;
  opts.buffer_size = common::kMiB;
  opts.use_channel_cache = false;
  opts.stall_timeout = 60 * kSecond;
  bench::PartitionPumps pumps(sim, sampler, kPartition, kCopies, opts);
  for (int i = 0; i < kServers; ++i) {
    pumps.add({clients[static_cast<std::size_t>(i)].get(),
               "d" + std::to_string(i), "p"});
  }
  pumps.start();
  sim.run_until(common::kHour);

  SweepPoint point;
  point.sustained_mbps =
      common::to_mbps(sampler.average_rate(0, common::kHour));
  point.peak_mbps = common::to_mbps(sampler.peak_rate(100 * kMillisecond));
  point.total_gb =
      static_cast<double>(sampler.total_bytes()) / static_cast<double>(common::kGB);
  return point;
}

}  // namespace

int main() {
  bench::print_header(
      "Seed sweep — Table 1 sustained rate across 12 cross-traffic sample "
      "paths (ThreadPool)");

  constexpr std::size_t kSeeds = 12;
  std::vector<SweepPoint> points(kSeeds);
  common::ThreadPool::parallel_for(
      kSeeds, [&points](std::size_t i) {
        points[i] = run_hour(1000 + 17 * static_cast<std::uint64_t>(i));
      });

  common::OnlineStats sustained, peak, total;
  std::printf("%-6s | %-14s | %-14s | %s\n", "seed", "sustained", "peak@0.1s",
              "moved");
  std::printf("%s\n", std::string(56, '-').c_str());
  for (std::size_t i = 0; i < kSeeds; ++i) {
    sustained.add(points[i].sustained_mbps);
    peak.add(points[i].peak_mbps);
    total.add(points[i].total_gb);
    std::printf("%-6zu | %9.1f Mb/s | %9.1f Mb/s | %6.1f GB\n", 1000 + 17 * i,
                points[i].sustained_mbps, points[i].peak_mbps,
                points[i].total_gb);
  }
  std::printf(
      "\nsustained: %.1f +- %.1f Mb/s (paper: 512.9); peak: %.2f +- %.2f "
      "Gb/s (paper: 1.55)\n",
      sustained.mean(), sustained.stddev(), peak.mean() / 1000.0,
      peak.stddev() / 1000.0);
  std::printf(
      "expected shape: low variance across sample paths, with the paper's\n"
      "numbers within a few percent of the sweep mean — Table 1 is a\n"
      "typical hour of this regime, not a tuned outlier.\n");
  return 0;
}

// Shared helpers for the reproduction benches: paper-vs-measured table
// printing, series sparklines, and a minimal two-site GridFTP world used by
// the ablation benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "gridftp/client.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace esg::bench {

/// One GridFTP server at site "src", one client host at site "dst", a
/// single WAN link between them.  Each bench tweaks rates/latency/loss.
struct SimpleWorld {
  sim::Simulation sim{7};
  net::Network net{sim};
  rpc::Orb orb{net};
  security::CertificateAuthority ca{"/O=Grid/CN=ESG CA"};
  gridftp::ServerRegistry registry;
  net::Host* server_host = nullptr;
  net::Host* client_host = nullptr;
  net::Link* wan = nullptr;
  std::unique_ptr<gridftp::GridFtpServer> server;
  std::unique_ptr<gridftp::GridFtpClient> client;

  SimpleWorld(common::Rate link_rate, common::SimDuration one_way_latency,
              double loss = 0.0,
              net::HostConfig host_template = {.name = "", .site = "",
                                               .nic_rate = common::gbps(1),
                                               .cpu_rate = common::gbps(1),
                                               .disk_rate = common::gbps(1)}) {
    net.add_site("src");
    net.add_site("dst");
    wan = net.add_link({.name = "wan", .site_a = "src", .site_b = "dst",
                        .capacity = link_rate, .latency = one_way_latency,
                        .loss = loss});
    auto src_cfg = host_template;
    src_cfg.name = "server";
    src_cfg.site = "src";
    server_host = net.add_host(src_cfg);
    auto dst_cfg = host_template;
    dst_cfg.name = "client";
    dst_cfg.site = "dst";
    client_host = net.add_host(dst_cfg);

    security::GridMapFile gm;
    gm.add("/O=Grid/CN=esg", "esg");
    server = std::make_unique<gridftp::GridFtpServer>(
        orb, *server_host, std::make_shared<storage::HostStorage>(), ca, gm);
    registry.add(server.get());
    security::CredentialWallet wallet;
    wallet.set_identity(ca.issue("/O=Grid/CN=esg", 0, 1000 * common::kHour));
    client = std::make_unique<gridftp::GridFtpClient>(
        orb, *client_host, std::make_shared<storage::HostStorage>(),
        std::move(wallet), registry);
  }

  void add_file(const std::string& name, common::Bytes size) {
    (void)server->storage().put(storage::FileObject::synthetic(name, size));
  }

  /// Fetch a file and return the elapsed simulated seconds (or -1 on error).
  double timed_get(const std::string& name, gridftp::TransferOptions opts) {
    bool done = false;
    bool ok = false;
    const auto t0 = sim.now();
    client->get({"server", name}, "local/" + name +
                    std::to_string(fetch_seq_++), opts,
                [&](gridftp::TransferResult r) {
                  ok = r.status.ok();
                  done = true;
                });
    sim.run_while_pending([&] { return done; });
    return ok ? common::to_seconds(sim.now() - t0) : -1.0;
  }

 private:
  std::uint64_t fetch_seq_ = 0;
};

/// Credits a transfer's pulled byte count to a BandwidthSampler: each
/// credit() spreads the growth since the previous one over the interval
/// between them.
struct ByteCursor {
  common::SimTime at = 0;
  common::Bytes bytes = 0;

  void credit(common::BandwidthSampler& sampler, common::SimTime now,
              common::Bytes current) {
    if (current > bytes) sampler.record_interval(at, now, current - bytes);
    at = now;
    bytes = current;
  }
};

/// Table 1's per-server fetch loop (paper §7): each server holds `copies`
/// copies of its partition and starts the GET of the next copy once the
/// newest passes 25%, keeping up to `copies` in flight.  Progress is pulled
/// from the handles at the sampler's bucket period, which is also when the
/// 25% check runs.
class PartitionPumps {
 public:
  struct Server {
    gridftp::GridFtpClient* client = nullptr;
    std::string host;         // source server
    std::string copy_prefix;  // copy c is named copy_prefix + c
  };

  PartitionPumps(sim::Simulation& sim, common::BandwidthSampler& sampler,
                 common::Bytes partition, int copies,
                 gridftp::TransferOptions options)
      : sim_(sim),
        sampler_(sampler),
        partition_(partition),
        copies_(copies),
        options_(std::move(options)) {}

  void add(Server server) { pumps_.emplace_back().server = std::move(server); }

  /// Launch every server's first copy and start sampling.
  void start() {
    for (std::size_t p = 0; p < pumps_.size(); ++p) launch(p);
    tick_ = sim_.schedule_every(sampler_.bucket(), [this] {
      sample();
      return true;
    });
  }

 private:
  struct Fetch {
    std::uint64_t seq = 0;
    std::shared_ptr<gridftp::TransferHandle> handle;
    ByteCursor cursor;
    bool launched_next = false;
  };
  struct Pump {
    Server server;
    int next_copy = 0;
    std::uint64_t seq = 0;
    std::vector<Fetch> fetches;
  };

  void launch(std::size_t p) {
    Pump& pump = pumps_[p];
    if (static_cast<int>(pump.fetches.size()) >= copies_) return;
    const std::string file =
        pump.server.copy_prefix + std::to_string(pump.next_copy);
    pump.next_copy = (pump.next_copy + 1) % copies_;
    const std::uint64_t seq = pump.seq++;
    // get() always completes from a later event, so listing the fetch after
    // the call is safe.
    auto handle = pump.server.client->get(
        {pump.server.host, file}, "in/" + file + "." + std::to_string(seq),
        options_, [this, p, seq](gridftp::TransferResult r) {
          finished(p, seq, r.bytes_transferred);
        });
    pump.fetches.push_back(
        Fetch{seq, std::move(handle), ByteCursor{sim_.now(), 0}});
  }

  void sample() {
    for (std::size_t p = 0; p < pumps_.size(); ++p) {
      int launches = 0;
      for (Fetch& f : pumps_[p].fetches) {
        f.cursor.credit(sampler_, sim_.now(), f.handle->delivered());
        if (!f.launched_next && f.cursor.bytes >= partition_ / 4) {
          f.launched_next = true;
          ++launches;  // 25% complete: pipeline the next copy
        }
      }
      for (; launches > 0; --launches) launch(p);
    }
  }

  void finished(std::size_t p, std::uint64_t seq, common::Bytes bytes) {
    auto& fetches = pumps_[p].fetches;
    auto it = std::find_if(fetches.begin(), fetches.end(),
                           [seq](const Fetch& f) { return f.seq == seq; });
    it->cursor.credit(sampler_, sim_.now(), bytes);
    fetches.erase(it);
    launch(p);  // keep the pipe full
  }

  sim::Simulation& sim_;
  common::BandwidthSampler& sampler_;
  common::Bytes partition_;
  int copies_;
  gridftp::TransferOptions options_;
  std::vector<Pump> pumps_;
  sim::EventHandle tick_;
};

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

struct Row {
  std::string metric;
  std::string paper;
  std::string measured;
};

inline void print_table(const std::vector<Row>& rows) {
  std::size_t w0 = 6, w1 = 5;
  for (const auto& r : rows) {
    w0 = std::max(w0, r.metric.size());
    w1 = std::max(w1, r.paper.size());
  }
  std::printf("%-*s | %-*s | %s\n", static_cast<int>(w0), "metric",
              static_cast<int>(w1), "paper", "measured");
  std::printf("%s\n", std::string(w0 + w1 + 16, '-').c_str());
  for (const auto& r : rows) {
    std::printf("%-*s | %-*s | %s\n", static_cast<int>(w0), r.metric.c_str(),
                static_cast<int>(w1), r.paper.c_str(), r.measured.c_str());
  }
}

/// Condense telemetry series into a JSON array for the BENCH file: one
/// object per series whose name contains any `include` substring (empty =
/// all), carrying the coarse rollup buckets as (start_s, min, max, mean)
/// rows — "p99 per-file latency over time" as data, not a sparkline.
inline std::string telemetry_series_json(
    const obs::TimeSeriesStore& store,
    const std::vector<std::string>& include) {
  auto fmt = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  std::string out = "[";
  bool first_series = true;
  store.for_each([&](const std::string& name, const obs::Labels& labels,
                     const obs::TimeSeries& s) {
    if (!include.empty()) {
      bool keep = false;
      for (const auto& needle : include) {
        if (name.find(needle) != std::string::npos) {
          keep = true;
          break;
        }
      }
      if (!keep) return;
    }
    if (!first_series) out += ",";
    first_series = false;
    out += "\n    {\"name\":\"" + name + "\",\"labels\":{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i) out += ",";
      out += "\"" + labels[i].first + "\":\"" + labels[i].second + "\"";
    }
    out += "},\"points\":[";
    const auto points = s.coarse();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i) out += ",";
      out += "{\"start_s\":" + fmt(common::to_seconds(points[i].start)) +
             ",\"min\":" + fmt(points[i].min) +
             ",\"max\":" + fmt(points[i].max) +
             ",\"mean\":" + fmt(points[i].mean()) + "}";
    }
    out += "]}";
  });
  out += "\n  ]";
  return out;
}

/// Write BENCH_<name>.json: the paper-vs-measured rows plus the full obs
/// metrics snapshot — and, when `series_json` (telemetry_series_json) is
/// non-empty, the condensed telemetry history, and when `profile_json`
/// (obs::profile_to_json) is non-empty, the time-where profile — so
/// downstream tooling can diff runs without scraping the printed tables.
inline void write_bench_json(const std::string& name,
                             const std::vector<Row>& rows,
                             const obs::MetricsSnapshot& snapshot,
                             const std::string& series_json = "",
                             const std::string& profile_json = "") {
  auto esc = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    return out;
  };
  std::string out = "{\n  \"bench\": \"" + esc(name) + "\",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"metric\":\"" + esc(rows[i].metric) + "\",\"paper\":\"" +
           esc(rows[i].paper) + "\",\"measured\":\"" + esc(rows[i].measured) +
           "\"}";
  }
  out += "\n  ],\n  \"metrics\": " + obs::to_json(snapshot);
  if (!series_json.empty()) out += ",\n  \"series\": " + series_json;
  if (!profile_json.empty()) out += ",\n  \"profile\": " + profile_json;
  out += "\n}\n";
  const std::string path = "BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s (%zu metric series)\n", path.c_str(),
                snapshot.entries.size());
  }
}

/// Print a (time, rate) series as minute-resolution rows plus an ASCII
/// sparkline — the Figure 8 shape at a glance.
inline void print_series(
    const std::vector<std::pair<common::SimTime, common::Rate>>& series,
    common::SimDuration bucket, double full_scale_mbps) {
  static const char kRamp[] = " _.-=+*#%@";
  std::string line;
  for (const auto& [t, r] : series) {
    (void)t;
    const double f = common::to_mbps(r) / full_scale_mbps;
    const int idx = std::max(0, std::min(9, static_cast<int>(f * 9.0 + 0.5)));
    line += kRamp[idx];
  }
  std::printf("bandwidth sparkline (one char per %s, full scale %.0f Mb/s):\n",
              common::format_time(bucket).c_str(), full_scale_mbps);
  // Wrap at 100 chars.
  for (std::size_t i = 0; i < line.size(); i += 100) {
    std::printf("  |%s|\n", line.substr(i, 100).c_str());
  }
}

/// Aggregate a fine-grained sampler series into coarser buckets.
inline std::vector<std::pair<common::SimTime, common::Rate>> coarsen(
    const std::vector<std::pair<common::SimTime, common::Rate>>& series,
    common::SimDuration from_bucket, common::SimDuration to_bucket) {
  std::vector<std::pair<common::SimTime, common::Rate>> out;
  if (series.empty() || to_bucket <= from_bucket) return series;
  const auto factor =
      static_cast<std::size_t>(to_bucket / from_bucket);
  for (std::size_t i = 0; i < series.size(); i += factor) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t j = i; j < std::min(i + factor, series.size()); ++j) {
      sum += series[j].second;
      ++n;
    }
    out.emplace_back(series[i].first, n ? sum / n : 0.0);
  }
  return out;
}

}  // namespace esg::bench

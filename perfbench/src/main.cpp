// esg_perfbench: host cost of simulating the ESG grid, one workload per
// process.
//
//   esg_perfbench --workload campaign|campaign_traced|explore_sweep
//                 --seed N --seconds S --trace 0|1
//                 [--files N] [--schedules N] [--expect-fingerprint HEX]
//                 [--spans PATH]
//
// Repeats the workload's world (same seed, same inputs) until S host
// seconds are used, at least twice, then reports every end-to-end and
// per-layer metric by name with its unit, and checks the simulated
// outputs.  Host times are medians over the worlds, each world's scaled to
// the reference machine speed by the speed probe (probe.hpp); counts come
// from the last world and repeat exactly at a fixed seed.  With --trace 1 every
// other world also records host spans around the benchmark's calls into
// each module; they are written to --spans when the run ends, with a
// self-time table and the tracing overhead (traced minus untraced run_s).
//
// The last line of stdout is one JSON object: correct / attempted /
// failed and every metric as {"value", "unit"}.  Exit status 0 only when
// every check passed.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytebuf.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kMinWorlds = 2;
constexpr int kMaxWorlds = 1000;

struct Metric {
  const char* name;
  const char* unit;
};

// Every metric the benchmark reports.  Per-layer metrics a workload does
// not exercise (explore counters on a campaign, say) read 0.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"cpu_s", "s"},            {"items_per_s", "1/s"},
    {"sim_speedup", "sim-s/s"}, {"step_ms_p50", "ms"},
    {"step_ms_p99", "ms"},     {"peak_rss_mb", "MB"},
    {"allocs_per_item", "allocs/item"},
    {"alloc_mb_per_item", "MB/item"},
    {"success_ratio", "ratio"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_item", "events/item"},
    {"sim.ns_per_event", "ns"},
    {"sim.allocs_per_event", "allocs/event"},
    {"sim.queue_purges", "count"},
    {"net.touches", "count"},
    {"net.reallocations", "count"},
    {"net.component_solves", "count"},
    {"net.flows_solved", "count"},
    {"net.flows_per_solve", "flows/solve"},
    {"net.max_solve_flows", "count"},
    {"net.component_rebuilds", "count"},
    {"net.fault_hook_s", "s"},
    {"gridftp.started", "count"},
    {"gridftp.retries", "count"},
    {"gridftp.restarts", "count"},
    {"gridftp.channels_reused", "count"},
    {"gridftp.checksums_verified", "count"},
    {"gridftp.useful_ratio", "ratio"},
    {"storage.seed_s", "s"},
    {"storage.puts", "count"},
    {"campaign.catalog_s", "s"},
    {"campaign.plan_s", "s"},
    {"campaign.retries", "count"},
    {"campaign.checkpoints", "count"},
    {"campaign.manifest_json_s", "s"},
    {"campaign.manifest_parse_s", "s"},
    {"rm.files_completed", "count"},
    {"rm.retries", "count"},
    {"rm.stage_retries", "count"},
    {"rm.breaker_opens", "count"},
    {"hrm.cache_misses", "count"},
    {"obs.spans", "count"},
    {"obs.spans_dropped", "count"},
    {"obs.flight_events", "count"},
    {"obs.snapshot_s", "s"},
    {"obs.capture_manifest_s", "s"},
    {"obs.telemetry_attach_s", "s"},
    {"obs.profile_s", "s"},
    {"obs.flame_s", "s"},
    {"obs.manifest_json_s", "s"},
    {"explore.enumerate_s", "s"},
    {"explore.invariants_checked", "count"},
    {"explore.determinism_replays", "count"},
    {"explore.violations", "count"},
    {"alloc.setup", "count"},
    {"alloc.run", "count"},
    {"alloc.post", "count"},
    {"host.speed_factor", "ref-s/s"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of sorted samples (q in [0, 1]).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "esg_perfbench: %s\n"
               "usage: esg_perfbench --workload "
               "campaign|campaign_traced|explore_sweep --seed N --seconds S\n"
               "                     --trace 0|1 [--files N] [--schedules N]\n"
               "                     [--expect-fingerprint HEX] "
               "[--spans PATH]\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Options& o, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) end = const_cast<char*>(v);
    } else if (flag == "--files") {
      o.files = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--schedules") {
      o.schedules = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--expect-fingerprint") {
      o.expect_fingerprint = std::strtoull(v, &end, 16);
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      error = "bad value for " + flag + ": " + v;
      return false;
    }
  }
  if (o.workload != "campaign" && o.workload != "campaign_traced" &&
      o.workload != "explore_sweep") {
    error = "unknown workload '" + o.workload + "'";
    return false;
  }
  if (!(o.seconds > 0.0) || o.files < 0 || o.schedules < 0) {
    error = "--seconds, --files and --schedules must be positive";
    return false;
  }
  return true;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) return usage(error.c_str());

  char run_id[24];
  std::snprintf(run_id, sizeof run_id, "%016" PRIx64,
                esg::common::fnv1a64(options.workload + "/" +
                                     std::to_string(options.seed) + "/" +
                                     std::to_string(steady_seconds())));
  HostTrace trace(run_id);
  SpeedProbe probe;
  const bool explore = options.workload == "explore_sweep";
  std::optional<std::uint64_t> expected = options.expect_fingerprint;

  std::printf("esg_perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d run=%s\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, run_id);
  std::vector<WorldResult> worlds;
  std::vector<bool> traced;
  std::vector<double> factor, probe_s;  // per world
  const double t0 = steady_seconds();
  double longest = 0.0;
  for (int k = 0; k < kMaxWorlds; ++k) {
    // Traced mode alternates untraced and traced worlds, so the tracing
    // overhead is measured inside one run.
    const bool record = options.trace && k % 2 == 1;
    trace.begin_world(record, explore ? 4096 : 1024);
    probe.begin_world();
    const double w0 = steady_seconds();
    worlds.push_back(
        explore ? run_explore_world(options, trace, probe)
                : run_campaign_world(options,
                                     options.workload == "campaign_traced",
                                     expected, trace, probe));
    traced.push_back(record);
    factor.push_back(probe.factor());
    probe_s.push_back(probe.seconds());
    const double now = steady_seconds();
    longest = std::max(longest, now - w0);
    const WorldResult& w = worlds.back();
    std::printf("world %d%s: setup %.6f s, run %.6f s, post %.6f s, cpu "
                "%.6f s, probe %.6f s (%.3f us/unit, speed factor %.4f), "
                "items %.0f/%.0f; %s\n",
                k, record ? " (traced)" : "", w.phases.setup_s,
                w.phases.run_s, w.phases.post_s, w.phases.cpu_s,
                probe.seconds(), probe.unit_seconds() * 1e6, probe.factor(),
                w.items, w.attempted, w.identity.c_str());
    if (k + 1 >= kMinWorlds && now - t0 + longest > options.seconds) break;
  }

  // --- checks across worlds ---
  std::vector<std::string> failures;
  double attempted = 0.0, items = 0.0;
  for (std::size_t k = 0; k < worlds.size(); ++k) {
    for (const auto& f : worlds[k].failures) {
      failures.push_back("world " + std::to_string(k) + ": " + f);
    }
    if (worlds[k].identity != worlds[0].identity) {
      failures.push_back("world " + std::to_string(k) +
                         " diverged from world 0 at the same seed");
    }
    attempted += worlds[k].attempted;
    items += worlds[k].items;
  }

  // --- end-to-end metrics: host times at the reference machine speed ---
  std::vector<double> setup, run, cpu, rate, speedup, traced_run, plain_run;
  std::vector<double> steps;
  for (std::size_t k = 0; k < worlds.size(); ++k) {
    const WorldResult& w = worlds[k];
    const double f = factor[k];
    const double run_s = (w.phases.run_s + w.phases.post_s - probe_s[k]) * f;
    setup.push_back(w.phases.setup_s * f);
    run.push_back(run_s);
    cpu.push_back((w.phases.cpu_s - probe_s[k]) * f);
    rate.push_back(w.items / run_s);
    speedup.push_back(w.sim_s / run_s);
    (traced[k] ? traced_run : plain_run).push_back(run_s);
    for (double ms : w.step_ms) steps.push_back(ms * f);
  }
  std::sort(steps.begin(), steps.end());
  const WorldResult& last = worlds.back();
  const AllocCount total_alloc{
      last.phases.setup_alloc.calls + last.phases.run_alloc.calls +
          last.phases.post_alloc.calls,
      last.phases.setup_alloc.bytes + last.phases.run_alloc.bytes +
          last.phases.post_alloc.bytes};
  const double per_item = last.items > 0 ? 1.0 / last.items : 0.0;

  std::map<std::string, double> values = {
      {"setup_s", median(setup)},
      {"run_s", median(run)},
      {"cpu_s", median(cpu)},
      {"items_per_s", median(rate)},
      {"sim_speedup", median(speedup)},
      {"step_ms_p50", quantile(steps, 0.50)},
      {"step_ms_p99", quantile(steps, 0.99)},
      {"peak_rss_mb", peak_rss_mb()},
      {"allocs_per_item", static_cast<double>(total_alloc.calls) * per_item},
      {"alloc_mb_per_item",
       static_cast<double>(total_alloc.bytes) * 1e-6 * per_item},
      {"success_ratio", attempted > 0 ? items / attempted : 0.0},
      {"alloc.setup", static_cast<double>(last.phases.setup_alloc.calls)},
      {"alloc.run", static_cast<double>(last.phases.run_alloc.calls)},
      {"alloc.post", static_cast<double>(last.phases.post_alloc.calls)},
      {"host.speed_factor", median(factor)},
  };
  for (const auto& [name, v] : last.counts) values[name] = v;
  for (std::size_t i = 0; i < last.times.size(); ++i) {
    std::vector<double> per_world;
    for (std::size_t k = 0; k < worlds.size(); ++k) {
      per_world.push_back(worlds[k].times[i].second * factor[k]);
    }
    values[last.times[i].first] = median(per_world);
  }

  std::printf("\n%zu worlds in %.3f s; %zu step samples "
              "(host ms per %s)\n",
              worlds.size(), steady_seconds() - t0, steps.size(),
              explore ? "explored schedule" : "0.1 simulated seconds");
  std::string metrics_json;
  auto emit = [&](const Metric& m, const char* group) {
    const double v = values.count(m.name) != 0 ? values[m.name] : 0.0;
    std::printf("  %-10s %-28s %22.9f %s\n", group, m.name, v, m.unit);
    metrics_json += std::string(metrics_json.empty() ? "" : ",") + "\"" +
                    m.name + "\":{\"value\":" + json_number(v) +
                    ",\"unit\":\"" + m.unit + "\"}";
  };
  for (const Metric& m : kEndToEnd) emit(m, "end-to-end");
  for (const Metric& m : kPerLayer) emit(m, "per-layer");

  if (options.trace) {
    const double overhead = median(traced_run) - median(plain_run);
    std::printf("\nhost spans (traced worlds), self time = duration minus "
                "child spans:\n%s",
                trace.self_time_table().c_str());
    std::printf("tracing overhead: %.6f s (traced run_s median %.6f s - "
                "untraced %.6f s)\n",
                overhead, median(traced_run), median(plain_run));
    if (!options.spans_path.empty()) {
      const std::string other =
          ",\"workload\":\"" + options.workload + "\",\"seed\":" +
          std::to_string(options.seed) +
          ",\"trace_overhead_s\":" + json_number(overhead);
      std::ofstream out(options.spans_path, std::ios::binary);
      out << trace.chrome_json(other);
      if (!out) {
        failures.push_back("cannot write span file " + options.spans_path);
      } else {
        std::printf("wrote %zu spans to %s\n", trace.spans().size(),
                    options.spans_path.c_str());
      }
    }
  }

  for (const auto& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\":%s,\"attempted\":%.0f,\"failed\":%.0f,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false", attempted, attempted - items,
              metrics_json.c_str());
  return correct ? 0 : 1;
}

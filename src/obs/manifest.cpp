#include "obs/manifest.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace esg::obs {

using common::Errc;
using common::Error;
using common::Result;

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t parse_hex64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

std::string fmt_double(double v) {
  // Matches the exporters' fixed format so manifests stay diff-friendly.
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

FlightEvent event_from_json(const json::Value& v, bool& ok) {
  FlightEvent e;
  e.seq = v.int_or<std::uint64_t>("seq", 0, ok);
  e.at = v.int_or<common::SimTime>("at_ns", 0, ok);
  e.track = v.int_or<TrackId>("track", 0, ok);
  e.category = v.string_or("category", "");
  e.name = v.string_or("name", "");
  e.target = v.string_or("target", "");
  if (const json::Value* attrs = v.find("attrs"); attrs != nullptr) {
    for (const auto& [k, av] : attrs->as_object()) {
      if (av.is_string()) e.attrs.emplace_back(k, av.as_string());
    }
  }
  return e;
}

MetricsSnapshot snapshot_from_json(const json::Value& v, bool& ok) {
  MetricsSnapshot snap;
  snap.at = v.int_or<common::SimTime>("sim_time_ns", 0, ok);
  if (const json::Value* metrics = v.find("metrics"); metrics != nullptr) {
    for (const auto& mv : metrics->as_array()) {
      SnapshotEntry e;
      e.name = mv.string_or("name", "");
      const std::string kind = mv.string_or("kind", "counter");
      e.kind = kind == "gauge"       ? MetricKind::gauge
               : kind == "histogram" ? MetricKind::histogram
                                     : MetricKind::counter;
      if (const json::Value* labels = mv.find("labels"); labels != nullptr) {
        for (const auto& [k, lv] : labels->as_object()) {
          if (lv.is_string()) e.labels.emplace_back(k, lv.as_string());
        }
      }
      if (e.kind == MetricKind::histogram) {
        if (const json::Value* b = mv.find("boundaries"); b != nullptr) {
          for (const auto& bv : b->as_array()) {
            e.boundaries.push_back(bv.as_number());
          }
        }
        if (const json::Value* b = mv.find("buckets"); b != nullptr) {
          for (const auto& bv : b->as_array()) {
            e.buckets.push_back(bv.as_int<std::uint64_t>(ok));
          }
        }
        e.count = mv.int_or<std::uint64_t>("count", 0, ok);
        e.sum = mv.number_or("sum", 0);
      } else {
        e.value = mv.number_or("value", 0);
      }
      snap.entries.push_back(std::move(e));
    }
  }
  return snap;
}

std::string labels_to_json(const Labels& labels) {
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(labels[i].first) + "\":\"" +
           json_escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

Labels labels_from_json(const json::Value& v, const char* key) {
  Labels out;
  if (const json::Value* labels = v.find(key); labels != nullptr) {
    for (const auto& [k, lv] : labels->as_object()) {
      if (lv.is_string()) out.emplace_back(k, lv.as_string());
    }
  }
  return out;
}

std::string alert_to_json(const AlertRecord& a) {
  std::string out = "{\"rule\":\"" + json_escape(a.rule) + "\",\"kind\":\"" +
                    alert_kind_name(a.kind) + "\",\"metric\":\"" +
                    json_escape(a.metric) + "\",\"fired_at_ns\":" +
                    std::to_string(a.fired_at) + ",\"resolved\":" +
                    (a.resolved ? "true" : "false");
  if (a.resolved) {
    out += ",\"resolved_at_ns\":" + std::to_string(a.resolved_at);
  }
  out += ",\"value\":" + fmt_double(a.value) +
         ",\"threshold\":" + fmt_double(a.threshold) + "}";
  return out;
}

AlertRecord alert_from_json(const json::Value& v, bool& ok) {
  AlertRecord a;
  a.rule = v.string_or("rule", "");
  a.kind = v.string_or("kind", "burn_rate") == "anomaly" ? AlertKind::anomaly
                                                         : AlertKind::burn_rate;
  a.metric = v.string_or("metric", "");
  a.fired_at = v.int_or<common::SimTime>("fired_at_ns", 0, ok);
  if (const json::Value* r = v.find("resolved"); r != nullptr) {
    a.resolved = r->as_bool();
  }
  a.resolved_at = v.int_or<common::SimTime>("resolved_at_ns", 0, ok);
  a.value = v.number_or("value", 0);
  a.threshold = v.number_or("threshold", 0);
  return a;
}

std::string series_to_json(const SeriesSummary& s) {
  std::string out = "{\"name\":\"" + json_escape(s.name) +
                    "\",\"labels\":" + labels_to_json(s.labels) +
                    ",\"samples\":" + std::to_string(s.samples) +
                    ",\"min\":" + fmt_double(s.min) +
                    ",\"max\":" + fmt_double(s.max) +
                    ",\"sum\":" + fmt_double(s.sum) + ",\"points\":[";
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const RollupPoint& p = s.points[i];
    if (i) out += ",";
    out += "{\"start_ns\":" + std::to_string(p.start) +
           ",\"min\":" + fmt_double(p.min) + ",\"max\":" + fmt_double(p.max) +
           ",\"sum\":" + fmt_double(p.sum) +
           ",\"count\":" + std::to_string(p.count) + "}";
  }
  out += "]}";
  return out;
}

std::string file_profile_to_json(const FileProfile& fp) {
  std::string out = "{\"file\":\"" + json_escape(fp.file) +
                    "\",\"track\":" + std::to_string(fp.track) +
                    ",\"span\":" + std::to_string(fp.span) +
                    ",\"start_ns\":" + std::to_string(fp.start) +
                    ",\"end_ns\":" + std::to_string(fp.end) +
                    ",\"failed\":" + (fp.failed ? "true" : "false") +
                    ",\"staged\":" + (fp.staged ? "true" : "false") +
                    ",\"clamped\":" + (fp.clamped ? "true" : "false") +
                    ",\"dominant\":\"" +
                    profile_category_name(fp.dominant()) +
                    "\",\"self_ns\":[";
  for (int i = 0; i < kProfileCategories; ++i) {
    if (i) out += ",";
    out += std::to_string(fp.self[i]);
  }
  out += "],\"critical_path\":[";
  for (std::size_t i = 0; i < fp.critical_path.size(); ++i) {
    const CriticalStep& s = fp.critical_path[i];
    if (i) out += ",";
    out += "{\"frame\":\"" + json_escape(s.frame) + "\",\"category\":\"" +
           profile_category_name(s.category) +
           "\",\"start_ns\":" + std::to_string(s.start) +
           ",\"end_ns\":" + std::to_string(s.end) +
           ",\"span\":" + std::to_string(s.span) + "}";
  }
  out += "]}";
  return out;
}

FileProfile file_profile_from_json(const json::Value& v, bool& ok) {
  FileProfile fp;
  fp.file = v.string_or("file", "");
  fp.track = v.int_or<TrackId>("track", 0, ok);
  fp.span = v.int_or<SpanId>("span", 0, ok);
  fp.start = v.int_or<common::SimTime>("start_ns", 0, ok);
  fp.end = v.int_or<common::SimTime>("end_ns", 0, ok);
  if (const json::Value* b = v.find("failed")) fp.failed = b->as_bool();
  if (const json::Value* b = v.find("staged")) fp.staged = b->as_bool();
  if (const json::Value* b = v.find("clamped")) fp.clamped = b->as_bool();
  if (const json::Value* self = v.find("self_ns")) {
    const auto& arr = self->as_array();
    for (std::size_t i = 0;
         i < arr.size() && i < static_cast<std::size_t>(kProfileCategories);
         ++i) {
      fp.self[i] = arr[i].as_int<common::SimDuration>(ok);
    }
  }
  if (const json::Value* steps = v.find("critical_path")) {
    for (const auto& sv : steps->as_array()) {
      CriticalStep s;
      s.frame = sv.string_or("frame", "");
      s.category = profile_category_from_name(sv.string_or("category", ""));
      s.start = sv.int_or<common::SimTime>("start_ns", 0, ok);
      s.end = sv.int_or<common::SimTime>("end_ns", 0, ok);
      s.span = sv.int_or<SpanId>("span", 0, ok);
      fp.critical_path.push_back(std::move(s));
    }
  }
  return fp;
}

TimeWhereProfile profile_from_json(const json::Value& v, bool& ok) {
  TimeWhereProfile p;
  p.root_span = v.string_or("root", "");
  p.at = v.int_or<common::SimTime>("at_ns", 0, ok);
  p.files_profiled = v.int_or<std::uint64_t>("files_profiled", 0, ok);
  p.dropped_spans = v.int_or<std::uint64_t>("dropped_spans", 0, ok);
  p.clamped_spans = v.int_or<std::uint64_t>("clamped_spans", 0, ok);
  p.total = v.int_or<common::SimDuration>("total_ns", 0, ok);
  if (const json::Value* cats = v.find("categories")) {
    for (const auto& cv : cats->as_array()) {
      const ProfileCategory c =
          profile_category_from_name(cv.string_or("name", ""));
      p.category_self[static_cast<int>(c)] =
          cv.int_or<common::SimDuration>("self_ns", 0, ok);
    }
  }
  if (const json::Value* files = v.find("files")) {
    for (const auto& fv : files->as_array()) {
      p.files.push_back(file_profile_from_json(fv, ok));
    }
  }
  if (const json::Value* exs = v.find("exemplars")) {
    for (const auto& ev : exs->as_array()) {
      TailExemplar ex;
      ex.category = profile_category_from_name(ev.string_or("category", ""));
      ex.file = ev.string_or("file", "");
      ex.track = ev.int_or<TrackId>("track", 0, ok);
      ex.span = ev.int_or<SpanId>("span", 0, ok);
      ex.self = ev.int_or<common::SimDuration>("self_ns", 0, ok);
      ex.total = ev.int_or<common::SimDuration>("total_ns", 0, ok);
      p.exemplars.push_back(std::move(ex));
    }
  }
  if (const json::Value* stacks = v.find("stacks")) {
    for (const auto& sv : stacks->as_array()) {
      StackWeight sw;
      sw.stack = sv.string_or("stack", "");
      sw.self = sv.int_or<common::SimDuration>("self_ns", 0, ok);
      p.stacks.push_back(std::move(sw));
    }
  }
  return p;
}

SeriesSummary series_from_json(const json::Value& v, bool& ok) {
  SeriesSummary s;
  s.name = v.string_or("name", "");
  s.labels = labels_from_json(v, "labels");
  s.samples = v.int_or<std::uint64_t>("samples", 0, ok);
  s.min = v.number_or("min", 0);
  s.max = v.number_or("max", 0);
  s.sum = v.number_or("sum", 0);
  if (const json::Value* points = v.find("points"); points != nullptr) {
    for (const auto& pv : points->as_array()) {
      RollupPoint p;
      p.start = pv.int_or<common::SimTime>("start_ns", 0, ok);
      p.min = pv.number_or("min", 0);
      p.max = pv.number_or("max", 0);
      p.sum = pv.number_or("sum", 0);
      p.count = pv.int_or<std::uint64_t>("count", 0, ok);
      s.points.push_back(p);
    }
  }
  return s;
}

}  // namespace

void RunManifest::set_bench(std::string bench_name, double value) {
  for (auto& b : bench) {
    if (b.name == bench_name) {
      b.value = value;
      return;
    }
  }
  bench.push_back({std::move(bench_name), value});
}

double RunManifest::bench_or(std::string_view bench_name,
                             double fallback) const {
  for (const auto& b : bench) {
    if (b.name == bench_name) return b.value;
  }
  return fallback;
}

std::string RunManifest::to_json() const {
  std::string out = "{\n";
  out += "\"manifest\":\"" + json_escape(name) + "\",\n";
  out += "\"seed\":" + std::to_string(seed) + ",\n";
  out += "\"topology\":\"" + json_escape(topology) + "\",\n";
  out += "\"fault_timeline_hash\":\"" + hex64(fault_timeline_hash) + "\",\n";
  out += "\"flight_digest\":\"" + hex64(flight_digest) + "\",\n";
  out += "\"events_recorded\":" + std::to_string(events_recorded) + ",\n";
  out += "\"events_evicted\":" + std::to_string(events_evicted) + ",\n";
  out += "\"bench\":[";
  for (std::size_t i = 0; i < bench.size(); ++i) {
    out += i ? ",\n  " : "\n  ";
    out += "{\"name\":\"" + json_escape(bench[i].name) +
           "\",\"value\":" + fmt_double(bench[i].value) + "}";
  }
  out += "\n],\n\"alerts\":[";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    out += i ? ",\n  " : "\n  ";
    out += alert_to_json(alerts[i]);
  }
  out += "\n],\n\"series\":[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    out += i ? ",\n  " : "\n  ";
    out += series_to_json(series[i]);
  }
  out += "\n],\n";
  if (has_profile) {
    out += "\"profile\":" + profile_to_json(profile) + ",\n";
  }
  out += "\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out += i ? ",\n  " : "\n  ";
    out += obs::to_json(events[i]);
  }
  out += "\n],\n\"metrics\":" + obs::to_json(metrics) + "\n}\n";
  return out;
}

Result<RunManifest> RunManifest::from_json(std::string_view text) {
  auto parsed = json::parse(text);
  if (!parsed) return parsed.error();
  const json::Value& v = *parsed;
  if (!v.is_object() || v.find("manifest") == nullptr) {
    return Error{Errc::protocol_error, "not a run manifest (no \"manifest\")"};
  }
  RunManifest m;
  bool ok = true;
  m.name = v.string_or("manifest", "");
  m.seed = v.int_or<std::uint64_t>("seed", 0, ok);
  m.topology = v.string_or("topology", "");
  m.fault_timeline_hash = parse_hex64(v.string_or("fault_timeline_hash", "0"));
  m.flight_digest = parse_hex64(v.string_or("flight_digest", "0"));
  m.events_recorded = v.int_or<std::uint64_t>("events_recorded", 0, ok);
  m.events_evicted = v.int_or<std::uint64_t>("events_evicted", 0, ok);
  if (const json::Value* bench = v.find("bench"); bench != nullptr) {
    for (const auto& bv : bench->as_array()) {
      m.bench.push_back(
          {bv.string_or("name", ""), bv.number_or("value", 0)});
    }
  }
  if (const json::Value* alerts = v.find("alerts"); alerts != nullptr) {
    for (const auto& av : alerts->as_array()) {
      m.alerts.push_back(alert_from_json(av, ok));
    }
  }
  if (const json::Value* series = v.find("series"); series != nullptr) {
    for (const auto& sv : series->as_array()) {
      m.series.push_back(series_from_json(sv, ok));
    }
  }
  if (const json::Value* profile = v.find("profile"); profile != nullptr) {
    m.has_profile = true;
    m.profile = profile_from_json(*profile, ok);
  }
  if (const json::Value* events = v.find("events"); events != nullptr) {
    for (const auto& ev : events->as_array()) {
      m.events.push_back(event_from_json(ev, ok));
    }
  }
  if (const json::Value* metrics = v.find("metrics"); metrics != nullptr) {
    m.metrics = snapshot_from_json(*metrics, ok);
  }
  if (!ok) {
    return Error{Errc::protocol_error,
                 "run manifest: integer field not an in-range integer"};
  }
  return m;
}

RunManifest capture_manifest(std::string name, std::uint64_t seed,
                             std::string topology,
                             std::uint64_t timeline_hash,
                             const FlightRecorder& recorder,
                             MetricsSnapshot snapshot) {
  RunManifest m;
  m.name = std::move(name);
  m.seed = seed;
  m.topology = std::move(topology);
  m.fault_timeline_hash = timeline_hash;
  m.flight_digest = recorder.digest();
  m.events_recorded = recorder.recorded();
  m.events_evicted = recorder.evicted();
  m.events.assign(recorder.events().begin(), recorder.events().end());
  m.metrics = std::move(snapshot);
  return m;
}

void attach_telemetry(RunManifest& manifest, const TimeSeriesStore& store,
                      const AlertEngine& alerts,
                      const std::vector<std::string>& include,
                      std::size_t max_points) {
  manifest.alerts = alerts.history();
  manifest.series.clear();
  store.for_each([&](const std::string& name, const Labels& labels,
                     const TimeSeries& s) {
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
    SeriesSummary sum;
    sum.name = name;
    sum.labels = labels;
    sum.samples = s.samples();
    sum.min = s.life_min();
    sum.max = s.life_max();
    sum.sum = s.life_sum();
    // Coarse rollups give the longest horizon per point; keep the newest.
    std::vector<RollupPoint> points = s.coarse();
    if (points.size() > max_points) {
      points.erase(points.begin(),
                   points.end() - static_cast<std::ptrdiff_t>(max_points));
    }
    sum.points = std::move(points);
    manifest.series.push_back(std::move(sum));
  });
}

std::string profile_to_json(const TimeWhereProfile& p) {
  std::string out = "{\"root\":\"" + json_escape(p.root_span) +
                    "\",\"at_ns\":" + std::to_string(p.at) +
                    ",\"files_profiled\":" + std::to_string(p.files_profiled) +
                    ",\"total_ns\":" + std::to_string(p.total) +
                    ",\"dropped_spans\":" + std::to_string(p.dropped_spans) +
                    ",\"clamped_spans\":" + std::to_string(p.clamped_spans) +
                    ",\"categories\":[";
  for (int i = 0; i < kProfileCategories; ++i) {
    const auto c = static_cast<ProfileCategory>(i);
    if (i) out += ",";
    out += "\n  {\"name\":\"" + std::string(profile_category_name(c)) +
           "\",\"self_ns\":" + std::to_string(p.category_self[i]) +
           ",\"share\":" + fmt_double(p.share(c)) + "}";
  }
  out += "\n ],\"exemplars\":[";
  for (std::size_t i = 0; i < p.exemplars.size(); ++i) {
    const TailExemplar& ex = p.exemplars[i];
    if (i) out += ",";
    out += "\n  {\"category\":\"" +
           std::string(profile_category_name(ex.category)) +
           "\",\"file\":\"" + json_escape(ex.file) +
           "\",\"track\":" + std::to_string(ex.track) +
           ",\"span\":" + std::to_string(ex.span) +
           ",\"self_ns\":" + std::to_string(ex.self) +
           ",\"total_ns\":" + std::to_string(ex.total) + "}";
  }
  out += "\n ],\"stacks\":[";
  for (std::size_t i = 0; i < p.stacks.size(); ++i) {
    if (i) out += ",";
    out += "\n  {\"stack\":\"" + json_escape(p.stacks[i].stack) +
           "\",\"self_ns\":" + std::to_string(p.stacks[i].self) + "}";
  }
  out += "\n ],\"files\":[";
  for (std::size_t i = 0; i < p.files.size(); ++i) {
    if (i) out += ",";
    out += "\n  " + file_profile_to_json(p.files[i]);
  }
  out += "\n ]}";
  return out;
}

void attach_profile(RunManifest& manifest, const TimeWhereProfile& profile,
                    std::size_t max_files, std::size_t max_steps) {
  manifest.profile = profile;
  manifest.has_profile = true;
  TimeWhereProfile& p = manifest.profile;
  if (p.files.size() > max_files) {
    // Keep only exemplar-referenced rows; aggregates stay complete.
    std::vector<FileProfile> kept;
    for (const auto& fp : p.files) {
      bool referenced = false;
      for (const auto& ex : p.exemplars) {
        if (ex.span == fp.span) {
          referenced = true;
          break;
        }
      }
      if (referenced) kept.push_back(fp);
    }
    p.files = std::move(kept);
  }
  for (auto& fp : p.files) {
    if (fp.critical_path.size() <= max_steps) continue;
    CriticalStep elided;
    elided.frame =
        "(+" +
        std::to_string(fp.critical_path.size() - (max_steps - 1)) +
        " more steps)";
    elided.start = fp.critical_path[max_steps - 1].start;
    elided.end = fp.critical_path.back().end;
    elided.category = ProfileCategory::overhead;
    fp.critical_path.resize(max_steps - 1);
    fp.critical_path.push_back(std::move(elided));
  }
}

Result<RunManifest> load_manifest(const std::string& path) {
  auto text = read_file(path);
  if (!text) return text.error();
  return RunManifest::from_json(*text);
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return n == text.size();
}

Result<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Error{Errc::not_found, "cannot open " + path};
  }
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, n);
  }
  std::fclose(f);
  return out;
}

}  // namespace esg::obs

#include "sim/explore/schedule.hpp"

#include <cstdio>

#include "common/bytebuf.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace esg::explore {

namespace {

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_i64(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

// %.17g round-trips every double; magnitudes must re-serialize byte-stably.
std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t FaultSchedule::hash() const {
  std::uint64_t h = common::fnv1a64("esg.fault_schedule.v1");
  h = common::fnv1a64(&sim_seed, sizeof(sim_seed), h);
  h = common::fnv1a64(&horizon, sizeof(horizon), h);
  for (const auto& e : faults) {
    const auto kind = static_cast<std::uint32_t>(e.kind);
    h = common::fnv1a64(&kind, sizeof(kind), h);
    h = common::fnv1a64(e.target.data(), e.target.size(), h);
    h = common::fnv1a64(&e.start, sizeof(e.start), h);
    h = common::fnv1a64(&e.duration, sizeof(e.duration), h);
    h = common::fnv1a64(&e.magnitude, sizeof(e.magnitude), h);
  }
  return h;
}

std::string FaultSchedule::hash_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash()));
  return buf;
}

std::string FaultSchedule::to_json() const {
  std::string out = "{\"schema\":\"esg.fault_schedule.v1\",";
  out += "\"name\":\"" + obs::json_escape(name) + "\",";
  out += "\"sim_seed\":" + fmt_u64(sim_seed) + ",";
  out += "\"horizon_ns\":" + fmt_i64(horizon) + ",";
  out += "\"faults\":[";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& e = faults[i];
    if (i) out += ",";
    out += "{\"kind\":\"";
    out += sim::fault_kind_name(e.kind);
    out += "\",\"target\":\"" + obs::json_escape(e.target) + "\",";
    out += "\"start_ns\":" + fmt_i64(e.start) + ",";
    out += "\"duration_ns\":" + fmt_i64(e.duration) + ",";
    out += "\"magnitude\":" + fmt_double(e.magnitude);
    if (!e.description.empty()) {
      out += ",\"description\":\"" + obs::json_escape(e.description) + "\"";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

common::Result<FaultSchedule> FaultSchedule::from_json(std::string_view text) {
  auto parsed = obs::json::parse(text);
  if (!parsed) return parsed.error();
  const auto& root = parsed.value();
  if (!root.is_object()) {
    return common::make_error(common::Errc::invalid_argument,
                              "fault schedule: not a JSON object");
  }
  const std::string schema = root.string_or("schema", "");
  if (schema != "esg.fault_schedule.v1") {
    return common::make_error(common::Errc::invalid_argument,
                              "fault schedule: unknown schema '" + schema +
                                  "'");
  }
  FaultSchedule sched;
  bool ok = true;
  sched.name = root.string_or("name", "");
  sched.sim_seed = root.int_or<std::uint64_t>("sim_seed", 1, ok);
  sched.horizon = root.int_or("horizon_ns", sched.horizon, ok);
  const auto* faults = root.find("faults");
  if (faults != nullptr) {
    if (!faults->is_array()) {
      return common::make_error(common::Errc::invalid_argument,
                                "fault schedule: 'faults' is not an array");
    }
    for (const auto& f : faults->as_array()) {
      if (!f.is_object()) {
        return common::make_error(common::Errc::invalid_argument,
                                  "fault schedule: fault entry not an object");
      }
      auto kind = sim::parse_fault_kind(f.string_or("kind", ""));
      if (!kind) return kind.error();
      sim::FaultEvent e;
      e.kind = kind.value();
      e.target = f.string_or("target", "");
      e.start = f.int_or<common::SimTime>("start_ns", 0, ok);
      e.duration = f.int_or<common::SimDuration>("duration_ns", 0, ok);
      e.magnitude = f.number_or("magnitude", 0.0);
      e.description = f.string_or("description", "");
      sim::normalize_fault(e);
      sched.faults.push_back(std::move(e));
    }
  }
  if (!ok) {
    return common::make_error(
        common::Errc::protocol_error,
        "fault schedule: integer field not an in-range integer");
  }
  return sched;
}

std::string replay_command(const FaultSchedule& schedule) {
  // The schedule JSON contains no single quotes (json_escape never emits
  // them), so single-quoting it is shell-safe for a copy-paste repro.
  return "esg-explore replay --inline '" + schedule.to_json() + "'";
}

}  // namespace esg::explore

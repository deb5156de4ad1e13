#include "obs/cause.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <string_view>

namespace esg::obs {

namespace {

constexpr common::SimDuration kRecentWindow = 120 * common::kSecond;
/// Stop time of a fault still acting.
constexpr common::SimTime kActive = std::numeric_limits<common::SimTime>::max();

/// Parses the seq an event's `cause` attribute names into `seq`.
bool link_of(const FlightEvent& e, std::uint64_t& seq) {
  const std::string_view s = e.attr("cause");
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), seq);
  return !s.empty() && ec == std::errc() && end == s.data() + s.size();
}

}  // namespace

const FlightEvent* cause_of(const std::vector<FlightEvent>& events,
                            common::SimTime at, const FlightEvent* symptom) {
  std::uint64_t seq = 0;
  if (symptom != nullptr && !symptom->attr("cause").empty()) {
    if (!link_of(*symptom, seq)) return nullptr;
    const auto it = std::lower_bound(
        events.begin(), events.end(), seq,
        [](const FlightEvent& e, std::uint64_t s) { return e.seq < s; });
    return it != events.end() && it->seq == seq ? &*it : nullptr;
  }

  // One pass: each fault injected by `at` (by seq) and when it stopped.
  std::map<std::uint64_t, std::pair<const FlightEvent*, common::SimTime>>
      faults;
  std::map<std::pair<std::string_view, std::string_view>,
           std::vector<std::uint64_t>>
      open;  // (stem, target) -> durable faults awaiting their .end
  for (const auto& e : events) {
    if (e.at > at) break;
    const std::string_view name = e.name;
    const std::size_t dot = name.rfind('.');
    const std::pair key{name.substr(0, dot), std::string_view(e.target)};
    if (e.category != "chaos") {
      if (link_of(e, seq) && faults.count(seq) != 0) faults[seq].second = e.at;
    } else if (name == "fault.corruption") {
      faults[e.seq] = {&e, e.at};
    } else if (name.substr(dot + 1) == "begin") {
      open[key].push_back(e.seq);
      faults[e.seq] = {&e, kActive};
    } else if (name.substr(dot + 1) == "end" && e.at < at) {
      for (std::uint64_t begin : open[key]) faults[begin].second = e.at;
      open.erase(key);
    }
  }

  const FlightEvent* active = nullptr;
  const FlightEvent* recent = nullptr;
  for (const auto& [_, fault] : faults) {
    if (fault.second == kActive) {
      active = fault.first;
    } else if (at - fault.second <= kRecentWindow) {
      recent = fault.first;
    }
  }
  return active != nullptr ? active : recent;
}

}  // namespace esg::obs

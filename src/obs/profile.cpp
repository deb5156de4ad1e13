#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>

namespace esg::obs {

namespace {

using common::SimDuration;
using common::SimTime;

const char* kCategoryNames[kProfileCategories] = {
    "queue-wait", "breaker-wait", "backoff", "stage",
    "network",    "checksum",     "overhead",
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Category of an interval whose deepest covering span is `name`, when the
/// span itself decides (leaf phases / data movement).  Returns true and
/// sets `out` if decisive; ambiguous containers (the root, `rm.transfer`,
/// `hrm.stage`) fall through to the event-based gap classifier.
bool span_decides(std::string_view name, ProfileCategory& out) {
  if (name == "net.tcp") {
    out = ProfileCategory::network;
    return true;
  }
  if (name == "gridftp.checksum") {
    out = ProfileCategory::checksum;
    return true;
  }
  if (starts_with(name, "hrm.") && name != "hrm.stage") {
    out = ProfileCategory::stage;  // hrm.stage.rpc and friends
    return true;
  }
  if (name == "rm.lookup" || name == "rm.find_replicas" ||
      name == "rm.rank_replicas") {
    out = ProfileCategory::overhead;
    return true;
  }
  if (starts_with(name, "gridftp.")) {
    // Control-plane time inside an op not covered by net.tcp: session
    // AUTH, RETR/STOR round-trips, connect handshakes.
    out = ProfileCategory::overhead;
    return true;
  }
  return false;
}

struct Window {
  SimTime begin = 0;
  SimTime end = 0;
};

/// [from, to] intervals during which a host's breaker refused traffic
/// (open or half-open).
struct BreakerTimeline {
  std::vector<Window> open;

  bool covers(SimTime a, SimTime b) const {
    for (const auto& w : open) {
      if (w.begin <= a && w.end >= b) return true;
    }
    return false;
  }
};

SimDuration backoff_ns_of(const FlightEvent& e) {
  const std::string_view ns = e.attr("backoff_ns");
  if (!ns.empty()) {
    return std::strtoll(std::string(ns).c_str(), nullptr, 10);
  }
  const std::string_view s = e.attr("backoff_s");
  if (!s.empty()) {
    return common::from_seconds(std::strtod(std::string(s).c_str(), nullptr));
  }
  return 0;
}

/// A descendant of a root span, read once from its row: the interval
/// (open spans clamped to the capture time) and its depth below the root.
struct Node {
  SpanId id = 0;
  SimTime start = 0;
  SimTime end = 0;
  Symbol name = 0;
  int depth = 0;
};

/// What a span name decides, computed once per symbol.
struct NameFacts {
  bool decides = false;  // span_decides(): `category` is the interval's
  ProfileCategory category = ProfileCategory::overhead;
  bool hrm = false;        // "hrm." prefix: the file passed through staging
  bool hrm_stage = false;  // the "hrm.stage" container
};

/// Regroups `tagged` (group, item) pairs by group, keeping each group's
/// items in their original order: group g is items[offset[g], offset[g+1]).
template <class T>
void group_by(std::size_t groups,
              const std::vector<std::pair<std::uint32_t, T>>& tagged,
              std::vector<std::uint32_t>& offset, std::vector<T>& items) {
  offset.assign(groups + 1, 0);
  for (const auto& entry : tagged) ++offset[entry.first + 1];
  for (std::size_t g = 0; g < groups; ++g) offset[g + 1] += offset[g];
  std::vector<std::uint32_t> cursor(offset.begin(), offset.end() - 1);
  items.resize(tagged.size());
  for (const auto& [g, item] : tagged) items[cursor[g]++] = item;
}

bool in_any(const std::vector<Window>& windows, SimTime a, SimTime b) {
  for (const auto& w : windows) {
    if (w.begin <= a && w.end >= b) return true;
  }
  return false;
}

const char* gap_frame(ProfileCategory c) {
  switch (c) {
    case ProfileCategory::queue_wait: return "(queued)";
    case ProfileCategory::breaker_wait: return "(breaker-wait)";
    case ProfileCategory::backoff: return "(backoff)";
    case ProfileCategory::stage: return "(staging)";
    default: return "(overhead)";
  }
}

}  // namespace

const char* profile_category_name(ProfileCategory c) {
  const int i = static_cast<int>(c);
  if (i < 0 || i >= kProfileCategories) return "?";
  return kCategoryNames[i];
}

ProfileCategory profile_category_from_name(std::string_view name) {
  for (int i = 0; i < kProfileCategories; ++i) {
    if (name == kCategoryNames[i]) return static_cast<ProfileCategory>(i);
  }
  return ProfileCategory::overhead;
}

common::SimDuration FileProfile::category_sum() const {
  SimDuration sum = 0;
  for (const SimDuration d : self) sum += d;
  return sum;
}

ProfileCategory FileProfile::dominant() const {
  int best = 0;
  for (int i = 1; i < kProfileCategories; ++i) {
    if (self[i] > self[best]) best = i;
  }
  return static_cast<ProfileCategory>(best);
}

double TimeWhereProfile::share(ProfileCategory c) const {
  if (total <= 0) return 0.0;
  return static_cast<double>(category_self[static_cast<int>(c)]) /
         static_cast<double>(total);
}

const FileProfile* TimeWhereProfile::find(std::string_view file) const {
  for (const auto& fp : files) {
    if (fp.file == file) return &fp;
  }
  return nullptr;
}

TimeWhereProfile build_profile(const Tracer& tracer,
                               const FlightRecorder& recorder,
                               const ProfileOptions& options) {
  const SimTime at = tracer.now();
  const std::deque<FlightEvent>& events = recorder.events();
  const std::vector<SpanRow>& rows = tracer.span_rows();
  TimeWhereProfile profile;
  profile.root_span = options.root_span;
  profile.at = at;
  profile.dropped_spans = tracer.dropped();

  std::vector<NameFacts> facts(tracer.symbol_count());
  for (std::size_t s = 0; s < facts.size(); ++s) {
    const std::string_view name = tracer.symbol(static_cast<Symbol>(s));
    facts[s].decides = span_decides(name, facts[s].category);
    facts[s].hrm = starts_with(name, "hrm.");
    facts[s].hrm_stage = name == "hrm.stage";
  }

  // Host breaker timelines from the global event stream.  A breaker
  // refuses traffic from `breaker.open` until the next `breaker.closed`
  // (half-open still refuses normal requests).
  std::map<std::string_view, BreakerTimeline> breakers;
  {
    std::map<std::string_view, SimTime> opened_at;
    for (const auto& e : events) {
      if (!starts_with(e.name, "breaker.")) continue;
      if (e.name == "breaker.open") {
        opened_at.emplace(e.target, e.at);
      } else if (e.name == "breaker.closed") {
        auto it = opened_at.find(e.target);
        if (it != opened_at.end()) {
          breakers[e.target].open.push_back({it->second, e.at});
          opened_at.erase(it);
        }
      }
    }
    for (const auto& [host, begin] : opened_at) {
      breakers[host].open.push_back({begin, at});  // still open at capture
    }
  }

  // Roots in (start, id) order; a span still open at capture ends at `at`.
  const Symbol root_name = tracer.find_symbol(options.root_span);
  std::vector<SpanId> roots;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].name == root_name) roots.push_back(i + 1);
  }
  std::sort(roots.begin(), roots.end(), [&tracer](SpanId a, SpanId b) {
    const SimTime sa = tracer.row(a).start;
    const SimTime sb = tracer.row(b).start;
    return sa != sb ? sa < sb : a < b;
  });

  // Each track's root is its last root in that order.
  std::vector<std::uint32_t> root_of_track;  // root index + 1; 0 = none
  for (std::size_t r = 0; r < roots.size(); ++r) {
    const TrackId track = tracer.row(roots[r]).track;
    if (track >= root_of_track.size()) root_of_track.resize(track + 1, 0);
    root_of_track[track] = static_cast<std::uint32_t>(r + 1);
  }
  auto root_on = [&root_of_track](TrackId track) -> std::uint32_t {
    return track < root_of_track.size() ? root_of_track[track] : 0;
  };

  // Descendants: same-track spans whose parent chain reaches the root
  // (ids increase with creation order, so the walk terminates).
  std::vector<std::uint32_t> node_offset;
  std::vector<Node> nodes;
  {
    std::vector<std::pair<std::uint32_t, Node>> tagged;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SpanRow& row = rows[i];
      const std::uint32_t r = root_on(row.track);
      if (r == 0) continue;
      const SpanId root = roots[r - 1];
      const SpanId id = i + 1;
      if (id == root) continue;
      int depth = 1;
      SpanId p = row.parent;
      while (p != 0 && p != root && p <= rows.size()) {
        p = rows[p - 1].parent;
        ++depth;
      }
      if (p != root) continue;
      tagged.push_back(
          {r - 1, Node{id, row.start, row.end_at(at), row.name, depth}});
    }
    group_by(roots.size(), tagged, node_offset, nodes);
  }

  // Per-track events: backoff windows and candidate hosts.
  std::vector<std::uint32_t> event_offset;
  std::vector<const FlightEvent*> root_events;
  {
    std::vector<std::pair<std::uint32_t, const FlightEvent*>> tagged;
    for (const auto& e : events) {
      if (e.track == 0) continue;
      const std::uint32_t r = root_on(e.track);
      if (r != 0) tagged.push_back({r - 1, &e});
    }
    group_by(roots.size(), tagged, event_offset, root_events);
  }

  std::map<std::string, SimDuration, std::less<>> stack_weights;
  std::vector<Window> backoff;
  std::vector<std::string_view> host_names;
  std::vector<const BreakerTimeline*> hosts;  // nullptr: never opened
  std::vector<SimTime> bounds;
  std::vector<SpanId> chain;
  std::string stack;

  for (std::size_t r = 0; r < roots.size(); ++r) {
    const SpanId root_id = roots[r];
    const SpanRow& root = tracer.row(root_id);
    const SimTime root_end = root.end_at(at);
    const std::string_view root_name_text = tracer.symbol(root.name);
    const Node* first_node = nodes.data() + node_offset[r];
    const Node* last_node = nodes.data() + node_offset[r + 1];

    backoff.clear();
    host_names.clear();
    for (std::uint32_t i = event_offset[r]; i < event_offset[r + 1]; ++i) {
      const FlightEvent& e = *root_events[i];
      if (e.name == "retry.scheduled" || e.name == "stage.retry") {
        const SimDuration ns = backoff_ns_of(e);
        if (ns > 0) backoff.push_back({e.at, e.at + ns});
      }
      const std::string_view host = e.attr("host");
      if (!host.empty() && std::find(host_names.begin(), host_names.end(),
                                     host) == host_names.end()) {
        host_names.push_back(host);
      }
    }
    hosts.clear();
    for (const std::string_view host : host_names) {
      const auto bit = breakers.find(host);
      hosts.push_back(bit == breakers.end() ? nullptr : &bit->second);
    }

    FileProfile fp;
    fp.file = std::string(tracer.attr(root, "file"));
    if (fp.file.empty()) {
      fp.file = std::string(root_name_text) + "#" + std::to_string(root_id);
    }
    fp.track = root.track;
    fp.span = root_id;
    fp.start = root.start;
    fp.end = root_end;
    fp.clamped = root.open();
    const std::string_view status = tracer.attr(root, "status");
    fp.failed = !status.empty() && status != "ok";
    if (fp.clamped) ++profile.clamped_spans;

    // Elementary boundaries: descendant edges, backoff window edges, and
    // candidate-host breaker transitions, all clamped into the root span.
    bounds.clear();
    bounds.push_back(root.start);
    bounds.push_back(root_end);
    auto add_bound = [&](SimTime t) {
      if (t > root.start && t < root_end) bounds.push_back(t);
    };
    SimTime first_child_start = root_end;
    for (const Node* d = first_node; d != last_node; ++d) {
      add_bound(d->start);
      add_bound(d->end);
      if (facts[d->name].hrm) fp.staged = true;
      first_child_start = std::min(first_child_start, d->start);
    }
    for (const auto& w : backoff) {
      add_bound(w.begin);
      add_bound(w.end);
    }
    for (const BreakerTimeline* timeline : hosts) {
      if (timeline == nullptr) continue;
      for (const auto& w : timeline->open) {
        add_bound(w.begin);
        add_bound(w.end);
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    auto all_breakers_open = [&](SimTime a, SimTime b) {
      if (hosts.empty()) return false;
      for (const BreakerTimeline* timeline : hosts) {
        if (timeline == nullptr || !timeline->covers(a, b)) return false;
      }
      return true;
    };

    // Sweep elementary intervals, attributing each to the deepest
    // covering descendant (ties: later start, then higher id).
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const SimTime a = bounds[i];
      const SimTime b = bounds[i + 1];
      if (b <= a) continue;
      const Node* deepest = nullptr;  // nullptr: the root itself
      for (const Node* d = first_node; d != last_node; ++d) {
        if (d->start > a || d->end < b) continue;
        if (deepest == nullptr || d->depth > deepest->depth ||
            (d->depth == deepest->depth &&
             (d->start > deepest->start ||
              (d->start == deepest->start && d->id > deepest->id)))) {
          deepest = d;
        }
      }
      const SpanId deepest_id = deepest != nullptr ? deepest->id : root_id;
      const NameFacts& name =
          facts[deepest != nullptr ? deepest->name : root.name];

      ProfileCategory cat = name.category;
      const bool gap = !name.decides;
      if (gap) {
        if (deepest == nullptr && b <= first_child_start) {
          cat = ProfileCategory::queue_wait;
        } else if (name.hrm_stage) {
          cat = in_any(backoff, a, b) ? ProfileCategory::backoff
                                      : ProfileCategory::stage;
        } else if (all_breakers_open(a, b)) {
          cat = ProfileCategory::breaker_wait;
        } else if (in_any(backoff, a, b)) {
          cat = ProfileCategory::backoff;
        } else {
          cat = ProfileCategory::overhead;
        }
      }

      fp.self[static_cast<int>(cat)] += b - a;

      // Collapsed stack: root → deepest chain, plus a synthetic leaf
      // frame for gap intervals.
      chain.clear();
      for (SpanId s = deepest_id; s != 0 && s != root_id && s <= rows.size();
           s = rows[s - 1].parent) {
        chain.push_back(s);
      }
      stack.assign(root_name_text);
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        stack += ';';
        stack += tracer.symbol(tracer.row(*it).name);
      }
      if (gap) {
        stack += ';';
        stack += gap_frame(cat);
      }
      auto weight = stack_weights.find(stack);
      if (weight == stack_weights.end()) {
        weight = stack_weights.emplace(stack, 0).first;
      }
      weight->second += b - a;

      // Critical path: extend the previous step when the deepest span and
      // category repeat, else begin a new one.
      if (!fp.critical_path.empty() &&
          fp.critical_path.back().span == deepest_id &&
          fp.critical_path.back().category == cat &&
          fp.critical_path.back().end == a) {
        fp.critical_path.back().end = b;
      } else {
        CriticalStep step;
        step.frame = gap ? std::string(gap_frame(cat))
                         : std::string(tracer.symbol(
                               deepest != nullptr ? deepest->name
                                                  : root.name));
        step.category = cat;
        step.start = a;
        step.end = b;
        step.span = deepest_id;
        fp.critical_path.push_back(std::move(step));
      }
    }

    for (int i = 0; i < kProfileCategories; ++i) {
      profile.category_self[i] += fp.self[i];
    }
    profile.total += fp.total();
    profile.files.push_back(std::move(fp));
  }

  // Tail exemplars: the k slowest files per category.
  for (int c = 0; c < kProfileCategories; ++c) {
    std::vector<const FileProfile*> ranked;
    for (const auto& fp : profile.files) {
      if (fp.self[c] > 0) ranked.push_back(&fp);
    }
    std::sort(ranked.begin(), ranked.end(),
              [c](const FileProfile* a, const FileProfile* b) {
                if (a->self[c] != b->self[c]) return a->self[c] > b->self[c];
                return a->file < b->file;
              });
    const std::size_t k =
        std::min<std::size_t>(ranked.size(),
                              options.exemplars_per_category < 0
                                  ? 0
                                  : options.exemplars_per_category);
    for (std::size_t i = 0; i < k; ++i) {
      TailExemplar ex;
      ex.category = static_cast<ProfileCategory>(c);
      ex.file = ranked[i]->file;
      ex.track = ranked[i]->track;
      ex.span = ranked[i]->span;
      ex.self = ranked[i]->self[c];
      ex.total = ranked[i]->total();
      profile.exemplars.push_back(std::move(ex));
    }
  }

  profile.stacks.reserve(stack_weights.size());
  for (auto& [stack_key, self] : stack_weights) {
    profile.stacks.push_back(StackWeight{stack_key, self});
  }
  profile.files_profiled = profile.files.size();
  return profile;
}

std::string TimeWhereProfile::render() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "time-where: %s — %llu files, total %.3fs%s\n",
                root_span.c_str(),
                static_cast<unsigned long long>(
                    files_profiled > 0 ? files_profiled : files.size()),
                common::to_seconds(total),
                clamped_spans > 0 ? " (truncated run: open spans clamped)"
                                  : "");
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), "  %-13s %12s %7s  %s\n", "category",
                "self", "share", "slowest exemplar");
  out += buf;
  for (int c = 0; c < kProfileCategories; ++c) {
    const TailExemplar* slowest = nullptr;
    for (const auto& ex : exemplars) {
      if (static_cast<int>(ex.category) == c) {
        slowest = &ex;
        break;  // exemplars are category-major, slowest first
      }
    }
    std::string tail;
    if (slowest != nullptr) {
      std::snprintf(buf, sizeof(buf), "%s (%.3fs, span %llu)",
                    slowest->file.c_str(), common::to_seconds(slowest->self),
                    static_cast<unsigned long long>(slowest->span));
      tail = buf;
    }
    std::snprintf(buf, sizeof(buf), "  %-13s %11.3fs %6.1f%%  %s\n",
                  kCategoryNames[c], common::to_seconds(category_self[c]),
                  100.0 * share(static_cast<ProfileCategory>(c)),
                  tail.c_str());
    out += buf;
  }
  return out;
}

std::string render_critical_path(const FileProfile& fp) {
  char buf[256];
  const ProfileCategory dom = fp.dominant();
  std::snprintf(
      buf, sizeof(buf),
      "critical path: %s — total %.3fs, dominant %s (%.1f%%)%s%s\n",
      fp.file.c_str(), common::to_seconds(fp.total()),
      profile_category_name(dom),
      fp.total() > 0 ? 100.0 * static_cast<double>(fp.self_time(dom)) /
                           static_cast<double>(fp.total())
                     : 0.0,
      fp.failed ? " [failed]" : "", fp.clamped ? " [clamped]" : "");
  std::string out = buf;
  for (const auto& step : fp.critical_path) {
    std::snprintf(buf, sizeof(buf),
                  "  +%10.3fs %10.3fs  %-12s %s  [span %llu]\n",
                  common::to_seconds(step.start - fp.start),
                  common::to_seconds(step.duration()),
                  profile_category_name(step.category), step.frame.c_str(),
                  static_cast<unsigned long long>(step.span));
    out += buf;
  }
  return out;
}

}  // namespace esg::obs

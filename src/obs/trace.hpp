// Sim-time span tracing.
//
// A Tracer is bound to a simulation clock and records nested spans — named
// intervals of simulated time with parent/child structure and per-span
// attributes — into a bounded in-memory store.  Spans live on *tracks*
// (one per logical thread of activity: the request manager gives every
// file worker its own track), and within a track spans nest: a span begun
// while another is open becomes its child unless an explicit parent is
// given.  That matches how the Chrome trace_event viewer (about:tracing /
// Perfetto) renders them — tracks map to tids, nesting shows as stacked
// slices.
//
// Two usage styles:
//
//   * RAII for synchronous scopes:
//       auto sp = tracer.span("rm.rank_replicas", "rm", track);
//   * begin()/end() ids for async state machines that outlive any C++
//     scope (GridFTP operations, fluid transfers); Span is movable and can
//     be parked in the state struct, ending on destruction.
//
// When the store fills, new spans are dropped (counted, never silently):
// the begin() returns id 0 and every operation on id 0 is a no-op, so
// instrumented code needs no capacity checks.
//
// The store is columnar and owns every byte of the trace:
//
//   * Names, categories and attribute keys are interned into per-tracer
//     symbols (Symbol 0 is the empty string).
//   * Each span is one fixed-size SpanRow (56 bytes): parent, the track's
//     next-outer open span, track, start, end, name and category symbols,
//     and its first and last attribute row.  SpanId = row index + 1.
//   * Attributes are 24-byte AttrRows (key symbol, next row, value offset
//     and length) chained per span; every value and track name lives in one
//     char arena.  instant() markers are SpanRows (start == end) in their
//     own column of the same store.
//   * Each track's innermost open span is a head in a vector indexed by
//     TrackId; a row's `prev_open` links to the span that was innermost when
//     it began.  end() pops ended spans off the head lazily, which equals a
//     per-track stack with erase-anywhere (async spans may end out of
//     order).
//
// A span with four short attributes therefore costs 56 + 4 × 24 bytes plus
// its value bytes, in a handful of geometrically grown vectors: tracing N
// spans makes O(log N) heap allocations.  The previous owning record took
// 136 bytes inline plus two strings and a vector of string pairs per span,
// about five allocations and ~500 bytes each.
//
// Readers (the profiler, the Chrome exporter, tests) read the rows in
// place; nothing copies the trace.  A span still open at read time is
// clamped by the reader to the capture clock.
//
// A Tracer belongs to its Simulation's thread: it takes no lock, and no
// code shares one across threads (sweeps run one Simulation per thread).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace esg::obs {

using SpanId = std::uint64_t;   // 0 = invalid / dropped
using TrackId = std::uint64_t;  // 0 = the default track
using Symbol = std::uint32_t;   // interned string; 0 = ""

/// A symbol no row ever carries: find_symbol()'s "never interned".
inline constexpr Symbol kNoSymbol = ~Symbol{0};

/// One span (or instant) of the columnar store.
struct SpanRow {
  SpanId parent = 0;
  SpanId prev_open = 0;  // track's innermost open span when this one began
  TrackId track = 0;
  common::SimTime start = 0;
  common::SimTime end = -1;  // -1: still open
  Symbol name = 0;
  Symbol category = 0;
  std::uint32_t first_attr = 0;  // attribute row index + 1; 0 = none
  std::uint32_t last_attr = 0;

  bool open() const { return end < 0; }
  /// End time, with a still-open span clamped to the capture clock `at`.
  common::SimTime end_at(common::SimTime at) const {
    return open() ? at : end;
  }
};

/// One attribute of a span: `key` = value bytes [offset, offset + length)
/// of the tracer's arena; `next` chains the span's attributes in order.
struct AttrRow {
  Symbol key = 0;
  std::uint32_t next = 0;  // attribute row index + 1; 0 = last
  std::uint32_t length = 0;
  std::uint64_t offset = 0;
};

class Tracer;

/// Movable RAII handle; ends the span on destruction (once).
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { swap(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      swap(other);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void end();
  void set_attr(std::string_view key, std::string_view value);
  /// Begin a child span on the same track.
  Span child(std::string_view name, std::string_view category = {});

  SpanId id() const { return id_; }
  TrackId track() const { return track_; }
  explicit operator bool() const { return tracer_ != nullptr && id_ != 0; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, SpanId id, TrackId track)
      : tracer_(tracer), id_(id), track_(track) {}
  void swap(Span& other) noexcept {
    std::swap(tracer_, other.tracer_);
    std::swap(id_, other.id_);
    std::swap(track_, other.track_);
  }

  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  TrackId track_ = 0;
};

class Tracer {
 public:
  /// `clock` supplies the simulated now; `max_spans` bounds the store.
  explicit Tracer(std::function<common::SimTime()> clock,
                  std::size_t max_spans = 1 << 17);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Allocate a named track (a tid in the Chrome trace).
  TrackId new_track(std::string_view name);

  /// RAII span; parent inferred from the track's innermost open span.
  Span span(std::string_view name, std::string_view category = {},
            TrackId track = 0);

  /// Raw API for async owners.  parent == 0 infers from the open spans.
  SpanId begin(std::string_view name, std::string_view category = {},
               TrackId track = 0, SpanId parent = 0);
  void end(SpanId id);
  void set_attr(SpanId id, std::string_view key, std::string_view value);

  /// Zero-duration marker event.
  void instant(std::string_view name, std::string_view category = {},
               TrackId track = 0,
               std::initializer_list<
                   std::pair<std::string_view, std::string_view>>
                   attrs = {});

  /// Grow (or shrink) the span store.  Shrinking never discards already
  /// recorded spans; it only lowers the ceiling for new ones.
  void set_capacity(std::size_t max_spans);

  /// Called whenever a span or instant is dropped, with the running drop
  /// total — the simulation wires this to an `obs_trace_dropped` gauge so
  /// silent drops surface in every snapshot.
  void set_drop_hook(std::function<void(std::size_t)> hook);

  // ---- reading the store in place ----
  /// Every span, open ones included; SpanId = index + 1.
  const std::vector<SpanRow>& span_rows() const { return rows_; }
  const SpanRow& row(SpanId id) const { return rows_[id - 1]; }
  /// Every instant() marker, in record order (start == end).
  const std::vector<SpanRow>& instant_rows() const { return instants_; }
  std::string_view symbol(Symbol s) const {
    return s == 0 ? std::string_view{} : *symbol_names_[s - 1];
  }
  /// Symbols are 0 .. symbol_count() - 1.
  std::size_t symbol_count() const { return symbol_names_.size() + 1; }
  /// The symbol of `s`, or kNoSymbol when no row could carry it.
  Symbol find_symbol(std::string_view s) const;
  /// Value of a span's attribute (the first with `key`), or "" if absent.
  std::string_view attr(const SpanRow& row, std::string_view key) const;
  /// Calls f(key, value) for each attribute of `row`, in set order.
  template <class F>
  void for_each_attr(const SpanRow& row, F&& f) const {
    for (std::uint32_t a = row.first_attr; a != 0; a = attrs_[a - 1].next) {
      const AttrRow& attr = attrs_[a - 1];
      f(symbol(attr.key), text(attr.offset, attr.length));
    }
  }
  /// Every track new_track() created, plus track 0 ("main").
  std::map<TrackId, std::string> tracks() const;
  std::size_t span_count() const { return rows_.size(); }
  std::size_t dropped() const { return dropped_; }
  std::size_t capacity() const { return max_spans_; }
  common::SimTime now() const { return clock_(); }

 private:
  struct TextRef {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
  };
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  Symbol intern(std::string_view s);
  TextRef store_text(std::string_view s);
  std::string_view text(std::uint64_t offset, std::uint32_t length) const {
    return {arena_.data() + offset, length};
  }
  void append_attr(SpanRow& row, std::string_view key,
                   std::string_view value);
  void drop();

  std::function<common::SimTime()> clock_;
  std::size_t max_spans_;
  std::function<void(std::size_t)> drop_hook_;

  std::unordered_map<std::string, Symbol, StringHash, std::equal_to<>>
      symbols_;
  std::vector<const std::string*> symbol_names_;  // Symbol s at [s - 1]
  std::vector<SpanRow> rows_;
  std::vector<SpanRow> instants_;
  std::vector<AttrRow> attrs_;
  std::vector<char> arena_;            // attribute values, track names
  std::vector<TextRef> track_names_;   // TrackId t at [t - 1]; 0 is "main"
  std::vector<SpanId> open_head_;      // innermost open span per TrackId
  std::size_t dropped_ = 0;
};

}  // namespace esg::obs

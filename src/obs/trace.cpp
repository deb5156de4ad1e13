#include "obs/trace.hpp"

#include <cassert>

namespace esg::obs {

void Span::end() {
  if (tracer_ != nullptr && id_ != 0) tracer_->end(id_);
  tracer_ = nullptr;
  id_ = 0;
}

void Span::set_attr(std::string_view key, std::string_view value) {
  if (tracer_ != nullptr && id_ != 0) tracer_->set_attr(id_, key, value);
}

Span Span::child(std::string_view name, std::string_view category) {
  if (tracer_ == nullptr) return {};
  return Span(tracer_, tracer_->begin(name, category, track_, id_), track_);
}

Tracer::Tracer(std::function<common::SimTime()> clock, std::size_t max_spans)
    : clock_(std::move(clock)), max_spans_(max_spans) {
  assert(clock_);
}

Symbol Tracer::intern(std::string_view s) {
  if (s.empty()) return 0;
  if (const auto it = symbols_.find(s); it != symbols_.end()) {
    return it->second;
  }
  const auto sym = static_cast<Symbol>(symbol_names_.size() + 1);
  const auto it = symbols_.emplace(std::string(s), sym).first;
  symbol_names_.push_back(&it->first);  // map nodes never move
  return sym;
}

Symbol Tracer::find_symbol(std::string_view s) const {
  if (s.empty()) return 0;
  const auto it = symbols_.find(s);
  return it == symbols_.end() ? kNoSymbol : it->second;
}

Tracer::TextRef Tracer::store_text(std::string_view s) {
  const TextRef ref{arena_.size(), static_cast<std::uint32_t>(s.size())};
  arena_.insert(arena_.end(), s.begin(), s.end());
  return ref;
}

void Tracer::append_attr(SpanRow& row, std::string_view key,
                         std::string_view value) {
  const Symbol k = intern(key);
  const TextRef v = store_text(value);
  attrs_.push_back(AttrRow{k, 0, v.length, v.offset});
  const auto index = static_cast<std::uint32_t>(attrs_.size());
  if (row.last_attr != 0) {
    attrs_[row.last_attr - 1].next = index;
  } else {
    row.first_attr = index;
  }
  row.last_attr = index;
}

void Tracer::drop() {
  ++dropped_;
  if (drop_hook_) drop_hook_(dropped_);
}

TrackId Tracer::new_track(std::string_view name) {
  track_names_.push_back(store_text(name));
  return track_names_.size();
}

Span Tracer::span(std::string_view name, std::string_view category,
                  TrackId track) {
  return Span(this, begin(name, category, track), track);
}

SpanId Tracer::begin(std::string_view name, std::string_view category,
                     TrackId track, SpanId parent) {
  if (rows_.size() >= max_spans_) {
    drop();
    return 0;
  }
  if (track >= open_head_.size()) open_head_.resize(track + 1, 0);
  SpanId& head = open_head_[track];
  SpanRow row;
  row.parent = parent != 0 ? parent : head;
  row.prev_open = head;
  row.track = track;
  row.start = clock_();
  row.name = intern(name);
  row.category = intern(category);
  rows_.push_back(row);
  head = rows_.size();
  return head;
}

void Tracer::end(SpanId id) {
  if (id == 0 || id > rows_.size()) return;
  SpanRow& row = rows_[id - 1];
  if (!row.open()) return;
  row.end = clock_();
  // Pop every ended span off the top of the track's open chain; one ended
  // deeper down stays linked until the spans above it end too.
  SpanId& head = open_head_[row.track];
  while (head != 0 && !rows_[head - 1].open()) head = rows_[head - 1].prev_open;
}

void Tracer::set_attr(SpanId id, std::string_view key,
                      std::string_view value) {
  if (id == 0 || id > rows_.size()) return;
  append_attr(rows_[id - 1], key, value);
}

void Tracer::instant(
    std::string_view name, std::string_view category, TrackId track,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        attrs) {
  if (instants_.size() >= max_spans_) {
    drop();
    return;
  }
  SpanRow row;
  row.track = track;
  row.start = row.end = clock_();
  row.name = intern(name);
  row.category = intern(category);
  for (const auto& [key, value] : attrs) append_attr(row, key, value);
  instants_.push_back(row);
}

void Tracer::set_capacity(std::size_t max_spans) { max_spans_ = max_spans; }

void Tracer::set_drop_hook(std::function<void(std::size_t)> hook) {
  drop_hook_ = std::move(hook);
}

std::string_view Tracer::attr(const SpanRow& row, std::string_view key) const {
  const Symbol k = find_symbol(key);
  if (k == kNoSymbol) return {};
  for (std::uint32_t a = row.first_attr; a != 0; a = attrs_[a - 1].next) {
    const AttrRow& attr = attrs_[a - 1];
    if (attr.key == k) return text(attr.offset, attr.length);
  }
  return {};
}

std::map<TrackId, std::string> Tracer::tracks() const {
  std::map<TrackId, std::string> out;
  out.emplace(0, "main");
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    const TextRef& name = track_names_[i];
    out.emplace(i + 1, text(name.offset, name.length));
  }
  return out;
}

}  // namespace esg::obs

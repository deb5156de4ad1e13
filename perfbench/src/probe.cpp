#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>

namespace {
// The benchmark is single-threaded (one workload per process).
std::uint64_t g_alloc_calls = 0;
std::uint64_t g_alloc_bytes = 0;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

// The replacement operator delete releases with free() what the
// replacement operator new took from malloc(); GCC cannot see the pairing
// once operator delete is inlined into a new-expression's caller.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++g_alloc_calls;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop

namespace perfbench {

AllocCount alloc_count() { return {g_alloc_calls, g_alloc_bytes}; }

double steady_seconds() { return static_cast<double>(steady_ns()) * 1e-9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
constexpr std::size_t kRingSlots = std::size_t{1} << 20;  // 4 MiB
constexpr double kProbeInterval = 2e-3;
constexpr int kProbeArithmetic = 1000;
constexpr int kProbeLoads = 150;
/// Host seconds of one probe unit on the reference machine: a 4-vCPU
/// KVM guest on an Intel Xeon (AVX-512 generation), in a quiet period.
constexpr double kProbeReferenceS = 40e-6;
}  // namespace

SpeedProbe::SpeedProbe() : ring_(kRingSlots) {
  // Sattolo's shuffle: one cycle through every slot, so each load depends
  // on the previous one and strides unpredictably.
  for (std::uint32_t i = 0; i < kRingSlots; ++i) ring_[i] = i;
  std::uint64_t r = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kRingSlots - 1; i > 0; --i) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    std::swap(ring_[i], ring_[r % i]);
  }
}

void SpeedProbe::begin_world() {
  spent_ = 0.0;
  units_ = 0;
  last_ = steady_seconds();
}

void SpeedProbe::between_steps() {
  const double t0 = steady_seconds();
  if (t0 - last_ < kProbeInterval) return;
  // Four independent multiply-add chains keep the core's integer units
  // busy; the ring walk waits on the memory hierarchy.
  std::uint64_t a = x_, b = a + 1, c = a + 2, d = a + 3;
  for (int i = 0; i < kProbeArithmetic; ++i) {
    a = a * 6364136223846793005ULL + 1442695040888963407ULL;
    b = b * 6364136223846793005ULL + 1442695040888963407ULL;
    c = c * 6364136223846793005ULL + 1442695040888963407ULL;
    d = d * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  std::uint32_t at = at_;
  for (int i = 0; i < kProbeLoads; ++i) at = ring_[at];
  x_ = a ^ b ^ c ^ d;
  at_ = at;
  last_ = steady_seconds();
  spent_ += last_ - t0;
  ++units_;
}

double SpeedProbe::unit_seconds() const {
  return units_ > 0 ? spent_ / static_cast<double>(units_) : 0.0;
}

double SpeedProbe::factor() const {
  return units_ > 0 ? kProbeReferenceS / unit_seconds() : 1.0;
}

HostTrace::HostTrace(std::string run_id)
    : run_id_(std::move(run_id)), origin_ns_(steady_ns()) {
  open_.reserve(64);
  totals_.reserve(64);
}

void HostTrace::begin_world(bool record, std::size_t spans) {
  record_ = record;
  for (auto& t : totals_) t.seconds = 0.0;
  if (record) spans_.reserve(spans_.size() + spans);
}

std::int64_t HostTrace::now_ns() const { return steady_ns() - origin_ns_; }

void HostTrace::open(const char* name) {
  open_.push_back({next_id_++, name, now_ns()});
}

void HostTrace::close() {
  const std::int64_t end = now_ns();
  const Open o = open_.back();
  open_.pop_back();
  const double s = static_cast<double>(end - o.start_ns) * 1e-9;
  auto it = std::find_if(totals_.begin(), totals_.end(), [&](const Total& t) {
    return std::strcmp(t.name, o.name) == 0;
  });
  if (it == totals_.end()) {
    totals_.push_back({o.name, s});
  } else {
    it->seconds += s;
  }
  if (record_) {
    spans_.push_back({o.id, open_.empty() ? 0u : open_.back().id, o.name,
                      o.start_ns, end});
  }
}

double HostTrace::seconds(const char* name) const {
  for (const auto& t : totals_) {
    if (std::strcmp(t.name, name) == 0) return t.seconds;
  }
  return 0.0;
}

std::string HostTrace::chrome_json(const std::string& other) const {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"id\":%u,\"parent\":%u,\"run\":\"%s\"}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.id,
                  s.parent, run_id_.c_str());
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"" +
         run_id_ + "\"" + other + "}}\n";
  return out;
}

std::string HostTrace::self_time_table() const {
  std::vector<std::int64_t> covered(next_id_, 0);
  for (const Span& s : spans_) covered[s.parent] += s.end_ns - s.start_ns;
  struct Row {
    std::uint64_t count = 0;
    std::int64_t total = 0;
    std::int64_t self = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans_) {
    Row& r = rows[s.name];
    ++r.count;
    r.total += s.end_ns - s.start_ns;
    r.self += s.end_ns - s.start_ns - covered[s.id];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::stable_sort(sorted.begin(), sorted.end(), [](auto& a, auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out = "  span                          count     total_s      self_s\n";
  char buf[160];
  for (const auto& [name, r] : sorted) {
    std::snprintf(buf, sizeof buf, "  %-28s %6llu %11.6f %11.6f\n",
                  name.c_str(), static_cast<unsigned long long>(r.count),
                  static_cast<double>(r.total) * 1e-9,
                  static_cast<double>(r.self) * 1e-9);
    out += buf;
  }
  return out;
}

}  // namespace perfbench

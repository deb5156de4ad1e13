// Host-side instruments of the benchmark.
//
// * Heap accounting: a global operator new hook (probe.cpp) counts every
//   allocation and its requested bytes; phases read it as deltas.
// * HostTrace: steady-clock scopes around the benchmark's own calls into
//   each simulator module.  Every scope adds its duration to a per-world
//   total under its name (the per-layer host-time metrics); in a traced
//   world it is also kept as a span — name, start, end, parent — and all
//   spans of one benchmark run share the run id.  Spans stay in memory
//   and are written out when the run ends.
// * SpeedProbe: a fixed unit of work timed between simulation steps, so
//   host times can be stated at a reference machine speed.
//
// These are host-clock instruments, separate from the simulator's
// sim-time obs::Tracer.  Nothing here allocates once constructed (the
// span buffer is reserved before a world's setup phase starts), so the
// instruments never show up in the allocation counts they take.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  AllocCount operator-(const AllocCount& o) const {
    return {calls - o.calls, bytes - o.bytes};
  }
};

/// Running totals of operator new calls and requested bytes.
AllocCount alloc_count();

/// Steady-clock seconds since an arbitrary origin.
double steady_seconds();
/// Process user+sys CPU seconds (getrusage).
double cpu_seconds();
/// Process peak resident set size in MB (ru_maxrss).
double peak_rss_mb();

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = a world's root
  const char* name = "";
  std::int64_t start_ns = 0;  // since the HostTrace was created
  std::int64_t end_ns = 0;
};

class HostTrace {
 public:
  explicit HostTrace(std::string run_id);
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  /// Start a world: zero the per-name totals; keep spans when `record`,
  /// with room for `spans` more without reallocating.
  void begin_world(bool record, std::size_t spans);

  /// `name` must outlive the trace (the call sites pass string literals).
  void open(const char* name);
  void close();
  /// Host seconds spent under `name` in the current world.
  double seconds(const char* name) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto, speedscope);
  /// `other` is spliced into "otherData" as extra key/value members.
  std::string chrome_json(const std::string& other) const;
  /// Per span name: count, total and self seconds, where self time is a
  /// span's duration minus the part its child spans cover.  Largest self
  /// time first.
  std::string self_time_table() const;

 private:
  struct Open {
    std::uint32_t id;
    const char* name;
    std::int64_t start_ns;
  };
  struct Total {
    const char* name;
    double seconds;
  };

  /// Nanoseconds since construction.
  std::int64_t now_ns() const;

  std::string run_id_;
  std::int64_t origin_ns_;
  bool record_ = false;
  std::uint32_t next_id_ = 1;
  std::vector<Open> open_;
  std::vector<Total> totals_;
  std::vector<Span> spans_;
};

/// Machine-speed probe.  The benchmark shares its host with other tenants,
/// and the host's speed drifts by tens of percent over minutes with their
/// load.  Between simulation steps, at most once per 2 ms of host time,
/// the probe runs a fixed unit of the benchmark's own work (integer
/// arithmetic and a chain of dependent loads through a 4 MiB ring, the mix
/// of the simulator's hot loops) and times it.  factor() is the reference
/// unit time over the unit time measured during the world; multiplying a
/// world's host times by it states them at the reference machine speed.
class SpeedProbe {
 public:
  SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  void begin_world();
  /// Run one probe unit if 2 ms of host time passed since the last one.
  void between_steps();
  /// Host seconds spent probing in this world (left out of run_s).
  double seconds() const { return spent_; }
  double unit_seconds() const;
  double factor() const;

 private:
  std::vector<std::uint32_t> ring_;
  std::uint32_t at_ = 0;
  std::uint64_t x_ = 1;
  double last_ = 0.0;
  double spent_ = 0.0;
  std::uint64_t units_ = 0;
};

/// RAII scope: HostTrace::open on construction, close on destruction.
class Scope {
 public:
  Scope(HostTrace& trace, const char* name) : trace_(trace) {
    trace_.open(name);
  }
  ~Scope() { trace_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  HostTrace& trace_;
};

}  // namespace perfbench

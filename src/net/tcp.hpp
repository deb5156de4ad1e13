// TCP behaviour model layered on the fluid network.
//
// The paper's transfer results hinge on three TCP effects, all reproduced
// here as per-stream rate caps:
//
//  * Window limit: a stream can never exceed buffer/RTT — the paper's
//    buffer-sizing formula ("Buffer size = Bandwidth * Latency"; they chose
//    1 MB for 10–20 ms RTTs and 200–500 Mb/s targets).
//  * Loss limit: on lossy paths steady-state TCP throughput follows the
//    Mathis relation MSS/(RTT*sqrt(2p/3)); this is why multiple parallel
//    streams raise aggregate bandwidth on the commodity-internet path of
//    Figure 8 long before the link saturates.
//  * Slow start: a fresh connection ramps its cap from ~10 MSS/RTT, doubling
//    each RTT — the cost that data-channel caching (added after SC'2000)
//    avoids, together with re-authentication.
//
// A TcpTransfer bundles N parallel streams draining one shared byte pool
// (GridFTP extended block mode).  A watchdog declares the transfer dead when
// its rate has sat at zero for `dead_interval` (read from the fluid network,
// which records when a solve zeroed it), which is how outages surface to
// the GridFTP reliability plugin.  Progress is pulled through delivered().
#pragma once

#include <functional>
#include <memory>

#include "common/result.hpp"
#include "common/units.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"

namespace esg::net {

struct TcpOptions {
  int streams = 1;
  Bytes buffer_size = 256 * common::kKiB;
  Bytes mss = 1460;
  bool slow_start = true;          // false when reusing a cached data channel
  SimDuration connect_delay = 0;   // control-channel setup paid up front
  SimDuration dead_interval = 30 * common::kSecond;
  bool include_disks = true;       // NWS probes bypass storage
  /// Trace track this transfer's "net.tcp" span is recorded on — callers
  /// (GridFTP ops, the request manager) pass their own track so the span
  /// nests under theirs in the exported Chrome trace.
  obs::TrackId obs_track = 0;
};

struct TcpCallbacks {
  /// Terminal outcome: ok, timed_out (stall watchdog), or unavailable
  /// (path down at connect time).  Fires exactly once.
  std::function<void(common::Status)> on_complete;
};

class TcpTransfer {
 public:
  /// Starts immediately (after `connect_delay`).  `size` < 0 runs until
  /// cancelled.
  TcpTransfer(Network& network, const Host& src, const Host& dst, Bytes size,
              TcpOptions options, TcpCallbacks callbacks);
  ~TcpTransfer();

  TcpTransfer(const TcpTransfer&) = delete;
  TcpTransfer& operator=(const TcpTransfer&) = delete;

  /// Stop without firing on_complete.  Returns bytes delivered.
  Bytes cancel();

  bool active() const { return state_ == State::connecting || state_ == State::running; }
  bool finished() const { return state_ == State::done || state_ == State::failed; }

  Bytes delivered() const;
  Rate rate() const;

  SimDuration round_trip() const { return rtt_; }
  double path_loss() const { return loss_; }
  /// The per-stream steady-state cap this transfer is operating under.
  Rate stream_cap() const { return target_cap_; }

  /// Mathis steady-state throughput cap; unlimited when loss == 0.
  static Rate mathis_cap(Bytes mss, SimDuration rtt, double loss);
  /// Socket-buffer window cap: buffer/RTT.
  static Rate window_cap(Bytes buffer, SimDuration rtt);

 private:
  enum class State { connecting, running, done, failed, cancelled };

  void begin();
  void apply_cap(Rate cap);
  void finish(common::Status status);

  Network& net_;
  const Host& src_;
  const Host& dst_;
  Bytes size_;
  TcpOptions options_;
  TcpCallbacks callbacks_;

  State state_ = State::connecting;
  SimDuration rtt_ = 0;
  double loss_ = 0.0;
  Rate target_cap_ = kUnlimitedRate;
  Rate current_cap_ = 0.0;
  TransferId transfer_id_ = 0;
  Bytes delivered_snapshot_ = 0;  // final count once no longer active
  sim::EventHandle connect_event_;
  sim::EventHandle ramp_event_;
  sim::EventHandle watchdog_event_;
  obs::Span span_;
};

}  // namespace esg::net

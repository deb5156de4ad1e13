#include "net/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace esg::net {

using common::Errc;
using common::Error;
using common::Status;

Rate TcpTransfer::mathis_cap(Bytes mss, SimDuration rtt, double loss) {
  if (loss <= 0.0) return kUnlimitedRate;
  const double rtt_s = common::to_seconds(rtt);
  if (rtt_s <= 0.0) return kUnlimitedRate;
  return static_cast<double>(mss) / rtt_s * std::sqrt(1.5 / loss);
}

Rate TcpTransfer::window_cap(Bytes buffer, SimDuration rtt) {
  const double rtt_s = common::to_seconds(rtt);
  if (rtt_s <= 0.0) return kUnlimitedRate;
  return static_cast<double>(buffer) / rtt_s;
}

TcpTransfer::TcpTransfer(Network& network, const Host& src, const Host& dst,
                         Bytes size, TcpOptions options,
                         TcpCallbacks callbacks)
    : net_(network),
      src_(src),
      dst_(dst),
      size_(size),
      options_(options),
      callbacks_(std::move(callbacks)) {
  assert(options_.streams >= 1);
  const PathInfo info = net_.path(src_, dst_, options_.include_disks);
  rtt_ = 2 * info.latency;
  loss_ = info.loss;
  target_cap_ = std::min(window_cap(options_.buffer_size, rtt_),
                         mathis_cap(options_.mss, rtt_, loss_));
  span_ = net_.simulation().tracer().span("net.tcp", "net",
                                          options_.obs_track);
  span_.set_attr("src", src_.name());
  span_.set_attr("dst", dst_.name());
  span_.set_attr("streams", std::to_string(options_.streams));

  if (!info.up) {
    // Connection attempt into an outage: fail after the dead interval, the
    // same way a real connect() would time out.
    connect_event_ = net_.simulation().schedule_after(
        options_.dead_interval,
        [this] { finish(Error{Errc::unavailable, "path down at connect"}); });
    return;
  }
  connect_event_ = net_.simulation().schedule_after(
      options_.connect_delay, [this] { begin(); });
}

TcpTransfer::~TcpTransfer() { cancel(); }

void TcpTransfer::begin() {
  state_ = State::running;
  const PathInfo info = net_.path(src_, dst_, options_.include_disks);

  // Initial cap: slow start begins around 10 MSS per RTT; a warm (cached)
  // channel starts at the full window immediately.
  const Rate initial =
      options_.slow_start
          ? std::min(target_cap_,
                     window_cap(10 * options_.mss, std::max<SimDuration>(
                                                       rtt_, common::kMillisecond)))
          : target_cap_;
  current_cap_ = initial;

  std::vector<FlowSpec> flows(static_cast<std::size_t>(options_.streams),
                              FlowSpec{info.resources, initial});
  TransferCallbacks cbs;
  cbs.on_complete = [this] {
    delivered_snapshot_ = size_;
    transfer_id_ = 0;
    finish(Status{});
  };
  transfer_id_ = net_.fluid().start_transfer(std::move(flows), size_,
                                             std::move(cbs));

  // Slow-start ramp: double every RTT until the steady-state cap.
  if (options_.slow_start && current_cap_ < target_cap_) {
    const SimDuration step = std::max<SimDuration>(rtt_, common::kMillisecond);
    ramp_event_ = net_.simulation().schedule_every(step, [this] {
      if (state_ != State::running) return false;
      apply_cap(std::min(target_cap_, current_cap_ * 2.0));
      return current_cap_ < target_cap_;
    });
  }

  // Stall watchdog.
  if (options_.dead_interval > 0) {
    const SimDuration check = std::max<SimDuration>(
        options_.dead_interval / 4, common::kMillisecond);
    watchdog_event_ = net_.simulation().schedule_every(check, [this] {
      if (state_ != State::running) return false;
      const SimTime now = net_.simulation().now();
      if (now - net_.fluid().stalled_since(transfer_id_) >=
          options_.dead_interval) {
        finish(Error{Errc::timed_out, "no progress on data channel"});
        return false;
      }
      return true;
    });
  }
}

void TcpTransfer::apply_cap(Rate cap) {
  current_cap_ = cap;
  if (transfer_id_ == 0) return;
  // One reallocation for the whole stream group, not one per stream.
  net_.fluid().set_transfer_cap(transfer_id_, cap);
}

Bytes TcpTransfer::delivered() const {
  if (transfer_id_ != 0 && net_.fluid().transfer_active(transfer_id_)) {
    return net_.fluid().transferred(transfer_id_);
  }
  return delivered_snapshot_;
}

Rate TcpTransfer::rate() const {
  if (transfer_id_ != 0) return net_.fluid().current_rate(transfer_id_);
  return 0.0;
}

Bytes TcpTransfer::cancel() {
  connect_event_.cancel();
  ramp_event_.cancel();
  watchdog_event_.cancel();
  if (transfer_id_ != 0) {
    delivered_snapshot_ = net_.fluid().cancel_transfer(transfer_id_);
    transfer_id_ = 0;
  }
  if (state_ == State::connecting || state_ == State::running) {
    state_ = State::cancelled;
    span_.set_attr("status", "cancelled");
  }
  span_.end();
  // Terminal: release the callbacks so anything they capture (often the
  // owning transfer op, via shared_ptr) is not pinned by this object.
  callbacks_.on_complete = nullptr;
  return delivered_snapshot_;
}

void TcpTransfer::finish(Status status) {
  if (state_ == State::done || state_ == State::failed ||
      state_ == State::cancelled) {
    return;
  }
  connect_event_.cancel();
  ramp_event_.cancel();
  watchdog_event_.cancel();
  if (transfer_id_ != 0) {
    delivered_snapshot_ = net_.fluid().cancel_transfer(transfer_id_);
    transfer_id_ = 0;
  }
  state_ = status.ok() ? State::done : State::failed;
  span_.set_attr("status", status.ok() ? "ok"
                                       : status.error().to_string());
  span_.end();
  if (callbacks_.on_complete) {
    // The callback may destroy this object; move it out first.
    auto cb = std::move(callbacks_.on_complete);
    callbacks_.on_complete = nullptr;
    cb(std::move(status));
  }
}

}  // namespace esg::net

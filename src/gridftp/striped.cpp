#include "gridftp/striped.hpp"

#include <algorithm>

namespace esg::gridftp {

StripedTransfer::StripedTransfer(GridFtpClient& client,
                                 std::vector<StripeEndpoint> stripes,
                                 TransferOptions options,
                                 std::function<void(StripedResult)> done)
    : client_(client), stripes_(std::move(stripes)), done_(std::move(done)) {
  result_.stripes.resize(stripes_.size());
  outstanding_ = stripes_.size();
  handles_.reserve(stripes_.size());
  client_.simulation().flight_recorder().record(
      "gridftp", "striped.begin",
      stripes_.empty() ? std::string() : stripes_.front().dest_path,
      {{"stripes", std::to_string(stripes_.size())}});
  for (std::size_t i = 0; i < stripes_.size(); ++i) {
    const auto& s = stripes_[i];
    auto handle = client_.third_party_copy(
        s.source, FtpUrl{s.dest_host, s.dest_path}, options,
        [this, i](TransferResult r) { stripe_done(i, std::move(r)); });
    handles_.push_back(std::move(handle));
  }
}

void StripedTransfer::abort() {
  if (finished_) return;
  finished_ = true;
  for (auto& h : handles_) h->abort();
}

Bytes StripedTransfer::delivered() const {
  Bytes sum = result_.total_bytes;
  for (std::size_t i = 0; i < handles_.size(); ++i) {
    if (handles_[i] && handles_[i]->active()) sum += handles_[i]->delivered();
  }
  return sum;
}

void StripedTransfer::stripe_done(std::size_t index, TransferResult result) {
  if (finished_) return;
  client_.simulation()
      .metrics()
      .counter("gridftp_stripe_bytes_total",
               {{"stripe", std::to_string(index)}})
      .add(static_cast<std::uint64_t>(
          std::max<Bytes>(0, result.bytes_transferred)));
  result_.total_bytes += result.bytes_transferred;
  result_.started = result_.started == 0
                        ? result.started
                        : std::min(result_.started, result.started);
  result_.finished = std::max(result_.finished, result.finished);
  const bool failed = !result.status.ok();
  if (failed && result_.status.ok()) {
    result_.status = result.status;
  }
  client_.simulation().flight_recorder().record(
      "gridftp", failed ? "stripe.failed" : "stripe.done",
      stripes_[index].dest_path,
      {{"stripe", std::to_string(index)},
       {"bytes", std::to_string(result.bytes_transferred)}});
  result_.stripes[index] = std::move(result);
  --outstanding_;
  if (failed) {
    // First failure wins: abort the remaining stripes and report.
    for (auto& h : handles_) {
      if (h && h->active()) h->abort();
    }
    finished_ = true;
    if (done_) done_(std::move(result_));
    return;
  }
  if (outstanding_ == 0) {
    finished_ = true;
    if (done_) done_(std::move(result_));
  }
}

}  // namespace esg::gridftp

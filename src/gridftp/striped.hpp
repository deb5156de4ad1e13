// Striped data transfer (paper §6.1, exercised at SC'2000 for Table 1).
//
// A file partitioned across several source hosts moves to several
// destination hosts, one stripe per (source_i -> destination_i) pair, with
// up to `parallelism` TCP streams per pair.  Striping multiplies the
// per-host NIC/CPU ceilings; combined with parallelism the SC'2000 run had
// 8 x 4 = 32 simultaneous streams.
#pragma once

#include <memory>
#include <vector>

#include "gridftp/client.hpp"

namespace esg::gridftp {

struct StripeEndpoint {
  FtpUrl source;            // stripe partition on a source host
  std::string dest_host;    // receiving host name
  std::string dest_path;    // path at the receiver
};

struct StripedResult {
  common::Status status = common::ok_status();
  Bytes total_bytes = 0;
  SimTime started = 0;
  SimTime finished = 0;
  std::vector<TransferResult> stripes;

  Rate aggregate_rate() const {
    const double secs = common::to_seconds(finished - started);
    return secs > 0 ? static_cast<double>(total_bytes) / secs : 0.0;
  }
};

/// Coordinates one striped transfer: each stripe is a third-party copy
/// driven by `client` (the controlling party, as in the paper's third-party
/// transfer feature).  Completion fires when every stripe finishes; the
/// first failure aborts the rest.
class StripedTransfer {
 public:
  StripedTransfer(GridFtpClient& client, std::vector<StripeEndpoint> stripes,
                  TransferOptions options,
                  std::function<void(StripedResult)> done);

  void abort();
  bool active() const { return !finished_; }
  Bytes delivered() const;

 private:
  void stripe_done(std::size_t index, TransferResult result);

  GridFtpClient& client_;
  std::vector<StripeEndpoint> stripes_;
  std::vector<std::shared_ptr<TransferHandle>> handles_;
  std::function<void(StripedResult)> done_;
  StripedResult result_;
  std::size_t outstanding_ = 0;
  bool finished_ = false;
};

}  // namespace esg::gridftp

// GridFTP reliability plugin.
//
// Paper §7: "A reliability plug-in was written that monitored performance
// and if data transfer rates dropped below a certain, user configurable,
// point, an alternate replica would be selected", and GridFTP's restart
// support meant "the interrupted transfers continued as soon as the network
// was restored" — that is Figure 8's story.
//
// ReliableGet wraps GridFtpClient::get with:
//   * restart markers: each retry resumes at the byte count already landed
//     (the failed attempt's offset plus the bytes it moved);
//   * a rate monitor: if the average rate over `eval_window` falls below
//     `min_rate`, the current attempt is abandoned and the next replica
//     (round-robin over the candidate list) is tried;
//   * bounded retries governed by a common::RetryPolicy (exponential
//     backoff with cap and seeded jitter, per-attempt timeout, deadline);
//   * circuit-breaker hooks: replica selection consults `replica_allowed`
//     and every attempt outcome is reported through `on_attempt_result`,
//     so a health registry (rm/health.hpp) can steer traffic away from
//     servers that keep failing;
//   * integrity recovery: a checksum mismatch (io_error) drops the restart
//     marker — corrupt bytes are not resumed over — and re-fetches whole
//     from the next replica.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "gridftp/client.hpp"

namespace esg::gridftp {

/// Retry knobs (max_attempts, retry_backoff, backoff_multiplier, jitter,
/// attempt_timeout, deadline) are inherited from common::RetryPolicy.
struct ReliabilityOptions : common::RetryPolicy {
  /// Switch replicas when the recent rate drops below this (0 = disabled).
  Rate min_rate = 0.0;
  SimDuration eval_window = 10 * common::kSecond;
  /// Circuit breaker: consulted (per attempt) before picking a replica;
  /// refused hosts are skipped unless every candidate is refused, in which
  /// case the round-robin choice proceeds as a last resort.  Unset = allow.
  std::function<bool(const std::string& host)> replica_allowed;
  /// Health feedback: called with each attempt's host and outcome (slow
  /// replicas abandoned by the rate monitor count as failures).
  std::function<void(const std::string& host, bool ok)> on_attempt_result;
};

struct ReliableResult {
  common::Status status = common::ok_status();
  Bytes total_bytes = 0;      // bytes landed across all attempts
  int attempts = 0;
  int replica_switches = 0;
  SimTime started = 0;
  SimTime finished = 0;
};

class ReliableGet : public std::enable_shared_from_this<ReliableGet> {
 public:
  /// Factory: the object keeps itself alive until completion.
  static std::shared_ptr<ReliableGet> start(
      GridFtpClient& client, std::vector<FtpUrl> replicas,
      std::string local_name, TransferOptions options,
      ReliabilityOptions reliability,
      std::function<void(ReliableResult)> done);

  void abort();
  bool active() const { return !finished_; }
  /// Bytes landed so far: the restart marker plus the live attempt's
  /// bytes, pulled from the network.
  Bytes bytes_done() const;
  /// URL currently being fetched from.
  const FtpUrl& current_replica() const {
    return replicas_[replica_index_ % replicas_.size()];
  }

 private:
  ReliableGet(GridFtpClient& client, std::vector<FtpUrl> replicas,
              std::string local_name, TransferOptions options,
              ReliabilityOptions reliability,
              std::function<void(ReliableResult)> done);

  void attempt();
  void attempt_finished(TransferResult r);
  void select_replica();
  void rotate_replica();
  void schedule_retry();
  void report_outcome(bool ok);
  /// Abort the live attempt and advance the marker past its bytes.
  void abandon_attempt();
  void arm_rate_monitor();
  void arm_attempt_timer();
  void finish(common::Status status);

  GridFtpClient& client_;
  std::vector<FtpUrl> replicas_;
  std::string local_name_;
  TransferOptions options_;
  ReliabilityOptions reliability_;
  std::function<void(ReliableResult)> done_;

  std::shared_ptr<TransferHandle> handle_;
  sim::EventHandle monitor_;
  sim::EventHandle attempt_timer_;
  ReliableResult result_;
  Bytes offset_ = 0;  // restart marker: bytes landed by finished attempts
  Bytes window_start_bytes_ = 0;
  std::size_t replica_index_ = 0;
  bool finished_ = false;
  std::shared_ptr<ReliableGet> self_;  // keep-alive until finish()
};

}  // namespace esg::gridftp

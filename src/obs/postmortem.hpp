// Causal postmortems for file transfers.
//
// Table 1's striped run and Figure 8's 14-hour fault-tolerant transfer are
// postmortems a human read off monitoring output.  This engine does that
// read mechanically: given the flight-recorder event stream (live, or
// re-hydrated from a RunManifest), it reconstructs one file's story —
//
//   * per-phase time attribution: the lookup / find_replicas /
//     rank_replicas / stage / transfer slices tile the file's whole
//     lifetime, so the slice durations sum exactly to the rm.file span;
//   * a correlated timeline: the file's own lifecycle events joined (by
//     tracer track and by time window) with fault injections, breaker
//     transitions and link-state changes that overlapped it;
//   * root-cause attribution: the first anomaly the file suffered
//     (timeout, slow-replica abandon, checksum mismatch, stage retry, ...)
//     is matched to its chaos fault by cause_of() (obs/cause.hpp) —
//     "stream stalled 12 s after brownout(lbnl-uplink)".
//
// The engine only reads events; it works identically on a live simulation
// and on a manifest loaded months later by `esg-report postmortem`.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/manifest.hpp"
#include "obs/recorder.hpp"

namespace esg::obs {

struct PhaseSlice {
  std::string phase;  // "rm.lookup", "hrm.stage", "rm.transfer", ...
  common::SimTime start = 0;
  common::SimTime end = 0;
  common::SimDuration duration() const { return end - start; }
};

struct Postmortem {
  std::string file;
  bool found = false;   // file.queued event located
  bool failed = false;
  bool degraded = false;  // retried, switched replica, or suffered anomalies
  std::string status;     // "ok" or the failure text
  common::SimTime started = 0;
  common::SimTime finished = 0;
  int attempts = 0;
  int replica_switches = 0;
  std::string chosen_host;

  /// Contiguous slices tiling [started, finished]; durations sum exactly
  /// to the file's whole-span duration.
  std::vector<PhaseSlice> phases;

  /// File events + overlapping fault/breaker/link events, time-ordered.
  std::vector<FlightEvent> timeline;

  bool has_root_cause = false;
  FlightEvent root_cause;     // the fault event held responsible
  FlightEvent first_anomaly;  // the symptom it explains
  /// first_anomaly.at - root_cause.at (how long until it bit).
  common::SimDuration anomaly_lag = 0;

  common::SimDuration total() const { return finished - started; }
  /// Multi-line human report.
  std::string render() const;
};

/// Build the postmortem for `file` from an event stream (manifest order).
Postmortem build_postmortem(const std::vector<FlightEvent>& events,
                            const std::string& file);
Postmortem build_postmortem(const FlightRecorder& recorder,
                            const std::string& file);
inline Postmortem build_postmortem(const RunManifest& manifest,
                                   const std::string& file) {
  return build_postmortem(manifest.events, file);
}

/// Every file with a file.queued event, in first-seen order.
std::vector<std::string> postmortem_files(
    const std::vector<FlightEvent>& events);
/// Files whose postmortem would be interesting: failed or degraded.
std::vector<std::string> degraded_files(
    const std::vector<FlightEvent>& events);

}  // namespace esg::obs

// Fault attribution: the one rule naming the injected chaos fault behind a
// symptom, for per-file postmortems and alert firings alike (DESIGN.md §9).
#pragma once

#include <vector>

#include "common/units.hpp"
#include "obs/recorder.hpp"

namespace esg::obs {

/// The fault in seq-ordered `events` explaining a symptom at `at`, or
/// nullptr.  A symptom with a `cause=<seq>` attribute names it exactly, at
/// any lag (an evicted seq yields none, never a guess).  Otherwise: the
/// latest durable fault active at `at`, else the latest that stopped acting
/// within 120 s before it; a corruption stops at the latest event naming
/// it, or at its injection if none did.  `symptom` is null for an alert.
const FlightEvent* cause_of(const std::vector<FlightEvent>& events,
                            common::SimTime at,
                            const FlightEvent* symptom = nullptr);

}  // namespace esg::obs

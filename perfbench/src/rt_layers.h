// Per-layer figures read from the in-process runtime's public counters,
// histograms, telemetry and arena gauges, taken before and after the
// untraced window.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "obs/counters.h"
#include "obs/histogram.h"
#include "rt/runtime.h"

namespace pb {

/// One observation point of a Runtime.
struct RtProbe {
  hppc::obs::CounterSnapshot c;
  hppc::obs::HistSnapshot h;
  std::uint64_t ns = 0;
  std::uint64_t cycles = 0;

  static RtProbe take(hppc::rt::Runtime& rt);
};

/// What the main thread records at the window boundaries of an in-process
/// run: process CPU time at every boundary, a probe at the start and at the
/// end of the untraced half, and the telemetry queue-delay estimate of each
/// untraced window.
struct RtWindows {
  std::vector<double> cpu_s;
  std::vector<double> est_queue_delay_ns;
  RtProbe start;
  RtProbe end;
};

/// Sleep through the windows of `w`, observing `rt` at each boundary.
RtWindows observe_windows(hppc::rt::Runtime& rt, const Windows& w);

/// The window's request totals that counter deltas are divided by.
struct RtWindowLoad {
  std::uint64_t requests = 0;  // completed client requests
  std::uint64_t puts = 0;      // of which writes (kv only)
};

void report_rt_layers(Report& r, hppc::rt::Runtime& rt, const RtWindows& obs,
                      const RtWindowLoad& load);

/// Owner busy-poll figures from the traced window's owner sinks.
void report_poll_layers(Report& r, const std::vector<const SpanSink*>& owners,
                        double traced_seconds);

}  // namespace pb

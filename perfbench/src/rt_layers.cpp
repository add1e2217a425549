#include "rt_layers.h"

#include "common/tsc.h"

namespace pb {

using hppc::obs::Counter;
using hppc::obs::Hist;

RtProbe RtProbe::take(hppc::rt::Runtime& rt) {
  RtProbe p;
  p.c = rt.snapshot();
  p.h = rt.hist_snapshot();
  p.ns = now_ns();
  p.cycles = hppc::host_cycles();
  return p;
}

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

RtWindows observe_windows(hppc::rt::Runtime& rt, const Windows& w) {
  RtWindows o;
  o.cpu_s.resize(static_cast<std::size_t>(w.n) + 1);
  for (int k = 0; k <= w.n; ++k) {
    sleep_until_ns(w.boundary(k));
    o.cpu_s[static_cast<std::size_t>(k)] = process_cpu_s();
    if (k == 0) {
      o.start = RtProbe::take(rt);
      rt.telemetry();  // primes the telemetry window
    } else if (k <= w.first_traced) {
      o.est_queue_delay_ns.push_back(rt.telemetry().est_queue_delay_ns);
    }
    if (k == w.first_traced) o.end = RtProbe::take(rt);
  }
  return o;
}

void report_rt_layers(Report& r, hppc::rt::Runtime& rt, const RtWindows& obs,
                      const RtWindowLoad& load) {
  const RtProbe& a = obs.start;
  const RtProbe& b = obs.end;
  const hppc::obs::CounterSnapshot d = b.c.delta(a.c);
  const hppc::obs::HistSnapshot h = b.h.delta(a.h);
  // The runtime's histograms count host_cycles() ticks; calibrate them
  // against the steady clock over the same window.
  const double us_per_cycle =
      ratio(static_cast<double>(b.ns - a.ns),
            static_cast<double>(b.cycles - a.cycles)) * 1e-3;
  const auto n = static_cast<double>(load.requests);
  auto per_op = [&](Counter c) {
    return ratio(static_cast<double>(d.get(c)), n);
  };

  r.metric("rt.ring_wait.p50_us", h.quantile(Hist::kRingWait, 0.50) * us_per_cycle, "us");
  r.metric("rt.ring_wait.p99_us", h.quantile(Hist::kRingWait, 0.99) * us_per_cycle, "us");
  r.metric("rt.est_queue_delay_us", median(obs.est_queue_delay_ns) * 1e-3, "us");
  r.metric("rt.xcall_posts_per_op", per_op(Counter::kXcallPosts), "count");
  r.metric("rt.cells_per_batch_post",
           ratio(static_cast<double>(d.get(Counter::kXcallCellsPerBatch)),
                 static_cast<double>(d.get(Counter::kXcallBatchPosts))),
           "count");
  r.metric("rt.ready_mask_skips_per_op", per_op(Counter::kReadyMaskSkips), "count");
  r.metric("rt.waiter_parks_per_op", per_op(Counter::kWaiterParks), "count");
  r.metric("rt.async_queue_delay.p50_us",
           h.quantile(Hist::kRttAsync, 0.50) * us_per_cycle, "us");
  r.metric("rt.ring_full_per_op", per_op(Counter::kXcallRingFull), "count");
  r.metric("rt.mailbox_allocs_per_op", per_op(Counter::kMailboxAllocs), "count");
  r.metric("repl.invalidations_per_put",
           ratio(static_cast<double>(d.get(Counter::kReplInvalidations)),
                 static_cast<double>(load.puts)),
           "count");
  r.metric("repl.seq_retries_per_read",
           ratio(static_cast<double>(d.get(Counter::kReplSeqRetries)),
                 static_cast<double>(d.get(Counter::kReplReads))),
           "count");
  const double direct = static_cast<double>(d.get(Counter::kXcallDirect));
  r.metric("rt.direct_share",
           ratio(direct, direct + static_cast<double>(d.get(Counter::kXcallPosts))),
           "ratio");
  r.metric("rt.locks_taken_per_op", per_op(Counter::kLocksTaken), "count");
  r.metric("rt.workers_created_per_op", per_op(Counter::kWorkersCreated), "count");
  const hppc::mem::ArenaStats arena = rt.arena_stats();
  r.metric("mem.arena_bytes_reserved", static_cast<double>(arena.bytes_reserved), "bytes");
  r.metric("mem.arena_hugepages", static_cast<double>(arena.hugepages), "count");
  r.note("ring_wait_samples", std::to_string(h.count(Hist::kRingWait)));
  r.note("async_queue_delay_samples", std::to_string(h.count(Hist::kRttAsync)));
}

void report_poll_layers(Report& r, const std::vector<const SpanSink*>& owners,
                        double traced_seconds) {
  double busy_ns = 0, busy = 0, actions = 0;
  for (const SpanSink* s : owners) {
    busy_ns += static_cast<double>(s->poll_busy_ns);
    busy += static_cast<double>(s->polls_busy);
    actions += static_cast<double>(s->poll_actions);
  }
  const double wall_ns = traced_seconds * 1e9 * static_cast<double>(owners.size());
  r.metric("rt.poll.busy_share", ratio(busy_ns, wall_ns), "ratio");
  r.metric("rt.poll.actions_per_busy_poll", ratio(actions, busy), "count");
}

}  // namespace pb

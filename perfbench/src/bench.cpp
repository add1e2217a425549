#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace pb {

void sleep_until_ns(std::uint64_t t) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min<std::uint64_t>(t - now, 50'000'000)));
  }
}

Zipf::Zipf(std::uint32_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  cdf_.back() = 1.0;
}

std::uint32_t Zipf::rank(Rng& rng) const {
  const double u = rng.uniform();
  return static_cast<std::uint32_t>(
      std::upper_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
}

std::vector<std::uint32_t> seeded_permutation(std::uint32_t n, Rng& rng) {
  std::vector<std::uint32_t> p(n);
  for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
  for (std::uint32_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ----- LatHist ---------------------------------------------------------------

double LatHist::lower(std::size_t i) {
  if (i < 2 * kSub) return static_cast<double>(i);
  const std::size_t shift = i / kSub - 1;
  return static_cast<double>((i % kSub + kSub) << shift);
}

double LatHist::width(std::size_t i) {
  if (i < 2 * kSub) return 1.0;
  return static_cast<double>(std::size_t{1} << (i / kSub - 1));
}

double LatHist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (b_[i] == 0) continue;
    const double next = seen + static_cast<double>(b_[i]);
    if (next >= target) {
      return lower(i) + (target - seen) / static_cast<double>(b_[i]) * width(i);
    }
    seen = next;
  }
  return lower(kBuckets - 1);
}

// ----- windows and process figures ---------------------------------------------

std::uint64_t warmup_ns(const RunArgs& a) {
  const double w = std::clamp(0.1 * a.seconds, 0.2, 1.0);
  return static_cast<std::uint64_t>(w * 1e9);
}

Windows plan_windows(const RunArgs& a, std::uint64_t start_ns) {
  Windows w;
  w.start_ns = start_ns;
  // One-second windows (at least 10) so window medians resist bursts of
  // interference from the host.
  w.n = static_cast<int>(std::clamp(std::round(a.seconds), 10.0, 60.0));
  w.win_ns = static_cast<std::uint64_t>(a.seconds * 1e9 / w.n);
  w.first_traced = a.trace ? w.n / 2 : w.n;
  return w;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

int workload_threads(const std::string& name) {
  if (name == "kv_zipf_ring" || name == "frame_direct") return 4;
  if (name == "shm_xproc") return 3;  // 2 client threads + 1 server thread
  return 0;
}

void pin_self(int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n <= 0) return;
  int want = k % n;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

// ----- spans -------------------------------------------------------------------

const char* layer_name(int l) {
  switch (l) {
    case kLayerClient: return "client";
    case kLayerKv: return "kv";
    case kLayerRt: return "rt";
    case kLayerShm: return "shm";
    case kLayerHandler: return "handler";
    default: return "unknown";
  }
}

void SpanSink::span(std::uint64_t t0, std::uint64_t t1, std::uint64_t trace,
                    std::uint32_t id, std::uint32_t parent,
                    hppc::obs::SpanKind kind, std::uint32_t rc) {
  using hppc::obs::TraceEvent;
  hppc::obs::TraceRecord b;
  b.ts = t0;
  b.trace_id = trace;
  b.span = id;
  b.parent = parent;
  b.arg = static_cast<std::uint32_t>(kind);
  b.slot = tid;
  b.event = static_cast<std::uint16_t>(TraceEvent::kSpanBegin);
  hppc::obs::TraceRecord e = b;
  e.ts = t1;
  e.arg = rc;
  e.event = static_cast<std::uint16_t>(TraceEvent::kSpanEnd);
  recs.push_back(b);
  recs.push_back(e);
}

SpanSink*& tls_sink() {
  thread_local SpanSink* sink = nullptr;
  return sink;
}

bool write_trace_json(const std::string& path,
                      const std::vector<const SpanSink*>& sinks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"rings\":{", f);
  bool first_ring = true;
  for (const SpanSink* s : sinks) {
    if (s == nullptr || s->label.empty()) continue;
    std::fprintf(f, "%s\"%s\":{\"total_recorded\":%zu,\"records\":[",
                 first_ring ? "" : ",", s->label.c_str(), s->recs.size());
    first_ring = false;
    bool first = true;
    for (const hppc::obs::TraceRecord& r : s->recs) {
      std::fprintf(
          f,
          "%s{\"ts\":%llu,\"slot\":%u,\"event\":\"%s\",\"arg\":%u,"
          "\"trace_id\":%llu,\"span\":%u,\"parent\":%u}",
          first ? "" : ",", static_cast<unsigned long long>(r.ts),
          static_cast<unsigned>(r.slot),
          hppc::obs::trace_event_name(
              static_cast<hppc::obs::TraceEvent>(r.event)),
          r.arg, static_cast<unsigned long long>(r.trace_id), r.span,
          r.parent);
      first = false;
    }
    std::fputs("]}", f);
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

// ----- report ------------------------------------------------------------------

PhaseSummary summarize(const std::vector<std::uint64_t>& done,
                       const std::vector<LatHist>& lat,
                       const std::vector<double>& cpu_s, const Windows& w,
                       int lo, int hi) {
  PhaseSummary p;
  std::vector<double> ops, p50, p99, cpu;
  const double win_s = static_cast<double>(w.win_ns) * 1e-9;
  for (int k = lo; k < hi; ++k) {
    const auto i = static_cast<std::size_t>(k);
    ops.push_back(static_cast<double>(done[i]) / win_s);
    p50.push_back(lat[i].quantile(0.50) * 1e-3);
    p99.push_back(lat[i].quantile(0.99) * 1e-3);
    if (done[i] > 0 && i + 1 < cpu_s.size()) {
      cpu.push_back((cpu_s[i + 1] - cpu_s[i]) * 1e6 /
                    static_cast<double>(done[i]));
    }
    p.requests += done[i];
    p.samples += lat[i].count();
    p.seconds += win_s;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    p.window_ops += (i ? "," : "") + std::to_string(static_cast<long long>(ops[i]));
    p.window_p99 += (i ? "," : "") + std::to_string(p99[i]);
  }
  p.ops_per_s = median(ops);
  p.p50_us = median(p50);
  p.p99_us = median(p99);
  p.cpu_us_per_op = median(cpu);
  return p;
}

std::pair<std::uint64_t, std::uint64_t> split_requests(
    const std::vector<std::uint64_t>& done, const Windows& w) {
  std::uint64_t untraced = 0, traced = 0;
  for (int k = 0; k < w.n; ++k) {
    (k < w.first_traced ? untraced : traced) += done[static_cast<std::size_t>(k)];
  }
  return {untraced, traced};
}

void report_phases(Report& r, const RunArgs& a, const Windows& w,
                   const std::vector<std::uint64_t>& done,
                   const std::vector<LatHist>& lat,
                   const std::vector<double>& cpu_s, double peak_rss,
                   double bulk_bytes_untraced) {
  const PhaseSummary u = summarize(done, lat, cpu_s, w, 0, w.first_traced);
  const double error_rate =
      r.attempted == 0 ? 1.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  const double bulk_mb_per_s =
      u.seconds > 0 ? bulk_bytes_untraced / u.seconds / 1e6 : 0.0;
  r.note("latency_samples", std::to_string(u.samples));
  r.note("requests_measured", std::to_string(u.requests));
  r.note("window_ops_per_s", "[" + u.window_ops + "]");
  r.note("window_p99_us", "[" + u.window_p99 + "]");
  if (!a.trace) {
    r.metric("ops_per_s", u.ops_per_s, "1/s");
    r.metric("latency_p50_us", u.p50_us, "us");
    r.metric("latency_p99_us", u.p99_us, "us");
    r.metric("error_rate", error_rate, "ratio");
    r.metric("cpu_us_per_op", u.cpu_us_per_op, "us");
    r.metric("bulk_mb_per_s", bulk_mb_per_s, "MB/s");
    r.metric("peak_rss_mb", peak_rss, "MiB");
    return;
  }
  const PhaseSummary t = summarize(done, lat, cpu_s, w, w.first_traced, w.n);
  r.metric("bulk_mb_per_s", bulk_mb_per_s, "MB/s");
  r.metric("trace.overhead_pct",
           u.ops_per_s > 0 ? (u.ops_per_s - t.ops_per_s) / u.ops_per_s * 100.0
                           : 0.0,
           "%");
  r.note("untraced_ops_per_s", std::to_string(u.ops_per_s));
  r.note("traced_ops_per_s", std::to_string(t.ops_per_s));
}

void report_setup(Report& r, const std::vector<double>& total,
                  const std::vector<double>& runtime,
                  const std::vector<double>& preload,
                  const std::vector<double>& attach) {
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + std::to_string(v[i]);
    return s + "]";
  };
  r.note("setup_s_all", list(total));
  r.note("setup.runtime_s_all", list(runtime));
  r.note("setup.preload_s_all", list(preload));
  r.note("setup.attach_s_all", list(attach));
  r.metric("setup_s", median(total), "s");
  r.metric("setup.runtime_s", median(runtime), "s");
  r.metric("setup.preload_s", median(preload), "s");
  r.metric("setup.attach_s", median(attach), "s");
}

void report_layers(Report& r, const std::vector<const SpanSink*>& sinks,
                   std::uint64_t traced_requests, int handler_parent) {
  std::array<double, kNumLayers> incl{};
  std::size_t recorded = 0;
  for (const SpanSink* s : sinks) {
    for (int l = 0; l < kNumLayers; ++l) {
      incl[static_cast<std::size_t>(l)] +=
          static_cast<double>(s->layer_ns[static_cast<std::size_t>(l)]);
    }
    recorded += s->recs.size();
  }
  // Self time = a layer's inclusive span time minus the part its children
  // cover: the client root holds the public calls, and the call layer the
  // handlers run under holds the handler spans.
  std::array<double, kNumLayers> self = incl;
  self[kLayerClient] -= incl[kLayerKv] + incl[kLayerRt] + incl[kLayerShm];
  self[static_cast<std::size_t>(handler_parent)] -= incl[kLayerHandler];
  const double n = traced_requests > 0 ? static_cast<double>(traced_requests)
                                       : 1.0;
  for (int l = 0; l < kNumLayers; ++l) {
    r.metric(std::string("layer.") + layer_name(l) + ".self_us_per_op",
             self[static_cast<std::size_t>(l)] * 1e-3 / n, "us");
  }
  r.note("span_records", std::to_string(recorded));
  r.note("traced_requests", std::to_string(traced_requests));
}

}  // namespace pb

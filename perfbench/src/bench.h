// Shared machinery of the host-runtime benchmark: seeded input generation,
// fixed-size latency histograms, the closed-loop time windows, in-memory
// span recording, and the report every workload fills in.
//
// Everything here sits outside the program under test: the benchmark only
// calls the runtime's public API, times those calls and its own handlers,
// and reads the runtime's public counters before and after a window.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace pb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(std::uint64_t t);

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// splitmix64: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(next())) * n) >>
        32);
  }

 private:
  std::uint64_t s_;
};

/// Independent stream `stream` of run seed `seed`.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng r(seed ^ (0xD1B54A32D192ED03ull * (stream + 1)));
  return r.next();
}

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class Zipf {
 public:
  Zipf(std::uint32_t n, double s);
  std::uint32_t rank(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Fisher-Yates permutation of [0, n).
std::vector<std::uint32_t> seeded_permutation(std::uint32_t n, Rng& rng);

/// FNV-1a over the raw bytes of a generated stream: the same seed must give
/// the same hash, which the report records.
struct StreamHash {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void add_vec(const std::vector<T>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
};

std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Latency histogram (log-linear, fixed size, no allocation while recording)
// ---------------------------------------------------------------------------

/// Values below 128 ns are exact; above, each power of two splits into 64
/// linear sub-buckets (<1.6% relative width). Quantiles interpolate inside
/// the owning bucket.
class LatHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 2 * kSub + 40 * kSub;

  void add(std::uint64_t v) {
    ++b_[index(v)];
    ++n_;
  }
  void merge(const LatHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  std::uint64_t count() const { return n_; }
  /// q in [0,1]; 0 for an empty histogram.
  double quantile(double q) const;

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - (kSubBits + 1);
    const std::size_t i = static_cast<std::size_t>(shift) * kSub +
                          static_cast<std::size_t>(v >> shift);
    return i < kBuckets ? i : kBuckets - 1;
  }
  static double lower(std::size_t i);
  static double width(std::size_t i);

  std::array<std::uint64_t, kBuckets> b_{};
  std::uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Closed-loop time windows
// ---------------------------------------------------------------------------

inline constexpr int kMaxWindows = 64;

/// The measured span is split into `n` equal windows. With tracing on, the
/// first half runs untraced and the second half traced.
struct Windows {
  std::uint64_t start_ns = 0;
  std::uint64_t win_ns = 1;
  int n = 1;
  int first_traced = 1;  // == n when nothing is traced

  /// -1 during warm-up, n at or after the end.
  int index(std::uint64_t t) const {
    if (t < start_ns) return -1;
    const std::uint64_t w = (t - start_ns) / win_ns;
    return w >= static_cast<std::uint64_t>(n) ? n : static_cast<int>(w);
  }
  bool traced(int w) const { return w >= first_traced; }
  std::uint64_t boundary(int k) const {
    return start_ns + static_cast<std::uint64_t>(k) * win_ns;
  }
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its span dump
};

/// Warm-up and window layout for a run of `seconds`.
Windows plan_windows(const RunArgs& a, std::uint64_t start_ns);
std::uint64_t warmup_ns(const RunArgs& a);

/// Per-client results, one block per client thread (single writer).
template <std::size_t kTypes>
struct ClientStats {
  std::array<std::uint64_t, kMaxWindows> done{};  // requests per window
  std::array<LatHist, kMaxWindows> lat{};         // request latency per window
  std::array<LatHist, kTypes> by_type{};          // untraced windows only
  std::uint64_t attempted = 0;                    // warm-up included
  std::uint64_t failed = 0;
  std::string first_error;

  void fail(std::string what) {
    if (failed++ == 0) first_error = std::move(what);
  }
};

/// Process CPU time (user + sys) in seconds.
double process_cpu_s();
/// Peak resident set of this process, MiB.
double peak_rss_mb();

double median(std::vector<double> v);

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

/// The layers a span can be charged to.
enum Layer : int {
  kLayerClient = 0,  // benchmark client: op decode + reply check
  kLayerKv,          // KvService stubs (includes the rt calls they make)
  kLayerRt,          // Runtime entry points called directly
  kLayerShm,         // shm::Peer calls
  kLayerHandler,     // the benchmark's own service handlers
  kNumLayers
};
const char* layer_name(int l);

/// Request payload flags the benchmark's own services read to learn
/// whether to time (and record) themselves.
inline constexpr std::uint32_t kReqTimed = 1u << 8;
inline constexpr std::uint32_t kReqRecorded = 1u << 9;

/// Span ids inside one request trace are fixed: the root, the public call,
/// then the handler executions under it.
inline constexpr std::uint32_t kSpanRoot = 1;
inline constexpr std::uint32_t kSpanCall = 2;
inline constexpr std::uint32_t kSpanHandler0 = 3;

/// Trace ids: one per client request, one per owner/server busy poll.
inline std::uint64_t request_trace_id(std::uint32_t client, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(client + 1) << 40) | seq;
}
inline std::uint64_t poll_trace_id(std::uint32_t owner, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(0x80 + owner) << 40) |
         (seq & 0xFFFFFFFFFFull);
}

/// One thread's span store: records kept in memory (bounded), per-layer
/// span time accumulated for every timed span whether recorded or not.
struct SpanSink {
  static constexpr std::size_t kDefaultCap = std::size_t{1} << 15;
  static constexpr std::size_t kSlack = 64;

  std::string label;
  std::uint16_t tid = 0;
  std::vector<hppc::obs::TraceRecord> recs;
  std::size_t cap = 0;
  std::array<std::uint64_t, kNumLayers> layer_ns{};
  std::array<std::uint64_t, kNumLayers> layer_spans{};
  // Busy-poll accounting for owner/server loops.
  std::uint64_t poll_busy_ns = 0;
  std::uint64_t polls_busy = 0;
  std::uint64_t poll_actions = 0;

  void enable(std::string lbl, std::uint16_t t, std::size_t c = kDefaultCap) {
    label = std::move(lbl);
    tid = t;
    cap = c;
    recs.reserve(c + kSlack);
  }
  bool room(std::size_t n) const { return recs.size() + n <= cap; }
  void charge(int layer, std::uint64_t ns) {
    layer_ns[static_cast<std::size_t>(layer)] += ns;
    ++layer_spans[static_cast<std::size_t>(layer)];
  }
  /// Append a closed span (begin + end records).
  void span(std::uint64_t t0, std::uint64_t t1, std::uint64_t trace,
            std::uint32_t id, std::uint32_t parent, hppc::obs::SpanKind kind,
            std::uint32_t rc = 0);
};

/// The calling thread's sink (nullptr when the thread records nothing).
SpanSink*& tls_sink();

/// Write sinks as one dump in the obs::trace_to_json format.
bool write_trace_json(const std::string& path,
                      const std::vector<const SpanSink*>& sinks);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // raw JSON values

  void metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& json) {
    info.push_back({key, json});
  }
  void note_str(const std::string& key, const std::string& s) {
    info.push_back({key, "\"" + s + "\""});
  }
  void add_errors(std::uint64_t attempted_n, std::uint64_t failed_n,
                  const std::string& err) {
    attempted += attempted_n;
    failed += failed_n;
    if (first_error.empty() && !err.empty()) first_error = err;
  }
};

/// End-to-end figures of one phase (a run of consecutive windows):
/// medians over its windows.
struct PhaseSummary {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
  std::uint64_t requests = 0;
  std::uint64_t samples = 0;
  double seconds = 0;
  std::string window_ops;  // ops_per_s of each window, comma-separated
  std::string window_p99;  // latency p99 of each window, comma-separated
};

/// `done[w]`, `lat[w]`: summed over clients; `cpu_s[k]`: CPU seconds of
/// every process of the workload at window boundary k.
PhaseSummary summarize(const std::vector<std::uint64_t>& done,
                       const std::vector<LatHist>& lat,
                       const std::vector<double>& cpu_s, const Windows& w,
                       int lo, int hi);

template <std::size_t kTypes>
void fold_clients(const std::vector<ClientStats<kTypes>*>& cs,
                  std::vector<std::uint64_t>& done, std::vector<LatHist>& lat,
                  std::array<LatHist, kTypes>& by_type, Report& r) {
  done.assign(kMaxWindows, 0);
  lat.assign(kMaxWindows, LatHist{});
  for (const auto* c : cs) {
    for (int w = 0; w < kMaxWindows; ++w) {
      done[static_cast<std::size_t>(w)] += c->done[static_cast<std::size_t>(w)];
      lat[static_cast<std::size_t>(w)].merge(c->lat[static_cast<std::size_t>(w)]);
    }
    for (std::size_t t = 0; t < kTypes; ++t) {
      by_type[static_cast<std::size_t>(t)].merge(
          c->by_type[static_cast<std::size_t>(t)]);
    }
    r.add_errors(c->attempted, c->failed, c->first_error);
  }
}

/// Requests completed in the untraced and in the traced windows.
std::pair<std::uint64_t, std::uint64_t> split_requests(
    const std::vector<std::uint64_t>& done, const Windows& w);

/// Record each request type's latency sample count in the report.
template <std::size_t kTypes>
void note_samples(Report& r, const std::array<const char*, kTypes>& names,
                  const std::array<LatHist, kTypes>& by_type) {
  for (std::size_t t = 0; t < kTypes; ++t) {
    r.note(std::string("samples.") + names[t], std::to_string(by_type[t].count()));
  }
}

/// The end-to-end metrics every workload reports (trace off), or the
/// tracing-overhead comparison (trace on).
void report_phases(Report& r, const RunArgs& a, const Windows& w,
                   const std::vector<std::uint64_t>& done,
                   const std::vector<LatHist>& lat,
                   const std::vector<double>& cpu_s, double peak_rss,
                   double bulk_bytes_untraced);

/// Setup-time figures: the median over repeated set-ups.
void report_setup(Report& r, const std::vector<double>& total,
                  const std::vector<double>& runtime,
                  const std::vector<double>& preload,
                  const std::vector<double>& attach);

/// Per-layer self time per completed request, from the traced phase.
/// `handler_parent` is the call layer the handler spans nest under.
void report_layers(Report& r, const std::vector<const SpanSink*>& sinks,
                   std::uint64_t traced_requests, int handler_parent);

/// Repeated set-ups per run (the median is reported as setup_s).
inline constexpr int kSetupRepeats = 15;

// Workload entry points.
int run_kv_zipf_ring(const RunArgs& a, Report& r);
int run_frame_direct(const RunArgs& a, Report& r);
int run_shm_xproc(const RunArgs& a, Report& r);

/// Worker threads of each workload (refused when above nproc).
int workload_threads(const std::string& name);

/// Pin the calling thread to the k-th CPU of the process's affinity mask
/// (no-op when not permitted). Every worker thread of a workload gets its
/// own CPU: unpinned, the throughput spread across runs of kv_zipf_ring and
/// shm_xproc was about 3x wider (5 runs each on a 4-vCPU VM).
void pin_self(int k);

}  // namespace pb

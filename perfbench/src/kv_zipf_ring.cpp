// kv_zipf_ring: two busy-polling owners serve the KvService shards, two
// closed-loop clients send a Zipf(0.99) request mix over 65,536 keys.
//
// Every get that misses the replicated hot set rides the xcall ring; the
// 16-key multi_get exercises batched submission; puts drive ReplHub
// fan-out beside the reads; async puts reach the ring-full overflow.
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "bench.h"
#include "rt/kv_service.h"
#include "rt/runtime.h"
#include "rt_layers.h"

namespace pb {
namespace {

using hppc::Status;
using hppc::Word;
using hppc::rt::KvService;
using hppc::rt::Runtime;
using hppc::rt::SlotId;

constexpr std::uint32_t kKeys = 65536;
constexpr double kZipfS = 0.99;
constexpr std::size_t kOpsPerClient = std::size_t{1} << 19;
constexpr std::size_t kMultiKeys = 16;
constexpr int kOwners = 2;
constexpr int kClients = 2;
constexpr hppc::ProgramId kProgram = 1;

enum KvOpType : std::uint8_t { kGet, kMultiGet, kPut, kAsyncPut, kNumKvOps };
constexpr std::array<const char*, kNumKvOps> kOpNames = {
    "get_remote", "multi_get", "put_remote", "call_remote_async"};

struct KvOp {
  std::uint8_t type = 0;
  std::uint8_t owner = 0;  // index into the owner table, = key mod 2
  std::uint16_t pad = 0;
  std::uint32_t key = 0;    // single-key ops
  std::uint32_t value = 0;  // puts
  std::uint32_t multi = 0;  // multi_get: first of 16 keys in multi_keys
};

// Every value carries a 16-bit tag derived from its key in the high half
// and a version in the low half; a reply whose tag does not match its key
// is wrong, while an older version of the right key is a tolerated stale
// replica read.
Word tag_of(Word key) {
  std::uint32_t x = key * 0x9E3779B1u;
  x ^= x >> 15;
  x *= 0x85EBCA77u;
  x ^= x >> 13;
  return x & 0xFFFFu;
}
Word make_value(Word key, Word version) {
  return (tag_of(key) << 16) | (version & 0xFFFFu);
}
bool value_ok(Word key, Word v) { return (v >> 16) == tag_of(key); }

struct KvInputs {
  std::vector<std::uint32_t> preload_order;
  std::array<std::vector<KvOp>, kClients> ops;
  std::array<std::vector<std::uint32_t>, kClients> multi_keys;
  std::array<std::uint64_t, kClients> hash{};
};

KvInputs make_inputs(std::uint64_t seed) {
  KvInputs in;
  Rng perm_rng(sub_seed(seed, 1));
  const std::vector<std::uint32_t> perm = seeded_permutation(kKeys, perm_rng);
  Rng pre_rng(sub_seed(seed, 2));
  in.preload_order = seeded_permutation(kKeys, pre_rng);
  const Zipf zipf(kKeys, kZipfS);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(sub_seed(seed, 10 + static_cast<std::uint64_t>(c)));
    auto& ops = in.ops[static_cast<std::size_t>(c)];
    auto& mk = in.multi_keys[static_cast<std::size_t>(c)];
    ops.resize(kOpsPerClient);
    // Worst-case reserve: no regrow, so peak RSS does not depend on the seed.
    mk.reserve(kOpsPerClient * kMultiKeys);
    for (KvOp& op : ops) {
      const std::uint32_t u = rng.below(100);
      op.type = u < 75 ? kGet : u < 85 ? kMultiGet : u < 95 ? kPut : kAsyncPut;
      if (op.type == kMultiGet) {
        op.owner = static_cast<std::uint8_t>(rng.below(kOwners));
        op.multi = static_cast<std::uint32_t>(mk.size());
        while (mk.size() < op.multi + kMultiKeys) {
          const std::uint32_t key = perm[zipf.rank(rng)];
          if (key % kOwners == op.owner) mk.push_back(key);
        }
      } else {
        op.key = perm[zipf.rank(rng)];
        op.owner = static_cast<std::uint8_t>(op.key % kOwners);
        op.value = make_value(op.key, static_cast<Word>(rng.next()));
      }
    }
    StreamHash sh;
    sh.add_vec(ops);
    sh.add_vec(mk);
    in.hash[static_cast<std::size_t>(c)] = sh.h;
  }
  return in;
}

/// One set-up of the workload: runtime, service, owners and clients. The
/// destructor tears everything down (threads joined before the service
/// and runtime they use are destroyed).
class KvWorld {
 public:
  KvWorld(const KvInputs& in, const RunArgs& a) : in_(in), a_(a) {
    for (auto& s : stats_) s = std::make_unique<ClientStats<kNumKvOps>>();
  }
  ~KvWorld() { teardown(); }
  KvWorld(const KvWorld&) = delete;
  KvWorld& operator=(const KvWorld&) = delete;

  struct SetupTimes {
    double runtime_s = 0;
    double preload_s = 0;
  };
  SetupTimes setup();
  int run(Report& r);
  /// Preload calls made and failed during set-up.
  std::pair<std::uint64_t, std::uint64_t> preload_result() const {
    return {preload_calls_, preload_failed_};
  }

 private:
  enum Phase : int { kIdle = 0, kPreload, kRun, kExit };

  void owner_main(int oi);
  void client_main(int ci);
  void preload(SlotId me);
  void client_loop(int ci, SlotId me);
  /// Stop and join every thread (idempotent); the runtime stays up.
  void stop_threads();
  void teardown();

  const KvInputs& in_;
  const RunArgs& a_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<KvService> kv_;
  std::array<SlotId, kOwners> owner_slot_{};
  std::atomic<int> registered_{0};
  std::atomic<int> phase_{kIdle};
  std::atomic<bool> preload_done_{false};
  std::atomic<bool> stop_owners_{false};
  std::atomic<int> clients_done_{0};
  Windows win_;
  std::array<std::unique_ptr<ClientStats<kNumKvOps>>, kClients> stats_;
  std::array<SpanSink, kOwners + kClients> sinks_;
  // Replica classification over the untraced windows.
  std::array<std::uint64_t, kClients> get_keys_{};
  std::array<std::uint64_t, kClients> replica_keys_{};
  std::array<std::uint64_t, kClients> puts_{};
  std::uint64_t preload_calls_ = 0;   // written by client 0 before
  std::uint64_t preload_failed_ = 0;  // preload_done_ is released
  std::vector<std::thread> threads_;  // last: joined before members die
};

KvWorld::SetupTimes KvWorld::setup() {
  const std::uint64_t t0 = now_ns();
  rt_ = std::make_unique<Runtime>(kOwners + kClients);
  hppc::rt::KvServiceConfig cfg;
  cfg.shard_capacity = kKeys;  // load factor <= 0.5 per owner shard
  cfg.replicated_hot_capacity = 8;
  kv_ = std::make_unique<KvService>(*rt_, cfg);
  for (int o = 0; o < kOwners; ++o) threads_.emplace_back([this, o] { owner_main(o); });
  for (int c = 0; c < kClients; ++c) threads_.emplace_back([this, c] { client_main(c); });
  while (registered_.load(std::memory_order_acquire) < kOwners + kClients) {
    std::this_thread::yield();
  }
  const std::uint64_t t1 = now_ns();
  phase_.store(kPreload, std::memory_order_release);
  while (!preload_done_.load(std::memory_order_acquire)) std::this_thread::yield();
  const std::uint64_t t2 = now_ns();
  return {static_cast<double>(t1 - t0) * 1e-9, static_cast<double>(t2 - t1) * 1e-9};
}

void KvWorld::stop_threads() {
  phase_.store(kExit, std::memory_order_release);
  // Clients first: they may still be waiting on owners.
  for (std::size_t i = kOwners; i < threads_.size(); ++i) threads_[i].join();
  stop_owners_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < threads_.size() && i < kOwners; ++i) threads_[i].join();
  threads_.clear();
}

void KvWorld::teardown() {
  stop_threads();
  kv_.reset();
  rt_.reset();
}

void KvWorld::owner_main(int oi) {
  pin_self(oi);
  const SlotId me = rt_->register_thread();
  owner_slot_[static_cast<std::size_t>(oi)] = me;
  SpanSink& sink = sinks_[static_cast<std::size_t>(oi)];
  if (a_.trace) sink.enable("owner" + std::to_string(oi), static_cast<std::uint16_t>(me));
  registered_.fetch_add(1, std::memory_order_acq_rel);
  std::uint64_t seq = 0;
  std::uint32_t tick = 0;
  bool timed = false;
  while (!stop_owners_.load(std::memory_order_acquire)) {
    if (a_.trace && (++tick & 255u) == 0 &&
        phase_.load(std::memory_order_acquire) == kRun) {
      const int w = win_.index(now_ns());
      timed = w >= 0 && w < win_.n && win_.traced(w);
    }
    if (!timed) {
      rt_->poll(me);
      continue;
    }
    const std::uint64_t t0 = now_ns();
    const std::size_t n = rt_->poll(me);
    const std::uint64_t t1 = now_ns();
    if (n == 0) continue;
    sink.poll_busy_ns += t1 - t0;
    ++sink.polls_busy;
    sink.poll_actions += n;
    if (sink.room(2)) {
      sink.span(t0, t1, poll_trace_id(static_cast<std::uint32_t>(oi), seq++),
                kSpanRoot, 0, hppc::obs::SpanKind::kRoot,
                static_cast<std::uint32_t>(n));
    }
  }
}

void KvWorld::client_main(int ci) {
  pin_self(kOwners + ci);
  const SlotId me = rt_->register_thread();
  SpanSink& sink = sinks_[static_cast<std::size_t>(kOwners + ci)];
  if (a_.trace) sink.enable("client" + std::to_string(ci), static_cast<std::uint16_t>(me));
  registered_.fetch_add(1, std::memory_order_acq_rel);
  // Until the run starts, keep draining this slot: ReplHub posts replica
  // refreshes to every slot while the shards are preloaded.
  for (;;) {
    const int ph = phase_.load(std::memory_order_acquire);
    if (ph == kPreload && ci == 0 && !preload_done_.load(std::memory_order_relaxed)) {
      preload(me);
      preload_done_.store(true, std::memory_order_release);
    }
    if (ph >= kRun) break;
    rt_->poll(me);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  if (phase_.load(std::memory_order_acquire) == kRun) {
    client_loop(ci, me);
    clients_done_.fetch_add(1, std::memory_order_acq_rel);
  }
  while (phase_.load(std::memory_order_acquire) != kExit) {
    rt_->poll(me);
    std::this_thread::yield();
  }
}

/// Synchronous batched puts in the seeded preload order, so the hot set
/// admits the same first eight keys on every run of a seed.
void KvWorld::preload(SlotId me) {
  std::array<std::vector<Word>, kOwners> keys, vals;
  auto flush = [&](int o) {
    auto& k = keys[static_cast<std::size_t>(o)];
    auto& v = vals[static_cast<std::size_t>(o)];
    if (k.empty()) return;
    const Status s = kv_->multi_put(me, owner_slot_[static_cast<std::size_t>(o)],
                                    kProgram, k, v);
    ++preload_calls_;
    if (s != Status::kOk) ++preload_failed_;
    k.clear();
    v.clear();
    rt_->poll(me);
  };
  for (const std::uint32_t key : in_.preload_order) {
    const int o = static_cast<int>(key % kOwners);
    keys[static_cast<std::size_t>(o)].push_back(key);
    vals[static_cast<std::size_t>(o)].push_back(make_value(key, 0));
    if (keys[static_cast<std::size_t>(o)].size() == kMultiKeys) flush(o);
  }
  for (int o = 0; o < kOwners; ++o) flush(o);
}

void KvWorld::client_loop(int ci, SlotId me) {
  const auto c = static_cast<std::size_t>(ci);
  const std::vector<KvOp>& ops = in_.ops[c];
  const std::vector<std::uint32_t>& mk = in_.multi_keys[c];
  ClientStats<kNumKvOps>& st = *stats_[c];
  SpanSink& sink = sinks_[static_cast<std::size_t>(kOwners) + c];
  const hppc::obs::SlotCounters& my_counters = rt_->counters(me);
  std::array<std::optional<Word>, kMultiKeys> out;
  std::size_t pos = 0;
  std::uint32_t seq = 0;
  for (;;) {
    const KvOp& op = ops[pos];
    pos = pos + 1 == ops.size() ? 0 : pos + 1;
    const std::uint64_t t_top = now_ns();
    const int w = win_.index(t_top);
    if (w >= win_.n) break;
    const bool timed = w >= 0 && win_.traced(w);
    const bool recorded = timed && sink.room(4);
    ++st.attempted;
    ++seq;
    const SlotId owner = owner_slot_[op.owner];
    const std::uint64_t posts0 = my_counters.get(hppc::obs::Counter::kXcallPosts);
    const std::uint64_t t0 = timed ? now_ns() : t_top;
    bool ok = true;
    std::string err;
    switch (op.type) {
      case kGet: {
        const std::optional<Word> v = kv_->get_remote(me, owner, kProgram, op.key);
        if (!v || !value_ok(op.key, *v)) {
          ok = false;
          err = v ? "get_remote: wrong tag" : "get_remote: no value";
        }
        break;
      }
      case kMultiGet: {
        const std::span<const std::uint32_t> keys(mk.data() + op.multi, kMultiKeys);
        const std::size_t found = kv_->multi_get(me, owner, kProgram, keys, out);
        if (found != kMultiKeys) {
          ok = false;
          err = "multi_get: missing keys";
        }
        for (std::size_t i = 0; ok && i < kMultiKeys; ++i) {
          if (!out[i] || !value_ok(keys[i], *out[i])) {
            ok = false;
            err = "multi_get: wrong tag";
          }
        }
        break;
      }
      case kPut:
        if (kv_->put_remote(me, owner, kProgram, op.key, op.value) != Status::kOk) {
          ok = false;
          err = "put_remote failed";
        }
        break;
      case kAsyncPut: {
        hppc::rt::RegSet regs;
        regs[0] = op.key;
        regs[1] = op.value;
        hppc::ppc::set_op(regs, hppc::rt::kKvPut);
        if (rt_->call_remote_async(me, owner, kProgram, kv_->ep(), regs) != Status::kOk) {
          ok = false;
          err = "call_remote_async failed";
        }
        break;
      }
      default:
        break;
    }
    const std::uint64_t t1 = now_ns();
    if (!ok) st.fail(err);
    if (w >= 0) {
      const auto wi = static_cast<std::size_t>(w);
      ++st.done[wi];
      st.lat[wi].add(t1 - t0);
      if (!timed) {
        st.by_type[op.type].add(t1 - t0);
        const std::uint64_t posted =
            my_counters.get(hppc::obs::Counter::kXcallPosts) - posts0;
        if (op.type == kGet) {
          ++get_keys_[c];
          if (posted == 0) ++replica_keys_[c];
        } else if (op.type == kMultiGet) {
          get_keys_[c] += kMultiKeys;
          replica_keys_[c] += kMultiKeys - std::min<std::uint64_t>(posted, kMultiKeys);
        } else {
          ++puts_[c];
        }
      } else {
        const std::uint64_t t2 = now_ns();
        const int layer = op.type == kAsyncPut ? kLayerRt : kLayerKv;
        sink.charge(kLayerClient, t2 - t_top);
        sink.charge(layer, t1 - t0);
        if (recorded) {
          const std::uint64_t id = request_trace_id(static_cast<std::uint32_t>(ci), seq);
          sink.span(t0, t1, id, kSpanCall, kSpanRoot,
                    op.type == kMultiGet ? hppc::obs::SpanKind::kBatch
                                         : hppc::obs::SpanKind::kRemoteCall);
          sink.span(t_top, t2, id, kSpanRoot, 0, hppc::obs::SpanKind::kRoot, ok ? 0 : 1);
        }
      }
    }
    rt_->poll(me);
  }
}

int KvWorld::run(Report& r) {
  win_ = plan_windows(a_, now_ns() + warmup_ns(a_));
  phase_.store(kRun, std::memory_order_release);
  const RtWindows obs = observe_windows(*rt_, win_);
  while (clients_done_.load(std::memory_order_acquire) < kClients) {
    std::this_thread::yield();
  }
  stop_threads();  // owners write their sinks until they stop

  std::vector<ClientStats<kNumKvOps>*> cs;
  for (auto& s : stats_) cs.push_back(s.get());
  std::vector<std::uint64_t> done;
  std::vector<LatHist> lat;
  std::array<LatHist, kNumKvOps> by_type;
  fold_clients(cs, done, lat, by_type, r);
  report_phases(r, a_, win_, done, lat, obs.cpu_s, peak_rss_mb(), 0.0);
  if (!a_.trace) return 0;

  const auto [untraced, traced] = split_requests(done, win_);
  std::uint64_t get_keys = 0, replica_keys = 0, puts = 0;
  for (int c = 0; c < kClients; ++c) {
    get_keys += get_keys_[static_cast<std::size_t>(c)];
    replica_keys += replica_keys_[static_cast<std::size_t>(c)];
    puts += puts_[static_cast<std::size_t>(c)];
  }
  r.metric("kv.get_remote.p50_us", by_type[kGet].quantile(0.50) * 1e-3, "us");
  r.metric("kv.get_remote.p99_us", by_type[kGet].quantile(0.99) * 1e-3, "us");
  r.metric("kv.put_remote.p50_us", by_type[kPut].quantile(0.50) * 1e-3, "us");
  r.metric("kv.multi_get.us_per_key",
           by_type[kMultiGet].quantile(0.50) * 1e-3 / kMultiKeys, "us");
  r.metric("rt.call_remote_async.p50_us", by_type[kAsyncPut].quantile(0.50) * 1e-3, "us");
  r.metric("repl.hit_ratio",
           get_keys > 0 ? static_cast<double>(replica_keys) / static_cast<double>(get_keys) : 0.0,
           "ratio");
  note_samples(r, kOpNames, by_type);
  report_rt_layers(r, *rt_, obs, {untraced, puts});
  std::vector<const SpanSink*> owners, all;
  for (int o = 0; o < kOwners; ++o) owners.push_back(&sinks_[static_cast<std::size_t>(o)]);
  for (const SpanSink& s : sinks_) all.push_back(&s);
  const double traced_s =
      static_cast<double>(win_.n - win_.first_traced) * static_cast<double>(win_.win_ns) * 1e-9;
  report_poll_layers(r, owners, traced_s);
  report_layers(r, all, traced, kLayerKv);
  const std::string path = a_.out_dir + "/trace_kv_zipf_ring.json";
  if (!write_trace_json(path, all)) return 1;
  r.note_str("trace_file", path);
  return 0;
}

}  // namespace

int run_kv_zipf_ring(const RunArgs& a, Report& r) {
  const KvInputs in = make_inputs(a.seed);
  StreamHash all;
  for (int c = 0; c < kClients; ++c) {
    r.note_str("stream_hash.client" + std::to_string(c), hex64(in.hash[static_cast<std::size_t>(c)]));
    all.add(&in.hash[static_cast<std::size_t>(c)], sizeof(std::uint64_t));
  }
  StreamHash pre;
  pre.add_vec(in.preload_order);
  r.note_str("stream_hash.preload", hex64(pre.h));
  std::vector<double> total, rt_s, pre_s, attach;
  std::unique_ptr<KvWorld> world;
  for (int k = 0; k < kSetupRepeats; ++k) {
    world.reset();
    world = std::make_unique<KvWorld>(in, a);
    const KvWorld::SetupTimes t = world->setup();
    const auto [calls, failed] = world->preload_result();
    r.add_errors(calls, failed, failed ? "preload multi_put failed" : "");
    total.push_back(t.runtime_s + t.preload_s);
    rt_s.push_back(t.runtime_s);
    pre_s.push_back(t.preload_s);
    attach.push_back(0.0);
  }
  report_setup(r, total, rt_s, pre_s, attach);
  return world->run(r);
}

}  // namespace pb

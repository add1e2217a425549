// frame_direct: the benchmark binds a frame-ABI service over a per-slot
// table of 4,096 words; two owners are parked in serve(), two closed-loop
// clients send remote frame calls, 16-frame batches and same-slot frame
// calls.
//
// Parked owners leave their gates idle, so remote calls mostly run under a
// gate steal on the calling thread; two clients contending for one gate
// still send a share of calls through the ring. The ring, repl and shm do
// almost no work here.
#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "bench.h"
#include "rt/frame_abi.h"
#include "rt/runtime.h"
#include "rt_layers.h"

namespace pb {
namespace {

using hppc::Status;
using hppc::Word;
using hppc::rt::CallFrame;
using hppc::rt::Runtime;
using hppc::rt::SlotId;

constexpr std::size_t kTableWords = 4096;
constexpr std::size_t kOpsPerClient = std::size_t{1} << 18;
constexpr std::size_t kBatch = 16;
constexpr int kOwners = 2;
constexpr int kClients = 2;
constexpr hppc::ProgramId kProgram = 1;
constexpr Word kOpGet = 1;
constexpr Word kOpAdd = 2;

enum FrameOpType : std::uint8_t { kRemote, kRemoteBatch, kLocal, kNumFrameOps };
constexpr std::array<const char*, kNumFrameOps> kOpNames = {
    "call_remote_frame", "call_remote_frame_batch", "call_frame"};

struct FrameReq {
  std::uint8_t type = 0;
  std::uint8_t owner = 0;  // index into the owner table (remote ops)
  std::uint16_t n = 0;     // frames
  std::uint32_t first = 0; // first frame in the client's item pool
};

struct FrameItem {
  std::uint16_t idx = 0;  // table word; idx % kClients == client index
  std::uint8_t add = 0;   // 1 = ADD, 0 = GET
  std::uint8_t pad = 0;
  std::uint32_t delta = 0;
};

struct FrameInputs {
  std::array<std::vector<FrameReq>, kClients> reqs;
  std::array<std::vector<FrameItem>, kClients> items;
  std::array<std::uint64_t, kClients> hash{};
};

FrameInputs make_inputs(std::uint64_t seed) {
  FrameInputs in;
  for (int c = 0; c < kClients; ++c) {
    Rng rng(sub_seed(seed, 20 + static_cast<std::uint64_t>(c)));
    auto& reqs = in.reqs[static_cast<std::size_t>(c)];
    auto& items = in.items[static_cast<std::size_t>(c)];
    reqs.resize(kOpsPerClient);
    // Reserve for the worst case so the pool never regrows: a regrow's
    // copy would make peak RSS depend on the seed. Untouched capacity
    // costs no resident memory.
    items.reserve(kOpsPerClient * kBatch);
    for (FrameReq& q : reqs) {
      const std::uint32_t u = rng.below(100);
      q.type = u < 60 ? kRemote : u < 80 ? kRemoteBatch : kLocal;
      q.owner = static_cast<std::uint8_t>(rng.below(kOwners));
      q.n = q.type == kRemoteBatch ? kBatch : 1;
      q.first = static_cast<std::uint32_t>(items.size());
      for (std::uint16_t i = 0; i < q.n; ++i) {
        FrameItem it;
        it.idx = static_cast<std::uint16_t>(
            rng.below(kTableWords / kClients) * kClients + static_cast<std::uint32_t>(c));
        it.add = static_cast<std::uint8_t>(rng.below(2));
        it.delta = static_cast<std::uint32_t>(rng.next());
        items.push_back(it);
      }
    }
    StreamHash sh;
    sh.add_vec(reqs);
    sh.add_vec(items);
    in.hash[static_cast<std::size_t>(c)] = sh.h;
  }
  return in;
}

/// Deterministic initial table contents.
Word initial_word(std::uint64_t seed, std::size_t slot, std::size_t idx) {
  Rng r(sub_seed(seed, 1000 + slot * kTableWords + idx));
  return static_cast<Word>(r.next());
}

/// The benchmark's frame service: a per-slot word table. GET returns
/// w[1] = table[w[0]]; ADD adds w[1] and returns the new value. Payload
/// words 5..7 carry the batch position, the client id with the trace
/// flags, and the request sequence number.
struct FrameTable {
  struct alignas(64) SlotTable {
    std::array<Word, kTableWords> w{};
  };
  std::vector<SlotTable> slots;

  static Status call(void* self, hppc::rt::FrameCtx& ctx, CallFrame& f) {
    auto* t = static_cast<FrameTable*>(self);
    const bool timed = (f.w[6] & kReqTimed) != 0;
    const std::uint64_t t0 = timed ? now_ns() : 0;
    Status st = Status::kOk;
    if (ctx.slot >= t->slots.size() || f.w[0] >= kTableWords) {
      st = Status::kInvalidArgument;
    } else {
      Word& cell = t->slots[ctx.slot].w[f.w[0]];
      switch (hppc::rt::frame_opcode_of(f.op)) {
        case kOpGet: f.w[1] = cell; break;
        case kOpAdd: cell += f.w[1]; f.w[1] = cell; break;
        default: st = Status::kInvalidArgument; break;
      }
    }
    if (timed) {
      const std::uint64_t t1 = now_ns();
      SpanSink* sink = tls_sink();
      if (sink != nullptr) {
        sink->charge(kLayerHandler, t1 - t0);
        if ((f.w[6] & kReqRecorded) != 0 && sink->room(2)) {
          sink->span(t0, t1, request_trace_id(f.w[6] & 0xFFu, f.w[7]),
                     kSpanHandler0 + f.w[5], kSpanCall,
                     hppc::obs::SpanKind::kServerExec,
                     static_cast<std::uint32_t>(st));
        }
      }
    }
    return st;
  }
};

class FrameWorld {
 public:
  FrameWorld(const FrameInputs& in, const RunArgs& a) : in_(in), a_(a) {
    for (auto& s : stats_) s = std::make_unique<ClientStats<kNumFrameOps>>();
  }
  ~FrameWorld() { teardown(); }
  FrameWorld(const FrameWorld&) = delete;
  FrameWorld& operator=(const FrameWorld&) = delete;

  struct SetupTimes {
    double runtime_s = 0;
    double preload_s = 0;
  };
  SetupTimes setup();
  int run(Report& r);

 private:
  enum Phase : int { kIdle = 0, kRun, kExit };

  void owner_main(int oi);
  void client_main(int ci);
  void client_loop(int ci, SlotId me);
  /// Stop and join every thread (idempotent); the runtime stays up.
  void stop_threads();
  void teardown();

  const FrameInputs& in_;
  const RunArgs& a_;
  std::unique_ptr<Runtime> rt_;
  FrameTable table_;
  hppc::rt::FrameServiceId svc_ = hppc::rt::kInvalidFrameService;
  std::array<SlotId, kOwners> owner_slot_{};
  std::atomic<int> registered_{0};
  std::atomic<int> phase_{kIdle};
  std::atomic<bool> stop_owners_{false};
  std::atomic<int> clients_done_{0};
  Windows win_;
  std::array<std::unique_ptr<ClientStats<kNumFrameOps>>, kClients> stats_;
  std::array<SpanSink, kOwners + kClients> sinks_;
  std::vector<std::thread> threads_;  // last: joined before members die
};

FrameWorld::SetupTimes FrameWorld::setup() {
  const std::uint64_t t0 = now_ns();
  rt_ = std::make_unique<Runtime>(kOwners + kClients);
  const std::uint64_t tp = now_ns();
  table_.slots.resize(rt_->slots());
  for (std::size_t s = 0; s < table_.slots.size(); ++s) {
    for (std::size_t i = 0; i < kTableWords; ++i) {
      table_.slots[s].w[i] = initial_word(a_.seed, s, i);
    }
  }
  const std::uint64_t tq = now_ns();
  svc_ = rt_->bind_frame(kProgram, &FrameTable::call, &table_);
  for (int o = 0; o < kOwners; ++o) threads_.emplace_back([this, o] { owner_main(o); });
  for (int c = 0; c < kClients; ++c) threads_.emplace_back([this, c] { client_main(c); });
  while (registered_.load(std::memory_order_acquire) < kOwners + kClients) {
    std::this_thread::yield();
  }
  const std::uint64_t t1 = now_ns();
  return {static_cast<double>((t1 - t0) - (tq - tp)) * 1e-9,
          static_cast<double>(tq - tp) * 1e-9};
}

void FrameWorld::stop_threads() {
  phase_.store(kExit, std::memory_order_release);
  for (std::size_t i = kOwners; i < threads_.size(); ++i) threads_[i].join();
  stop_owners_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < threads_.size() && i < kOwners; ++i) threads_[i].join();
  threads_.clear();
}

void FrameWorld::teardown() {
  stop_threads();
  rt_.reset();
}

void FrameWorld::owner_main(int oi) {
  pin_self(oi);
  const SlotId me = rt_->register_thread();
  owner_slot_[static_cast<std::size_t>(oi)] = me;
  SpanSink& sink = sinks_[static_cast<std::size_t>(oi)];
  if (a_.trace) sink.enable("owner" + std::to_string(oi), static_cast<std::uint16_t>(me));
  tls_sink() = &sink;
  registered_.fetch_add(1, std::memory_order_acq_rel);
  rt_->serve(me, stop_owners_);
}

void FrameWorld::client_main(int ci) {
  pin_self(kOwners + ci);
  const SlotId me = rt_->register_thread();
  SpanSink& sink = sinks_[static_cast<std::size_t>(kOwners + ci)];
  if (a_.trace) sink.enable("client" + std::to_string(ci), static_cast<std::uint16_t>(me));
  tls_sink() = &sink;
  registered_.fetch_add(1, std::memory_order_acq_rel);
  while (phase_.load(std::memory_order_acquire) == kIdle) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  if (phase_.load(std::memory_order_acquire) == kRun) {
    client_loop(ci, me);
    clients_done_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void FrameWorld::client_loop(int ci, SlotId me) {
  const auto c = static_cast<std::size_t>(ci);
  const std::vector<FrameReq>& reqs = in_.reqs[c];
  const std::vector<FrameItem>& items = in_.items[c];
  ClientStats<kNumFrameOps>& st = *stats_[c];
  SpanSink& sink = sinks_[static_cast<std::size_t>(kOwners) + c];
  // The client's expected view of the words it owns in every slot's table
  // (no other client touches them, so every reply is checked exactly).
  std::vector<std::array<Word, kTableWords>> shadow(table_.slots.size());
  for (std::size_t s = 0; s < shadow.size(); ++s) {
    for (std::size_t i = 0; i < kTableWords; ++i) shadow[s][i] = initial_word(a_.seed, s, i);
  }
  std::array<CallFrame, kBatch> frames;
  std::size_t pos = 0;
  std::uint32_t seq = 0;
  for (;;) {
    const FrameReq& q = reqs[pos];
    pos = pos + 1 == reqs.size() ? 0 : pos + 1;
    const std::uint64_t t_top = now_ns();
    const int w = win_.index(t_top);
    if (w >= win_.n) break;
    const bool timed = w >= 0 && win_.traced(w);
    const bool recorded = timed && sink.room(4 + 2 * kBatch + 2);
    ++st.attempted;
    ++seq;
    const Word flags = static_cast<Word>(ci) | (timed ? kReqTimed : 0u) |
                       (recorded ? kReqRecorded : 0u);
    const SlotId target = q.type == kLocal ? me : owner_slot_[q.owner];
    for (std::uint16_t i = 0; i < q.n; ++i) {
      const FrameItem& it = items[q.first + i];
      CallFrame& f = frames[i];
      f = hppc::rt::make_frame(svc_, it.add ? kOpAdd : kOpGet);
      f.w[0] = it.idx;
      f.w[1] = it.delta;
      f.w[5] = i;
      f.w[6] = flags;
      f.w[7] = seq;
    }
    const std::uint64_t t0 = timed ? now_ns() : t_top;
    Status s = Status::kOk;
    switch (q.type) {
      case kRemote: s = rt_->call_remote_frame(me, target, kProgram, frames[0]); break;
      case kRemoteBatch:
        s = rt_->call_remote_frame_batch(me, target, kProgram,
                                         std::span<CallFrame>(frames.data(), q.n));
        break;
      case kLocal: s = rt_->call_frame(me, kProgram, frames[0]); break;
      default: break;
    }
    const std::uint64_t t1 = now_ns();
    bool ok = s == Status::kOk;
    for (std::uint16_t i = 0; i < q.n; ++i) {
      const FrameItem& it = items[q.first + i];
      Word& expect = shadow[target][it.idx];
      if (it.add) expect += it.delta;
      if (hppc::rt::frame_rc_of(frames[i].op) != Status::kOk || frames[i].w[1] != expect) {
        ok = false;
      }
    }
    if (!ok) st.fail(std::string(kOpNames[q.type]) + ": wrong or failed reply");
    if (w >= 0) {
      const auto wi = static_cast<std::size_t>(w);
      ++st.done[wi];
      st.lat[wi].add(t1 - t0);
      if (!timed) {
        st.by_type[q.type].add(t1 - t0);
      } else {
        const std::uint64_t t2 = now_ns();
        sink.charge(kLayerClient, t2 - t_top);
        sink.charge(kLayerRt, t1 - t0);
        if (recorded) {
          const std::uint64_t id = request_trace_id(static_cast<std::uint32_t>(ci), seq);
          sink.span(t0, t1, id, kSpanCall, kSpanRoot,
                    q.type == kRemoteBatch ? hppc::obs::SpanKind::kBatch
                    : q.type == kLocal     ? hppc::obs::SpanKind::kLocalCall
                                           : hppc::obs::SpanKind::kRemoteCall);
          sink.span(t_top, t2, id, kSpanRoot, 0, hppc::obs::SpanKind::kRoot, ok ? 0 : 1);
        }
      }
    }
  }
}

int FrameWorld::run(Report& r) {
  win_ = plan_windows(a_, now_ns() + warmup_ns(a_));
  phase_.store(kRun, std::memory_order_release);
  const RtWindows obs = observe_windows(*rt_, win_);
  while (clients_done_.load(std::memory_order_acquire) < kClients) {
    std::this_thread::yield();
  }
  stop_threads();

  std::vector<ClientStats<kNumFrameOps>*> cs;
  for (auto& s : stats_) cs.push_back(s.get());
  std::vector<std::uint64_t> done;
  std::vector<LatHist> lat;
  std::array<LatHist, kNumFrameOps> by_type;
  fold_clients(cs, done, lat, by_type, r);
  report_phases(r, a_, win_, done, lat, obs.cpu_s, peak_rss_mb(), 0.0);
  if (!a_.trace) return 0;

  const auto [untraced, traced] = split_requests(done, win_);
  r.metric("rt.call_remote_frame.p50_us", by_type[kRemote].quantile(0.50) * 1e-3, "us");
  r.metric("rt.call_remote_frame.p99_us", by_type[kRemote].quantile(0.99) * 1e-3, "us");
  r.metric("rt.call_remote_frame_batch.us_per_call",
           by_type[kRemoteBatch].quantile(0.50) * 1e-3 / kBatch, "us");
  r.metric("rt.call_frame.p50_us", by_type[kLocal].quantile(0.50) * 1e-3, "us");
  note_samples(r, kOpNames, by_type);
  report_rt_layers(r, *rt_, obs, {untraced, 0});
  std::vector<const SpanSink*> all;
  double handler_ns = 0, handler_spans = 0;
  for (const SpanSink& s : sinks_) {
    all.push_back(&s);
    handler_ns += static_cast<double>(s.layer_ns[kLayerHandler]);
    handler_spans += static_cast<double>(s.layer_spans[kLayerHandler]);
  }
  r.metric("frame.handler_self_us", handler_spans > 0 ? handler_ns / handler_spans * 1e-3 : 0.0,
           "us");
  report_layers(r, all, traced, kLayerRt);
  const std::string path = a_.out_dir + "/trace_frame_direct.json";
  if (!write_trace_json(path, all)) return 1;
  r.note_str("trace_file", path);
  return 0;
}

}  // namespace

int run_frame_direct(const RunArgs& a, Report& r) {
  const FrameInputs in = make_inputs(a.seed);
  for (int c = 0; c < kClients; ++c) {
    r.note_str("stream_hash.client" + std::to_string(c), hex64(in.hash[static_cast<std::size_t>(c)]));
  }
  std::vector<double> total, rt_s, pre_s, attach;
  std::unique_ptr<FrameWorld> world;
  for (int k = 0; k < kSetupRepeats; ++k) {
    world.reset();
    world = std::make_unique<FrameWorld>(in, a);
    const FrameWorld::SetupTimes t = world->setup();
    total.push_back(t.runtime_s + t.preload_s);
    rt_s.push_back(t.runtime_s);
    pre_s.push_back(t.preload_s);
    attach.push_back(0.0);
  }
  report_setup(r, total, rt_s, pre_s, attach);
  return world->run(r);
}

}  // namespace pb

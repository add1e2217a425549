// shm_xproc: a forked server process runs shm::Server::serve with two
// benchmark-bound handlers; the client process runs two closed-loop
// threads, each with its own shm::Peer.
//
// 90% of requests are small calls (7 payload words in, a checked transform
// of them out); 10% are bulk calls: the peer writes a seeded 64 KiB pattern
// into a region it granted at set-up, and the server copies it out through
// the CopyServer and checksums every byte. This is the only workload that
// crosses the process boundary.
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "obs/counters.h"
#include "ppc/regs.h"
#include "rt/bulk_desc.h"
#include "shm/transport.h"

namespace pb {
namespace {

using hppc::Status;
using hppc::Word;
using hppc::obs::Counter;
using hppc::ppc::RegSet;

constexpr std::size_t kBulkBytes = std::size_t{64} << 10;
constexpr std::size_t kPatterns = 16;
constexpr std::size_t kOpsPerClient = std::size_t{1} << 18;
constexpr std::size_t kSmallWords = 5;  // regs[5] = seq, regs[6] = client|flags
constexpr int kClients = 2;
constexpr hppc::ProgramId kProgram = 1;
constexpr std::uint64_t kDeadAfterNs = 10'000'000'000ull;
constexpr std::uint16_t kServerTid = 100;

enum ShmOpType : std::uint8_t { kSmall, kBulk, kNumShmOps };
constexpr std::array<const char*, kNumShmOps> kOpNames = {"small_call", "bulk_call"};

struct ShmOp {
  std::uint8_t type = 0;
  std::uint8_t pattern = 0;
  std::uint16_t pad = 0;
  std::array<Word, kSmallWords> w{};
};

/// The small handler's reply: every payload word transformed by position.
Word transform(Word x, std::uint32_t i) {
  x ^= 0xA5A5A5A5u + i * 0x01000193u;
  x *= 0x9E3779B1u;
  return x ^ (x >> 16);
}

/// Four-lane multiply-xor checksum over every byte (len % 32 == 0).
std::uint64_t checksum(const std::byte* p, std::size_t len) {
  std::array<std::uint64_t, 4> h = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                                    0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  for (std::size_t i = 0; i + 32 <= len; i += 32) {
    for (std::size_t k = 0; k < 4; ++k) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + i + 8 * k, 8);
      h[k] = (h[k] ^ w) * 0x100000001B3ull;
    }
  }
  return h[0] ^ (h[1] << 1) ^ (h[2] << 2) ^ (h[3] << 3) ^ len;
}

struct ShmInputs {
  std::array<std::vector<ShmOp>, kClients> ops;
  std::array<std::vector<std::byte>, kClients> patterns;  // kPatterns x 64 KiB
  std::array<std::array<std::uint64_t, kPatterns>, kClients> sums{};
  std::array<std::uint64_t, kClients> hash{};
};

ShmInputs make_inputs(std::uint64_t seed) {
  ShmInputs in;
  for (int c = 0; c < kClients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    Rng rng(sub_seed(seed, 30 + ci));
    in.ops[ci].resize(kOpsPerClient);
    for (ShmOp& op : in.ops[ci]) {
      op.type = rng.below(100) < 90 ? kSmall : kBulk;
      op.pattern = static_cast<std::uint8_t>(rng.below(kPatterns));
      for (Word& w : op.w) w = static_cast<Word>(rng.next());
    }
    Rng prng(sub_seed(seed, 40 + ci));
    auto& pat = in.patterns[ci];
    pat.resize(kPatterns * kBulkBytes);
    for (std::size_t i = 0; i < pat.size(); i += 8) {
      const std::uint64_t v = prng.next();
      std::memcpy(pat.data() + i, &v, 8);
    }
    for (std::size_t k = 0; k < kPatterns; ++k) {
      in.sums[ci][k] = checksum(pat.data() + k * kBulkBytes, kBulkBytes);
    }
    StreamHash sh;
    sh.add_vec(in.ops[ci]);
    sh.add(in.sums[ci].data(), sizeof(in.sums[ci]));
    in.hash[ci] = sh.h;
  }
  return in;
}

// ----- pipes ---------------------------------------------------------------------

bool write_all(int fd, const void* p, std::size_t n) {
  const auto* b = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t k = ::write(fd, b, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    b += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* p, std::size_t n) {
  auto* b = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t k = ::read(fd, b, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    b += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

// Messages from the server process.
struct ReadyMsg {
  hppc::shm::ShmEp small = 0;
  hppc::shm::ShmEp bulk = 0;
};
struct SnapMsg {
  double cpu_s = 0;
  hppc::obs::CounterSnapshot counters;
};
struct FinalMsg {
  std::uint64_t handler_ns = 0;
  std::uint64_t handler_spans = 0;
  std::uint64_t poll_busy_ns = 0;
  std::uint64_t polls_busy = 0;
  std::uint64_t poll_actions = 0;
  std::uint64_t timed_wall_ns = 0;
  std::uint64_t records = 0;
};

// ----- server process ------------------------------------------------------------

/// The server process's handler state. Handlers run on the serving thread.
struct ServerState {
  std::vector<std::byte> stage = std::vector<std::byte>(kBulkBytes);
  SpanSink sink;

  void note(Word flags, Word seq, std::uint64_t t0) {
    const std::uint64_t t1 = now_ns();
    sink.charge(kLayerHandler, t1 - t0);
    if ((flags & kReqRecorded) != 0 && sink.room(2)) {
      sink.span(t0, t1, request_trace_id(flags & 0xFFu, seq), kSpanHandler0,
                kSpanCall, hppc::obs::SpanKind::kServerExec);
    }
  }

  static Status small(void* self, hppc::shm::ShmCtx&, RegSet& regs) {
    auto* s = static_cast<ServerState*>(self);
    const Word flags = regs[6];
    const Word seq = regs[5];
    const std::uint64_t t0 = (flags & kReqTimed) != 0 ? now_ns() : 0;
    for (std::uint32_t i = 0; i < hppc::ppc::kOpWord; ++i) regs[i] = transform(regs[i], i);
    if (t0 != 0) s->note(flags, seq, t0);
    return Status::kOk;
  }

  static Status bulk(void* self, hppc::shm::ShmCtx& ctx, RegSet& regs) {
    auto* s = static_cast<ServerState*>(self);
    const Word flags = regs[6];
    const Word seq = regs[5];
    const std::uint64_t t0 = (flags & kReqTimed) != 0 ? now_ns() : 0;
    const hppc::rt::BulkSeg seg = hppc::rt::bulk_seg_unpack(regs, 0);
    if (seg.len != kBulkBytes) return Status::kInvalidArgument;
    const Status st = ctx.copy->copy_from(seg.region, seg.addr, s->stage.data(), seg.len);
    if (st != Status::kOk) return st;
    hppc::ppc::set_u64(regs, 0, checksum(s->stage.data(), seg.len));
    if (t0 != 0) s->note(flags, seq, t0);
    return Status::kOk;
  }
};

/// The serve loop of a traced run: Server::serve's body (poll, reap every
/// 1024 polls, yield when idle) with each poll that drained work timed
/// while the parent has the timing window open.
void serve_timed(hppc::shm::Server& server, ServerState& st,
                 const std::atomic<bool>& timing) {
  std::uint32_t since_reap = 0;
  std::uint64_t seq = 0;
  while (!server.stop_requested()) {
    const bool timed = timing.load(std::memory_order_relaxed);
    const std::uint64_t t0 = timed ? now_ns() : 0;
    const std::size_t n = server.poll();
    if (timed && n > 0) {
      const std::uint64_t t1 = now_ns();
      st.sink.poll_busy_ns += t1 - t0;
      ++st.sink.polls_busy;
      st.sink.poll_actions += n;
      if (st.sink.room(2)) {
        st.sink.span(t0, t1, poll_trace_id(kServerTid, seq++), kSpanRoot, 0,
                     hppc::obs::SpanKind::kRoot, static_cast<std::uint32_t>(n));
      }
    }
    if (++since_reap >= 1024) {
      since_reap = 0;
      server.reap_dead_peers(kDeadAfterNs);
    }
    if (n == 0) ::sched_yield();
  }
}

[[noreturn]] void server_process(const std::string& name, int ctl_fd, int res_fd,
                                 bool trace, pid_t parent) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(3);
  int code = 0;
  try {
    hppc::shm::Server server(name);
    ServerState st;
    if (trace) st.sink.enable("server", kServerTid);
    ReadyMsg ready;
    ready.small = server.bind(&ServerState::small, &st);
    ready.bulk = server.bind(&ServerState::bulk, &st);
    if (!write_all(res_fd, &ready, sizeof ready)) ::_exit(4);
    std::atomic<bool> timing{false};
    std::uint64_t timing_start = 0;
    std::uint64_t timed_wall = 0;
    // Control thread: answers snapshot requests and opens/closes the
    // timing window; a 'Q' or the parent's end of the pipe closing stops
    // the server.
    std::thread ctl([&] {
      for (bool run = true; run;) {
        char cmd = 'Q';
        if (!read_all(ctl_fd, &cmd, 1)) cmd = 'Q';
        switch (cmd) {
          case 'S': {
            SnapMsg m;
            m.cpu_s = process_cpu_s();
            m.counters = server.counters().snapshot();
            if (!write_all(res_fd, &m, sizeof m)) run = false;
            break;
          }
          case 'T':
            timing_start = now_ns();
            timing.store(true, std::memory_order_relaxed);
            break;
          case 'E':
            timing.store(false, std::memory_order_relaxed);
            timed_wall += now_ns() - timing_start;
            break;
          default:
            run = false;
            break;
        }
      }
      server.request_stop();
    });
    pin_self(0);  // the clients take CPUs 1 and 2; after ctl, which stays unpinned
    if (trace) {
      serve_timed(server, st, timing);
    } else {
      server.serve(kDeadAfterNs);
    }
    ctl.join();
    FinalMsg fin;
    fin.handler_ns = st.sink.layer_ns[kLayerHandler];
    fin.handler_spans = st.sink.layer_spans[kLayerHandler];
    fin.poll_busy_ns = st.sink.poll_busy_ns;
    fin.polls_busy = st.sink.polls_busy;
    fin.poll_actions = st.sink.poll_actions;
    fin.timed_wall_ns = timed_wall;
    fin.records = st.sink.recs.size();
    if (!write_all(res_fd, &fin, sizeof fin) ||
        !write_all(res_fd, st.sink.recs.data(),
                   st.sink.recs.size() * sizeof(hppc::obs::TraceRecord))) {
      code = 5;
    }
  } catch (...) {
    code = 2;
  }
  ::_exit(code);
}

// ----- client process --------------------------------------------------------------

class ShmWorld {
 public:
  ShmWorld(const ShmInputs& in, const RunArgs& a, int instance)
      : in_(in), a_(a),
        name_("/hppc_perfbench_" + std::to_string(::getpid()) + "_" +
              std::to_string(instance)) {
    for (auto& s : stats_) s = std::make_unique<ClientStats<kNumShmOps>>();
  }
  ~ShmWorld() { finish(); }
  ShmWorld(const ShmWorld&) = delete;
  ShmWorld& operator=(const ShmWorld&) = delete;

  struct SetupTimes {
    double runtime_s = 0;
    double attach_s = 0;
  };
  SetupTimes setup();
  int run(Report& r);

 private:
  void client_loop(int ci);
  SnapMsg snapshot();
  void command(char c);
  /// Stop the server process, collect its final message, reap it.
  void finish();

  const ShmInputs& in_;
  const RunArgs& a_;
  std::string name_;
  pid_t pid_ = -1;
  int ctl_fd_ = -1;  // parent -> server
  int res_fd_ = -1;  // server -> parent
  ReadyMsg eps_;
  std::array<std::unique_ptr<hppc::shm::Peer>, kClients> peers_;
  std::array<std::uint32_t, kClients> region_{};
  std::atomic<int> clients_done_{0};
  Windows win_;
  std::array<std::unique_ptr<ClientStats<kNumShmOps>>, kClients> stats_;
  std::array<SpanSink, kClients> sinks_;
  std::array<std::uint64_t, kClients> bulk_bytes_{};  // untraced windows
  FinalMsg fin_;
  SpanSink server_sink_;
  double server_peak_rss_mb_ = 0;
  bool server_ok_ = false;  // final message read and clean exit
  bool finished_ = false;
};

ShmWorld::SetupTimes ShmWorld::setup() {
  const std::uint64_t t0 = now_ns();
  int ctl[2], res[2];
  if (::pipe2(ctl, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(res, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::close(ctl[1]);
    ::close(res[0]);
    server_process(name_, ctl[0], res[1], a_.trace, parent);
  }
  ::close(ctl[0]);
  ::close(res[1]);
  ctl_fd_ = ctl[1];
  res_fd_ = res[0];
  if (!read_all(res_fd_, &eps_, sizeof eps_)) throw std::runtime_error("server failed to start");
  const std::uint64_t t1 = now_ns();
  for (int c = 0; c < kClients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    peers_[ci] = std::make_unique<hppc::shm::Peer>(name_, kProgram);
    region_[ci] = peers_[ci]->grant_region(kBulkBytes);
    if (region_[ci] >= hppc::shm::kMaxShmRegions) throw std::runtime_error("grant_region failed");
    RegSet regs;
    if (peers_[ci]->call(eps_.small, regs) != Status::kOk) {
      throw std::runtime_error("warm call failed");
    }
  }
  const std::uint64_t t2 = now_ns();
  return {static_cast<double>(t1 - t0) * 1e-9, static_cast<double>(t2 - t1) * 1e-9};
}

void ShmWorld::command(char c) {
  if (!write_all(ctl_fd_, &c, 1)) throw std::runtime_error("server control pipe closed");
}

SnapMsg ShmWorld::snapshot() {
  command('S');
  SnapMsg m;
  if (!read_all(res_fd_, &m, sizeof m)) throw std::runtime_error("server snapshot failed");
  return m;
}

void ShmWorld::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& p : peers_) p.reset();  // revokes and unlinks the granted regions
  if (pid_ <= 0) return;
  const char q = 'Q';
  (void)write_all(ctl_fd_, &q, 1);
  // The server's span count sizes an allocation: accept at most what its
  // sink can hold.
  server_ok_ = read_all(res_fd_, &fin_, sizeof fin_) &&
               fin_.records <= SpanSink::kDefaultCap + SpanSink::kSlack;
  if (server_ok_) {
    server_sink_.enable("server", kServerTid, fin_.records);
    server_sink_.recs.resize(fin_.records);
    server_ok_ = read_all(res_fd_, server_sink_.recs.data(),
                          fin_.records * sizeof(hppc::obs::TraceRecord));
    server_sink_.layer_ns[kLayerHandler] = fin_.handler_ns;
    server_sink_.layer_spans[kLayerHandler] = fin_.handler_spans;
  }
  ::close(ctl_fd_);
  ::close(res_fd_);
  int status = 0;
  rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  server_peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
  server_ok_ = server_ok_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  pid_ = -1;
}

void ShmWorld::client_loop(int ci) {
  pin_self(1 + ci);
  const auto c = static_cast<std::size_t>(ci);
  const std::vector<ShmOp>& ops = in_.ops[c];
  const std::byte* patterns = in_.patterns[c].data();
  ClientStats<kNumShmOps>& st = *stats_[c];
  SpanSink& sink = sinks_[c];
  if (a_.trace) sink.enable("client" + std::to_string(ci), static_cast<std::uint16_t>(ci));
  hppc::shm::Peer& peer = *peers_[c];
  std::byte* region = peer.region_base(region_[c]);
  std::size_t pos = 0;
  std::uint32_t seq = 0;
  for (;;) {
    const ShmOp& op = ops[pos];
    pos = pos + 1 == ops.size() ? 0 : pos + 1;
    const std::uint64_t t_top = now_ns();
    const int w = win_.index(t_top);
    if (w >= win_.n) break;
    const bool timed = w >= 0 && win_.traced(w);
    const bool recorded = timed && sink.room(4);
    ++st.attempted;
    ++seq;
    const Word flags = static_cast<Word>(ci) | (timed ? kReqTimed : 0u) |
                       (recorded ? kReqRecorded : 0u);
    RegSet regs;
    if (op.type == kSmall) {
      for (std::size_t i = 0; i < kSmallWords; ++i) regs[i] = op.w[i];
    } else {
      std::memcpy(region, patterns + op.pattern * kBulkBytes, kBulkBytes);
      hppc::rt::bulk_seg_pack(regs, 0, hppc::rt::bulk_region(region_[c], 0, kBulkBytes));
      regs[4] = op.pattern;
    }
    regs[5] = seq;
    regs[6] = flags;
    const std::uint64_t t0 = now_ns();
    const Status s = peer.call(op.type == kSmall ? eps_.small : eps_.bulk, regs);
    const std::uint64_t t1 = now_ns();
    bool ok = s == Status::kOk;
    if (ok && op.type == kSmall) {
      for (std::uint32_t i = 0; i < kSmallWords; ++i) ok = ok && regs[i] == transform(op.w[i], i);
      ok = ok && regs[5] == transform(seq, 5) && regs[6] == transform(flags, 6);
    } else if (ok) {
      ok = hppc::ppc::get_u64(regs, 0) == in_.sums[c][op.pattern];
    }
    if (!ok) st.fail(std::string(kOpNames[op.type]) + ": wrong or failed reply");
    if (w >= 0) {
      const auto wi = static_cast<std::size_t>(w);
      ++st.done[wi];
      st.lat[wi].add(t1 - t0);
      if (!timed) {
        st.by_type[op.type].add(t1 - t0);
        if (op.type == kBulk && ok) bulk_bytes_[c] += kBulkBytes;
      } else {
        const std::uint64_t t2 = now_ns();
        sink.charge(kLayerClient, t2 - t_top);
        sink.charge(kLayerShm, t1 - t0);
        if (recorded) {
          const std::uint64_t id = request_trace_id(static_cast<std::uint32_t>(ci), seq);
          sink.span(t0, t1, id, kSpanCall, kSpanRoot, hppc::obs::SpanKind::kRemoteCall,
                    static_cast<std::uint32_t>(s));
          sink.span(t_top, t2, id, kSpanRoot, 0, hppc::obs::SpanKind::kRoot, ok ? 0 : 1);
        }
      }
    }
  }
  clients_done_.fetch_add(1, std::memory_order_acq_rel);
}

int ShmWorld::run(Report& r) {
  win_ = plan_windows(a_, now_ns() + warmup_ns(a_));
  const auto nb = static_cast<std::size_t>(win_.n) + 1;
  std::vector<double> cpu(nb), self_cpu(nb), server_cpu(nb);
  hppc::obs::CounterSnapshot srv0, srv1, peer0, peer1;
  auto peer_counters = [&] {
    hppc::obs::CounterSnapshot s;
    for (const auto& p : peers_) s.merge(p->counters().snapshot());
    return s;
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back([this, c] { client_loop(c); });
  std::string control_error;
  try {
    for (int k = 0; k <= win_.n; ++k) {
      sleep_until_ns(win_.boundary(k));
      const auto i = static_cast<std::size_t>(k);
      self_cpu[i] = process_cpu_s();
      const SnapMsg m = snapshot();
      server_cpu[i] = m.cpu_s;
      cpu[i] = self_cpu[i] + server_cpu[i];
      if (k == 0) {
        srv0 = m.counters;
        peer0 = peer_counters();
      }
      if (k == win_.first_traced) {
        srv1 = m.counters;
        peer1 = peer_counters();
        if (a_.trace) command('T');
      }
    }
    if (a_.trace) command('E');
  } catch (const std::exception& e) {
    control_error = e.what();
  }
  // Clients end on their own at the window end, even if the server died.
  for (auto& t : clients) t.join();
  if (!control_error.empty()) throw std::runtime_error(control_error);
  const double client_rss = peak_rss_mb();
  finish();

  std::vector<ClientStats<kNumShmOps>*> cs;
  for (auto& s : stats_) cs.push_back(s.get());
  std::vector<std::uint64_t> done;
  std::vector<LatHist> lat;
  std::array<LatHist, kNumShmOps> by_type;
  fold_clients(cs, done, lat, by_type, r);
  if (!server_ok_) r.add_errors(0, 1, "server process failed");
  double bulk_bytes = 0;
  for (std::uint64_t b : bulk_bytes_) bulk_bytes += static_cast<double>(b);
  r.note("server_peak_rss_mb", std::to_string(server_peak_rss_mb_));
  report_phases(r, a_, win_, done, lat, cpu, client_rss + server_peak_rss_mb_, bulk_bytes);
  if (!a_.trace) return 0;

  const auto [untraced, traced] = split_requests(done, win_);
  const double n = untraced > 0 ? static_cast<double>(untraced) : 1.0;
  const auto ft = static_cast<std::size_t>(win_.first_traced);
  const hppc::obs::CounterSnapshot dsrv = srv1.delta(srv0);
  const hppc::obs::CounterSnapshot dpeer = peer1.delta(peer0);
  auto both = [&](Counter c) {
    return static_cast<double>(dsrv.get(c) + dpeer.get(c));
  };
  r.metric("shm.call.p50_us", by_type[kSmall].quantile(0.50) * 1e-3, "us");
  r.metric("shm.call.p99_us", by_type[kSmall].quantile(0.99) * 1e-3, "us");
  r.metric("shm.bulk_call.p50_us", by_type[kBulk].quantile(0.50) * 1e-3, "us");
  double call_ns = 0;
  for (const SpanSink& s : sinks_) call_ns += static_cast<double>(s.layer_ns[kLayerShm]);
  r.metric("shm.handler_share",
           call_ns > 0 ? static_cast<double>(fin_.handler_ns) / call_ns : 0.0, "ratio");
  r.metric("shm.server_poll.busy_share",
           fin_.timed_wall_ns > 0 ? static_cast<double>(fin_.poll_busy_ns) /
                                        static_cast<double>(fin_.timed_wall_ns)
                                  : 0.0,
           "ratio");
  r.metric("shm.server_cpu_us_per_call", (server_cpu[ft] - server_cpu[0]) * 1e6 / n, "us");
  r.metric("shm.peer_cpu_us_per_call", (self_cpu[ft] - self_cpu[0]) * 1e6 / n, "us");
  r.metric("shm.bulk_copy_bytes_per_op",
           static_cast<double>(dsrv.get(Counter::kBulkCopyBytes)) / n, "bytes");
  r.metric("rt.locks_taken_per_op", both(Counter::kLocksTaken) / n, "count");
  r.metric("rt.workers_created_per_op", both(Counter::kWorkersCreated) / n, "count");
  note_samples(r, kOpNames, by_type);
  std::vector<const SpanSink*> all;
  for (const SpanSink& s : sinks_) all.push_back(&s);
  all.push_back(&server_sink_);
  report_layers(r, all, traced, kLayerShm);
  const std::string path = a_.out_dir + "/trace_shm_xproc.json";
  if (!write_trace_json(path, all)) return 1;
  r.note_str("trace_file", path);
  return 0;
}

}  // namespace

int run_shm_xproc(const RunArgs& a, Report& r) {
  const ShmInputs in = make_inputs(a.seed);
  for (int c = 0; c < kClients; ++c) {
    r.note_str("stream_hash.client" + std::to_string(c), hex64(in.hash[static_cast<std::size_t>(c)]));
  }
  std::vector<double> total, rt_s, pre_s, attach;
  std::unique_ptr<ShmWorld> world;
  for (int k = 0; k < kSetupRepeats; ++k) {
    world.reset();
    world = std::make_unique<ShmWorld>(in, a, k);
    const ShmWorld::SetupTimes t = world->setup();
    total.push_back(t.runtime_s + t.attach_s);
    rt_s.push_back(t.runtime_s);
    pre_s.push_back(0.0);
    attach.push_back(t.attach_s);
  }
  report_setup(r, total, rt_s, pre_s, attach);
  return world->run(r);
}

}  // namespace pb

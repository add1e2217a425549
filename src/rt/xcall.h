// Lock-free cross-slot call channels (xcall).
//
// The paper's fast path covers same-processor calls only; cross-processor
// traffic goes through "interrupt + remote queue" (§4.5.2). The host
// runtime used to model that with a Mailbox<std::function<void()>> — a
// Treiber stack that heap-allocates a node per message — so every cross-
// slot operation paid an allocation plus unbounded CAS contention. This
// header replaces that hot path with a per-slot bounded MPSC ring of
// fixed-size, cache-line-sized POD cells (caller program, entry point,
// inline RegSet payload, completion pointer), in the style of the
// shared-memory rings the memory-offloading IPC literature places between
// "same-core procedure call" and "kernel message queue".
//
// The pieces:
//
//   CellRing   — a Vyukov-style bounded multi-producer/single-consumer
//                ring, generic over its cell type. post(n, fill) is the one
//                claim-and-publish: one CAS claims a run of up to n
//                contiguous cells and one release store publishes it (the
//                batch doorbell); the consumer drains every ready cell in
//                a batch. No allocation, ever; a full ring is reported to
//                the caller. The ring holds no pointers, so the same
//                template runs between slots (XcallRing over XcallCell)
//                and between processes (shm::LaneHeader over ShmCell).
//
//   XcallCell  — the in-process cell; encode_call() and encode_frame()
//                are its two encodings (typed request / Figure-4 frame).
//
//   SlotGate   — the slot-ownership word that makes the *adaptive* part of
//                Runtime::call_remote possible. A slot whose owning thread
//                is parked (or was never registered) publishes kIdle; a
//                remote caller may then CAS the gate to kStolen and run
//                the call directly against the target slot's pools — the
//                host analogue of LRPC thread migration — instead of
//                paying two context switches for a ring round trip. A
//                caller that finds another thief holding the gate waits
//                that short hold out, for a bounded spin, before it falls
//                back to the ring (steal_or_wait). All slot state handed
//                across the gate is synchronized by the acquire/release
//                CAS pair, so single-consumer structures stay
//                single-consumer *at a time*.
//
//   DoneWord   — the completion state machine shared by the in-process
//                XcallWait and the cross-process shm::ShmWait: one atomic
//                word (0 while pending, 0x100|Status when done) with the
//                abandon / ack / park transitions, waited on by one
//                spin→help→yield→park ladder (wait_done below) in both
//                transports: an in-process waiter that exhausts its yield
//                budget parks on the word (C++20 atomic wait) and the
//                completing server's exchange kicks it with one notify;
//                deadline and cross-process waiters run it with parking off.
//
// A warm cross-slot call — direct or ring, single or batched — performs
// ZERO heap allocations; the `mailbox_allocs` counter exists to assert
// that.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/cacheline.h"
#include "common/cpu_relax.h"
#include "common/status.h"
#include "common/tsc.h"
#include "common/types.h"
#include "obs/trace.h"
#include "ppc/regs.h"
#include "rt/frame_abi.h"
#include "rt/request_ctx.h"

namespace hppc::rt {

// The spin hint moved to common/cpu_relax.h so spin loops below rt/ (the
// repl seqlock read retry) can share it; re-exported here for existing
// callers.
using ::hppc::cpu_relax;

/// The done word every completion block shares — the in-process XcallWait
/// below and the cross-process shm::ShmWait (shm/layout.h) — a tiny state
/// machine over one 32-bit atomic:
///   0                      — pending (caller spinning or yielding)
///   kParkedBit             — pending, caller parked on the word (only
///                            no-deadline in-process waiters ever park)
///   kAbandonedBit          — caller's deadline expired; it left (only
///                            pooled blocks ever reach this state)
///   kDoneBit | status      — server completed (reply valid)
///   kDoneBit|kAbandonedBit|status — server acknowledged an abandoned cell
///                            without executing it (block is recyclable)
/// The caller abandons with a CAS from 0, so it can never erase a
/// completion; the caller parks with a CAS from 0, so it can never park
/// over one; the server's final exchange always sets kDoneBit and observes
/// the parked bit it replaces, so a parked waiter is always kicked and an
/// abandoned block always becomes reclaimable once its cell drains.
struct DoneWord {
  static constexpr std::uint32_t kDoneBit = 0x100;
  static constexpr std::uint32_t kAbandonedBit = 0x200;
  static constexpr std::uint32_t kParkedBit = 0x400;

  std::atomic<std::uint32_t> done{0};

  /// Server side: publish the result. The exchange (not a plain store)
  /// closes the park race — a waiter parks by CAS 0→kParkedBit, so either
  /// its CAS loses to this exchange and it sees the result without
  /// sleeping, or this exchange observes the parked bit and kicks it.
  /// Returns true when a parked waiter was woken (for the kick counter).
  bool complete(Status rc) {
    const std::uint32_t prev =
        done.exchange(kDoneBit | static_cast<std::uint32_t>(rc),
                      std::memory_order_acq_rel);
    if ((prev & kParkedBit) != 0) {
      done.notify_one();
      return true;
    }
    return false;
  }

  /// Server side, before executing: an abandoned cell is acknowledged
  /// (kDoneBit set so the owner can recycle the block) and skipped.
  bool abandoned() const {
    return (done.load(std::memory_order_acquire) & kAbandonedBit) != 0;
  }
  void ack_abandoned() {
    done.store(kDoneBit | kAbandonedBit |
                   static_cast<std::uint32_t>(Status::kCallAborted),
               std::memory_order_release);
  }

  /// Teardown (runtime shutdown, shm peer reaping): retire a cell without
  /// executing it — ack an abandoned wait, fail a live one kCallAborted.
  void abort() {
    if (abandoned()) {
      ack_abandoned();
    } else {
      complete(Status::kCallAborted);
    }
  }

  /// Caller side, on deadline expiry. True: the wait is abandoned and the
  /// caller may leave (the block must survive until the server acks).
  /// False: the server completed first — the caller takes the real result.
  bool try_abandon() {
    std::uint32_t expect = 0;
    return done.compare_exchange_strong(expect, kAbandonedBit,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
  }

  /// Owner-side recycling check: the server's final store (completion or
  /// abandonment ack) has landed and nobody else will touch the block.
  bool server_finished() const {
    return (done.load(std::memory_order_acquire) & kDoneBit) != 0;
  }
};

/// Caller-side completion block for a synchronous cross-slot call. The
/// default (no-deadline) path keeps it on the caller's stack (cache-hot
/// for the spinner) with `regs` pointing at the caller's register file;
/// deadline calls use slot-pooled blocks with `regs == nullptr` and the
/// reply landing in the inline `reply` buffer, so a caller that abandons
/// the wait leaves the server a target that stays valid forever.
struct XcallWait : DoneWord {
  ppc::RegSet* regs = nullptr;  // caller's in/out register file (stack waits)
  XcallWait* next = nullptr;    // caller-slot pool link (pooled waits)
  ppc::RegSet reply{};          // inline reply buffer (pooled waits)

  /// Where the server writes the request/reply registers.
  ppc::RegSet& reply_target() { return regs != nullptr ? *regs : reply; }

  void reset() {
    done.store(0, std::memory_order_relaxed);
    regs = nullptr;
    next = nullptr;
  }
};

/// One ring cell: exactly one cache line in shipped builds. `seq` is the
/// Vyukov sequence (cell i starts at i; a producer claiming position p
/// publishes p+1; the consumer retires it to p+capacity). `wait == nullptr`
/// marks a fire-and-forget (async) cell. `deadline` is an absolute
/// host_cycles() tick (0 = none): a cell that drains after its deadline is
/// not executed late — the server drops it (async) or completes it with
/// kDeadlineExceeded (sync), booking deadline_exceeded either way.
///
/// Trace builds (HPPC_TRACE=1) carry the request's TraceCtx inline in the
/// cell — that is how a span crosses the ring to the server slot. The 16
/// extra bytes push the cell to two cache lines (alignas rounds 80 up to
/// 128); shipped builds stay exactly one line, so tracing's cost never
/// leaks into the configuration the paper's numbers come from.
struct alignas(kHostCacheLine) XcallCell {
  std::atomic<std::uint64_t> seq{0};
  XcallWait* wait = nullptr;
  std::uint64_t deadline = 0;
  ppc::RegSet regs{};  // inline request payload — no indirection, no alloc
  ProgramId caller = 0;
  EntryPointId ep = 0;
#if defined(HPPC_TRACE) && HPPC_TRACE
  obs::TraceCtx tctx{};  // request context riding the cell across slots
#endif
};
static_assert(sizeof(XcallCell) % kHostCacheLine == 0,
              "cells must tile cache lines exactly");
#if !defined(HPPC_TRACE) || !HPPC_TRACE
static_assert(sizeof(XcallCell) == kHostCacheLine,
              "shipped-build cells must stay exactly one cache line");
#endif

/// Frame-cell marker. An `ep` with this bit set carries a Figure-4
/// CallFrame inlined in the cell instead of a typed-handler request:
///   ep       = kFrameCellEp | FrameServiceId   (frame-table index)
///   deadline = the 64-bit packed op word       (frame cells carry no
///              deadline — the field is repurposed as the op lane)
///   regs     = the frame's 8 payload words
/// Legacy entry points are bounded by kMaxEntryPoints (1024), so the top
/// bit can never collide with a real id. The consumer checks this bit
/// FIRST and never interprets a frame cell's `deadline` as a tick count.
inline constexpr EntryPointId kFrameCellEp = 0x80000000u;

inline bool cell_is_frame(const XcallCell& cell) {
  return (cell.ep & kFrameCellEp) != 0;
}

/// Rebuild the CallFrame a frame cell carries (consumer side).
inline CallFrame cell_frame(const XcallCell& cell) {
  CallFrame f;
  f.op = cell.deadline;
  f.w = cell.regs.w;
  return f;
}

/// Request-context lanes in a typed (non-frame) cell's `ep` word. The cell
/// is exactly one cache line with no spare bytes, so the context that must
/// ride it — cancel-token index and traffic class — is packed into the ep
/// word's unused high bits (the absolute deadline already has its own
/// field). Layout, from the top:
///
///   bit  31      kFrameCellEp   frame-cell marker (frames carry NO request
///                               context in flight — see docs/XCALL.md)
///   bit  30      kCellBulkBit   traffic class (set = kBulk)
///   bits 16..29  token index    cancel-flag pool index (14 bits, 0 = none)
///   bits  0..15  entry point    the real EntryPointId
///
/// kMaxEntryPoints (1024) fits the low lane with room to spare; the
/// static_assert below keeps the packing honest if that ever grows.
inline constexpr EntryPointId kCellBulkBit = 0x40000000u;
inline constexpr unsigned kCellTokenShift = 16;
inline constexpr EntryPointId kCellTokenLaneMask = kMaxCancelTokens - 1;
inline constexpr EntryPointId kCellEpMask = 0xFFFFu;

static_assert(kMaxEntryPoints <= kCellEpMask + 1,
              "entry-point ids must fit the cell ep lane");

inline EntryPointId cell_pack_ep(EntryPointId ep, std::uint32_t token_idx,
                                 bool bulk) {
  return ep | ((token_idx & kCellTokenLaneMask) << kCellTokenShift) |
         (bulk ? kCellBulkBit : 0u);
}

inline EntryPointId cell_ep(EntryPointId wire) { return wire & kCellEpMask; }

inline std::uint32_t cell_token_idx(EntryPointId wire) {
  return (wire >> kCellTokenShift) & kCellTokenLaneMask;
}

inline bool cell_is_bulk(EntryPointId wire) {
  return (wire & kCellBulkBit) != 0;
}

/// The two XcallCell encodings. A typed call carries its packed ep word
/// (cell_pack_ep), payload, completion block and absolute deadline; a
/// frame call carries the frame-table index in ep and its op word in the
/// deadline lane. `tctx` (trace builds only) rides the cell to the
/// consumer; ignored in shipped builds.
inline void encode_call(XcallCell& cell, ProgramId caller, EntryPointId wire,
                        const ppc::RegSet& regs, XcallWait* wait,
                        std::uint64_t deadline, const obs::TraceCtx* tctx) {
  cell.caller = caller;
  cell.ep = wire;
  cell.regs = regs;
  cell.wait = wait;
  cell.deadline = deadline;
#if defined(HPPC_TRACE) && HPPC_TRACE
  cell.tctx = tctx != nullptr ? *tctx : obs::TraceCtx{};
#else
  (void)tctx;
#endif
}

inline void encode_frame(XcallCell& cell, ProgramId caller, const CallFrame& f,
                         XcallWait* wait, const obs::TraceCtx* tctx) {
  encode_call(cell, caller, kFrameCellEp | frame_service_of(f.op),
              ppc::RegSet{f.w}, wait, /*deadline=*/f.op, tctx);
}

/// Bounded MPSC ring of `Cell`s — the one claim/publish/drain protocol,
/// instantiated in process (XcallRing) and inside an shm segment
/// (shm::LaneHeader). Any thread posts; only the current ownership holder
/// drains. A Cell needs an atomic<uint64_t> `seq`; the ring itself holds
/// no pointers, so it is position-independent and may live in a segment
/// mapped at a different address in every process. Capacity is a power of
/// two so the index wrap is a mask.
template <typename Cell, std::size_t kCap>
class CellRing {
 public:
  static constexpr std::size_t kCapacity = kCap;
  static_assert((kCap & (kCap - 1)) == 0);

  CellRing() { reset(); }
  CellRing(const CellRing&) = delete;
  CellRing& operator=(const CellRing&) = delete;

  /// Re-arm to empty. Quiescent callers only: construction, and the shm
  /// reaper re-arming a dead peer's lane.
  void reset() {
    for (std::size_t i = 0; i < kCap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    enqueue_pos_.store(0, std::memory_order_relaxed);
    dequeue_pos_.store(0, std::memory_order_relaxed);
  }

  /// Any thread. Claims up to `n` contiguous cells with ONE CAS on the
  /// enqueue cursor, has `fill(cell, i)` write run index i's payload, and
  /// publishes the whole run with ONE release store — the batch doorbell.
  /// Never blocks, never allocates; returns the number of cells posted
  /// (0 = ring full). A short count is not an error — the caller
  /// re-submits the tail.
  ///
  /// The run's first cell is Vyukov's check (seq == pos: free; below:
  /// full; above: our cursor is stale). The rest is validated at the run's
  /// LAST cell: the consumer retires in order, so `seq == pos+m-1` there
  /// implies all of [pos, pos+m) is free; on a busy ring the run halves
  /// until it fits. Cells are filled back to front with relaxed seq
  /// stores and the first cell — the one the drain cursor waits on — is
  /// published last, with release: the single consumer reads cell k only
  /// after its acquire of cell 0, which carries the happens-before edge
  /// for the whole run.
  template <typename Fill>
  std::size_t post(std::size_t n, Fill&& fill) {
    if (n == 0) return 0;
    if (n > kCap) n = kCap;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    std::size_t m;
    for (;;) {
      const auto dif = static_cast<std::int64_t>(
          cells_[pos & kMask].seq.load(std::memory_order_acquire) - pos);
      if (dif < 0) return 0;  // the cell kCap behind is not retired yet
      if (dif > 0) {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
        continue;
      }
      m = n;
      while (m > 1 && cells_[(pos + m - 1) & kMask].seq.load(
                          std::memory_order_acquire) != pos + m - 1) {
        m >>= 1;
      }
      if (enqueue_pos_.compare_exchange_weak(pos, pos + m,
                                             std::memory_order_relaxed)) {
        break;  // claimed [pos, pos+m); a failed CAS reloaded pos
      }
    }
    for (std::size_t i = m; i-- > 0;) {
      Cell& cell = cells_[(pos + i) & kMask];
      fill(cell, i);
      cell.seq.store(pos + i + 1, i == 0 ? std::memory_order_release
                                         : std::memory_order_relaxed);
    }
    return m;
  }

  /// Ownership holder only. Consumes every ready cell in one batch —
  /// `fn(cell)` per cell — and retires them. Returns the batch size.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    std::size_t n = 0;
    for (;;) {
      const std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
      Cell& cell = cells_[pos & kMask];
      if (cell.seq.load(std::memory_order_acquire) != pos + 1) break;
      fn(cell);
      cell.seq.store(pos + kCap, std::memory_order_release);
      dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
      ++n;
    }
    return n;
  }

  /// Racy cursor snapshots. has_pending() is a producer-side hint (serve()
  /// uses it to decide whether to wake; correctness never depends on it);
  /// depth() feeds admission control, where an off-by-a-few answer just
  /// moves the shedding threshold by that much for one call.
  std::uint64_t enqueue_pos() const {
    return enqueue_pos_.load(std::memory_order_acquire);
  }
  std::uint64_t dequeue_pos() const {
    return dequeue_pos_.load(std::memory_order_acquire);
  }
  bool has_pending() const { return enqueue_pos() != dequeue_pos(); }
  std::size_t depth() const {
    const std::uint64_t enq = enqueue_pos();
    const std::uint64_t deq = dequeue_pos();
    return enq > deq ? static_cast<std::size_t>(enq - deq) : 0;
  }

  /// The cell backing position `pos` (observers and tests).
  const Cell& cell(std::uint64_t pos) const { return cells_[pos & kMask]; }

 private:
  static constexpr std::uint64_t kMask = kCap - 1;
  // Producer-shared and consumer-private positions on separate lines so
  // remote CAS traffic never collides with the drain cursor.
  alignas(kHostCacheLine) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(kHostCacheLine) std::atomic<std::uint64_t> dequeue_pos_{0};
  std::array<Cell, kCap> cells_;
};

/// The in-process channel: one per (producer slot, consumer slot) pair.
using XcallRing = CellRing<XcallCell, 64>;

/// The slot-ownership word. States:
///   kOwner  — the registered thread is running; remote callers must use
///             the ring (it will be drained at the owner's next poll).
///   kIdle   — nobody is executing on the slot (thread parked in serve(),
///             or no thread ever registered); a remote caller may steal.
///   kStolen — a remote caller holds the slot and is executing on it.
/// The owner's fast path (Runtime::call) never touches this word: while
/// the owner runs, the state is kOwner and cannot change under it, so the
/// same-slot warm call stays zero-shared-lines by construction.
class SlotGate {
 public:
  enum : std::uint32_t { kOwner = 0, kIdle = 1, kStolen = 2 };

  /// Remote caller: take the slot for direct execution, waiting out
  /// another thief. A kStolen gate is held for one direct call or
  /// help-drain, far shorter than the ring round trip a refused caller
  /// pays instead, so the caller polls it — a load of a line it holds
  /// shared until the thief's release store — and steals it once it reads
  /// kIdle. It gives up after `spins` polls, or once `deadline` (a
  /// host_cycles() tick; 0 = none) has passed. A kOwner gate is refused at
  /// once: its owner is awake and serves the ring. Only an idle gate is
  /// CASed, so a refused steal is one load of a shared line, not a failing
  /// RMW that pulls the line exclusive away from every other caller.
  bool steal_or_wait(int spins, std::uint64_t deadline) {
    for (int i = 0;; ++i) {
      const std::uint32_t s = state_.load(std::memory_order_relaxed);
      if (s == kOwner) return false;
      std::uint32_t expect = kIdle;
      if (s == kIdle && state_.compare_exchange_strong(
                            expect, kStolen, std::memory_order_acquire,
                            std::memory_order_relaxed)) {
        return true;
      }
      if (i >= spins || (deadline != 0 && host_cycles() >= deadline)) {
        return false;
      }
      cpu_relax();
    }
  }

  /// Remote caller: take the slot only if it is idle now.
  bool try_steal() { return steal_or_wait(0, 0); }

  /// Remote caller: hand the slot back after direct execution.
  void release_steal() { state_.store(kIdle, std::memory_order_release); }

  /// Owner thread: park (publish idle). Must not be mid-call.
  void enter_idle() { state_.store(kIdle, std::memory_order_release); }

  /// Owner thread: un-park, waiting out any in-flight thief.
  void exit_idle() {
    std::uint32_t expect = kIdle;
    while (!state_.compare_exchange_weak(expect, kOwner,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      expect = kIdle;
      std::this_thread::yield();
    }
  }

  /// First registration: claim an idle gate; idempotent re-registration
  /// (state already kOwner — necessarily ours, slots are per-thread) is a
  /// no-op. Waits out a thief caught mid-steal.
  void claim_at_register() {
    for (;;) {
      std::uint32_t expect = kIdle;
      if (state_.compare_exchange_weak(expect, kOwner,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      if (expect == kOwner) return;
      std::this_thread::yield();  // kStolen: thief is finishing
    }
  }

  std::uint32_t state() const {
    return state_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint32_t> state_{kIdle};
};

/// Relax polls of the done word per ladder round — and the polls a caller
/// spends waiting out another thief's hold on a slot gate (steal_or_wait)
/// before it posts: the window a ring waiter spins before it first helps.
inline constexpr int kWaitSpins = 96;

/// Yield rounds a no-deadline waiter burns (helping once per round) before
/// it parks on the completion word. Each round is a spin window plus a
/// help attempt, so by the time a waiter parks it has given the server a
/// long cooperative window AND tried to drain the target itself — parking
/// only happens when someone else demonstrably holds the slot.
inline constexpr int kWaitYieldRounds = 64;

/// The contended budget: when the target's ready mask already shows OTHER
/// producers' doorbells at post time, the owner has a queue in front of
/// our cell and the expected wait spans several drain passes — burning the
/// full yield ladder would just churn the scheduler (acutely so when
/// callers outnumber CPUs). One courtesy round, then park and let the
/// completing server's kick pay the single wakeup.
inline constexpr int kWaitYieldRoundsContended = 1;

/// `yield_rounds` for a waiter that must never park: deadline waiters
/// (atomic wait has no timeout) and cross-process waiters (std::atomic::
/// wait is a private futex, which does not cross address spaces).
inline constexpr int kWaitNoPark = -1;

/// How one waiter paces the ladder below.
struct WaitPacing {
  int spins = kWaitSpins;          // relax polls per round
  int yield_rounds = kWaitNoPark;  // rounds before parking
  std::uint64_t deadline = 0;      // host_cycles() tick; 0 = none
};

/// The one completion wait over a DoneWord — the spin→help→yield→park
/// ladder every synchronous waiter runs, in process (Runtime::collect) and
/// across processes (shm::Peer::call):
///
///   spin   `spins` cpu_relax polls of the done word (the multi-core happy
///          path, where the server replies within the spin window);
///   abandon  with a deadline, once it has passed: the abandon CAS from 0.
///          Won: the caller leaves with kDeadlineExceeded and
///          `*timed_out == true` (the block stays in flight until the
///          server acks). Lost: the server's result is already published,
///          and the caller takes it rather than reporting a deadline it
///          missed by nanoseconds;
///   help   `help()` once per round — steal-and-drain an idle target in
///          process, the liveness refresh across processes;
///   yield  while `round < yield_rounds` (forever under kWaitNoPark), so a
///          time-sliced server can run;
///   park   CAS the done word 0→kParkedBit and block in the C++20 atomic
///          wait until the server's completing exchange — which observes
///          the parked bit it replaced — kicks us with notify_one().
///          `on_park` runs once, before blocking (counters/trace/faults).
///
/// Both CASes are from 0 only, so a waiter can never erase a completion;
/// completion checks mask kDoneBit, so a stale parked bit observed after a
/// spurious wake never reads as a result.
template <typename Help, typename OnPark>
Status wait_done(DoneWord& w, WaitPacing p, Help&& help, OnPark&& on_park,
                 bool* timed_out) {
  std::uint32_t v = 0;
  const auto done = [&w, &v] {
    v = w.done.load(std::memory_order_acquire);
    return (v & DoneWord::kDoneBit) != 0;
  };
  *timed_out = false;
  for (int round = 0;; ++round) {
    for (int i = 0; i < p.spins; ++i) {
      if (done()) return static_cast<Status>(v & 0xFFu);
      cpu_relax();
    }
    if (p.deadline != 0 && host_cycles() >= p.deadline) {
      if (w.try_abandon()) {
        *timed_out = true;
        return Status::kDeadlineExceeded;
      }
      p.deadline = 0;  // lost to the server: its result is published
    }
    help();
    if (done()) return static_cast<Status>(v & 0xFFu);
    if (p.yield_rounds == kWaitNoPark || round < p.yield_rounds) {
      std::this_thread::yield();
      continue;
    }
    // Ladder exhausted: park. By now the cell is posted and the doorbell
    // rung, so the slot's current ownership holder (owner poll/serve, or a
    // helping thief) is guaranteed to reach it and kick us.
    on_park();
    for (;;) {
      std::uint32_t cur = w.done.load(std::memory_order_acquire);
      if ((cur & DoneWord::kDoneBit) != 0) {
        return static_cast<Status>(cur & 0xFFu);
      }
      if (cur == 0 &&
          !w.done.compare_exchange_strong(cur, DoneWord::kParkedBit,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        continue;  // completion raced in under us — re-examine
      }
      // Blocks while the word still reads kParkedBit; the server's
      // completing exchange changes it and notifies. Spurious wakes just
      // re-run the loop.
      w.done.wait(DoneWord::kParkedBit, std::memory_order_acquire);
    }
  }
}

}  // namespace hppc::rt

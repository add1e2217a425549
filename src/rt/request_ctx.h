// End-to-end request context: the per-request ambient state that rides a
// call tree across slot boundaries.
//
// The paper's death-and-destruction semantics (§4.5) stop at one PPC
// boundary: a hard-killed server aborts ITS in-flight calls, but nothing
// connects the caller's fate to work the server started on the caller's
// behalf. The host runtime makes nested calls routinely — KvService's
// vectored stubs ride xcall rings which ride the ppc facility — so a
// caller whose deadline already expired used to keep burning server
// cycles at every hop past the first. RequestCtx closes that gap:
//
//   abs_deadline_cycles  the root request's absolute budget (host_cycles
//                        tick; 0 = none). Nested calls inherit it under a
//                        remaining-budget clamp — a callee may tighten the
//                        budget with its own CallOptions::deadline_cycles
//                        but can never extend the root's. Checked at
//                        admission (caller side) and again at drain
//                        (server side), so an expired tree stops at the
//                        next seam instead of executing late.
//   cancel_token         index into the runtime's cancel-flag pool
//                        (CancelPool below; 0 = not cancellable).
//                        Runtime::cancel(token) raises the flag; every
//                        seam that checks the deadline checks the flag
//                        too, completing with kCallAborted. Long handlers
//                        poll cooperatively via
//                        Runtime::cancellation_requested().
//   traffic_class        kInteractive or kBulk. Admission control keeps a
//                        watermark per class (bulk sheds first) and the
//                        ready-mask drain scheduler serves interactive
//                        doorbells before bulk ones.
//   trace_id             the root trace id (mirrors obs::TraceCtx so the
//                        context is self-describing in all builds, not
//                        just HPPC_TRACE ones).
//
// Unlike obs::TraceCtx — which exists everywhere but only *records* under
// HPPC_TRACE — RequestCtx is load-bearing semantics in every build: the
// deadline/cancel checks decide call outcomes. The struct is installed as
// `Slot::cur_req` with the same save/restore discipline the trace context
// uses, so the no-context warm path costs two plain u64-sized copies and
// two always-false compares per call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hppc::rt {

/// Admission/drain priority of a request. kInteractive is the default and
/// the latency-sensitive class; kBulk marks throughput traffic that should
/// absorb shedding and queueing first when the system saturates.
enum class TrafficClass : std::uint8_t {
  kInteractive = 0,
  kBulk = 1,
};

inline constexpr std::size_t kNumTrafficClasses = 2;

/// Cancel-flag pool handle. 0 means "not cancellable"; nonzero tokens come
/// from CancelPool::create() and index (mod pool size) into the pool's
/// flag array. Tokens are generation-free: the pool is sized so reuse
/// requires 2^14 intervening allocations, and a stale cancel on a recycled
/// index is benign (the new request observes a spurious kCallAborted — the
/// same contract as a lost admission race).
using CancelToken = std::uint32_t;

/// Size of a cancel-flag pool: everything a cell's 14-bit token lane can
/// address (rt/xcall.h packs the index into the cell's ep word).
inline constexpr std::uint32_t kMaxCancelTokens = 1u << 14;

/// The cancel-flag pool as a view over caller-owned storage: a flag array
/// of kMaxCancelTokens zero-initialised words and a shared allocation
/// cursor (>= 1). It owns nothing, so the runtime holds one over its own
/// storage and the shm transport builds one over segment-resident storage
/// (shm::cancel_pool) — a token minted through either view of the same
/// storage is honoured by every drain that reads it, in any process.
class CancelPool {
 public:
  CancelPool(std::atomic<std::uint32_t>* flags,
             std::atomic<std::uint32_t>* cursor)
      : flags_(flags), cursor_(cursor) {}

  /// Wait-free monotonic allocation (one fetch_add). Values whose index is
  /// 0 are skipped — 0 in the cell's token lane means "not cancellable" —
  /// and the flag the new token maps to is cleared.
  CancelToken create() {
    CancelToken t;
    do {
      t = cursor_->fetch_add(1, std::memory_order_relaxed);
    } while ((t & kMask) == 0);
    flags_[t & kMask].store(0, std::memory_order_relaxed);
    return t;
  }

  /// Raise `t`'s flag (0 is never cancellable). Every seam that reads the
  /// flag from here on refuses the token's calls with kCallAborted.
  void cancel(CancelToken t) {
    if (t != 0) flags_[t & kMask].store(1, std::memory_order_release);
  }

  bool requested(CancelToken t) const {
    return t != 0 && flags_[t & kMask].load(std::memory_order_acquire) != 0;
  }

 private:
  static constexpr std::uint32_t kMask = kMaxCancelTokens - 1;
  std::atomic<std::uint32_t>* flags_;
  std::atomic<std::uint32_t>* cursor_;
};

struct RequestCtx {
  std::uint64_t abs_deadline_cycles = 0;  // absolute host_cycles tick; 0=none
  std::uint64_t trace_id = 0;             // root trace id (0 = untraced)
  CancelToken cancel_token = 0;           // 0 = not cancellable
  TrafficClass traffic_class = TrafficClass::kInteractive;

  /// Anything to propagate? (The warm no-context path keeps this false.)
  bool active() const {
    return abs_deadline_cycles != 0 || cancel_token != 0 ||
           traffic_class != TrafficClass::kInteractive;
  }

  bool expired(std::uint64_t now) const {
    return abs_deadline_cycles != 0 && now >= abs_deadline_cycles;
  }

  /// The inheritance rule: a nested bound may tighten the ambient one but
  /// never extend it. 0 on either side means "no bound from that side".
  static std::uint64_t clamp_deadline(std::uint64_t inherited,
                                      std::uint64_t mine) {
    if (mine == 0) return inherited;
    if (inherited == 0) return mine;
    return mine < inherited ? mine : inherited;
  }
};

}  // namespace hppc::rt

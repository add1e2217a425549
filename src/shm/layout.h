// The cross-process segment layout: every structure the shm transport
// shares between a server process and its peers, as PODs linked by BYTE
// OFFSETS from the segment base — never raw pointers, because the segment
// maps at a different virtual address in every process that opens it.
//
// This is the paper's PPC data area crossed with the xcall layer: the
// very ring template rt/xcall.h runs between slots of one process
// (rt::CellRing, here over ShmCell), laid out inside an shm_open/mmap
// segment so a caller PROCESS and a server PROCESS exchange warm null PPCs
// with zero locks and zero allocations. The wait block's done word is
// rt::DoneWord, with one cross-process amendment: nobody ever parks.
// std::atomic::wait lowers to FUTEX_WAIT_PRIVATE, which does not cross
// address spaces, so shm waiters spin-then-sched_yield and kParkedBit is
// never set on a segment word.
//
// Creation protocol: the server process lays the segment out through a
// segment-backed mem::Arena (mem/arena.h), records every offset in the
// ShmHeader, and publishes the header with a release store of the magic
// word — an opener acquire-loads the magic before trusting any offset.
//
// Ownership map (who writes what):
//   * PeerSlot.state     — CAS-claimed by attaching peers, reset by the
//                          server's reaper;
//   * PeerSlot.heartbeat — the peer, periodically; read by the reaper;
//   * lane ring cells    — the owning peer posts, the server drains
//                          (per-peer lanes, so rings are SPSC here, but
//                          they keep the MPSC claim protocol of the
//                          in-process layer);
//   * wait blocks        — the owning peer acquires/releases; the server
//                          writes replies and the done word; the reaper
//                          rebuilds the free list wholesale after a death;
//   * cancel pool        — any process raises flags; the server's drain
//                          sweep reads them (rt::Runtime::adopt_cancel_pool
//                          points a runtime at this pool);
//   * RegionSlot         — CAS-claimed by granting peers, invalidated by
//                          revoke or by the reaper.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/cacheline.h"
#include "common/types.h"
#include "ppc/regs.h"
#include "rt/xcall.h"

namespace hppc::shm {

inline constexpr std::uint64_t kShmMagic = 0x48505043'53484d31ull;  // HPPCSHM1
inline constexpr std::uint32_t kShmVersion = 2;

/// Peers one segment can host (one call lane each).
inline constexpr std::uint32_t kMaxShmPeers = 8;
/// Cells per peer lane; power of two (index wrap is a mask).
inline constexpr std::uint32_t kShmRingCapacity = 64;
/// Wait blocks per lane: one per cell is exactly enough, because a call
/// holds one cell and one wait for its whole lifetime.
inline constexpr std::uint32_t kShmWaitsPerLane = kShmRingCapacity;
/// Grantable bulk-data regions per segment.
inline constexpr std::uint32_t kMaxShmRegions = 32;
/// Entries in the server's shm dispatch table.
inline constexpr std::uint32_t kMaxShmEps = 64;

/// Offset sentinel: 0 is the header itself, so no linked structure ever
/// legitimately sits there.
inline constexpr std::uint64_t kNullOff = 0;

// -- wait blocks ------------------------------------------------------------

/// The cross-process completion block: rt::XcallWait's done word
/// (rt::DoneWord — the same type, the same CAS protocol) with the pool
/// link as an offset and the reply RegSet always inline (there is no
/// "caller's stack RegSet" to point at across address spaces). See the
/// file comment for why kParkedBit never appears here.
struct ShmWait : rt::DoneWord {
  std::uint32_t pad = 0;
  std::uint64_t next_off = kNullOff;  // lane free-list link (peer-private)
  ppc::RegSet reply;                  // server writes the reply words here

  void reset() { done.store(0, std::memory_order_relaxed); }
};
static_assert(std::is_trivially_destructible_v<ShmWait>);

// -- ring cells -------------------------------------------------------------

/// One lane cell: the 64-byte XcallCell with the wait pointer replaced by
/// a segment offset. `ep` uses the in-process packing (rt::cell_pack_ep —
/// entry point low, cancel-token index at kCellTokenShift, kCellBulkBit);
/// `aux` is the spare 8-byte lane (op word for future frame-style calls).
struct alignas(kHostCacheLine) ShmCell {
  std::atomic<std::uint64_t> seq{0};
  std::uint32_t ep = 0;
  std::uint32_t caller = 0;    // the posting peer's program token (§4.1)
  std::uint64_t wait_off = kNullOff;
  std::uint64_t aux = 0;
  ppc::RegSet regs;
};
static_assert(sizeof(ShmCell) == 64, "one cell, one cache line");
static_assert(std::is_trivially_destructible_v<ShmCell>);

// -- lanes ------------------------------------------------------------------

/// A lane's ring: the in-process ring template over ShmCells — cursors on
/// their own lines, cells behind them, no pointers anywhere.
using ShmRing = rt::CellRing<ShmCell, kShmRingCapacity>;

/// One peer's call lane: its ring plus its wait pool.
struct LaneHeader {
  ShmRing ring;
  std::uint64_t waits_off = kNullOff;  // ShmWait[kShmWaitsPerLane]
  /// Head of the lane's wait free list (offset; kNullOff = empty). Owned
  /// by the attached peer while it lives; rebuilt wholesale by the
  /// server's reaper after the peer dies.
  std::uint64_t wait_free_off = kNullOff;
};
static_assert(std::is_trivially_destructible_v<LaneHeader>);

// -- peers ------------------------------------------------------------------

enum PeerState : std::uint32_t {
  kPeerFree = 0,
  kPeerAttaching = 1,  // CAS-claimed, lane not yet ready for draining
  kPeerAttached = 2,
  kPeerDead = 3,       // reaper is tearing the lane down
};

struct PeerSlot {
  std::atomic<std::uint32_t> state{kPeerFree};
  std::atomic<std::uint32_t> pid{0};
  /// CLOCK_MONOTONIC nanoseconds of the peer's last sign of life. The
  /// peer stores on attach, after every call, and from heartbeat(); the
  /// server's reaper compares against its own clock (same host, same
  /// clock — that is the point of shared memory).
  std::atomic<std::uint64_t> heartbeat_ns{0};
  /// Bumped every reap/detach, so a stale peer handle can be recognised.
  std::atomic<std::uint32_t> generation{0};
  std::uint32_t program = 0;  // the peer's program token, set at attach
};
static_assert(std::is_trivially_destructible_v<PeerSlot>);

// -- granted bulk-data regions ----------------------------------------------

enum RegionState : std::uint32_t {
  kRegionFree = 0,
  kRegionGranting = 1,  // CAS-claimed, backing segment not yet sized
  kRegionGranted = 2,
};

inline constexpr std::uint32_t kRegionRead = 1;   // server may read
inline constexpr std::uint32_t kRegionWrite = 2;  // server may write

/// One granted region: a SEPARATE shm segment (named by region_name() in
/// segment.h) the granting peer created and the server maps on first use.
/// The slot carries everything the server needs to map and validate it;
/// the grant's byte range and rights bound every descriptor resolution,
/// which is the paper's grant check (§4.2) verbatim.
struct RegionSlot {
  std::atomic<std::uint32_t> state{kRegionFree};
  std::atomic<std::uint32_t> generation{0};  // bumped on revoke/reap
  std::uint32_t owner_peer = 0;              // peer index that granted it
  std::uint32_t rights = 0;                  // kRegionRead | kRegionWrite
  std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_destructible_v<RegionSlot>);

// -- the header -------------------------------------------------------------

/// Page 0 of the segment. Offsets are bytes from the segment base. The
/// magic word is written LAST (release) by the creator and checked FIRST
/// (acquire) by openers, so a fully published header is the only thing an
/// opener can ever act on.
struct ShmHeader {
  std::atomic<std::uint64_t> magic{0};
  std::uint32_t version = 0;
  std::uint32_t max_peers = 0;
  std::uint32_t ring_capacity = 0;
  std::uint32_t waits_per_lane = 0;
  std::uint32_t max_regions = 0;
  std::atomic<std::uint32_t> server_pid{0};
  std::uint64_t total_bytes = 0;
  /// Cooperative shutdown flag: the server raises it; peers and helper
  /// processes poll it. (Uncooperative death is what heartbeats catch.)
  std::atomic<std::uint32_t> stop{0};
  std::uint32_t pad0 = 0;

  std::uint64_t peers_off = kNullOff;    // PeerSlot[max_peers]
  std::uint64_t lanes_off = kNullOff;    // LaneHeader[max_peers]
  std::uint64_t regions_off = kNullOff;  // RegionSlot[max_regions]
  /// The segment-resident cancel pool: flags_off names
  /// atomic<u32>[rt::kMaxCancelTokens] and cursor_off the shared token
  /// allocator — the storage rt::Runtime::adopt_cancel_pool() points a
  /// runtime at, which is what makes cancel(token) cross the process
  /// boundary (satellite of the transport: the server's drain-side sweep
  /// reads the same flag the remote canceller raised).
  std::uint64_t cancel_flags_off = kNullOff;
  std::uint64_t cancel_cursor_off = kNullOff;

  /// Pad to two cache lines so the arena laying out the rest of the
  /// segment starts line-aligned (transport.cpp asserts this).
  std::uint8_t reserved[40] = {};
};
static_assert(sizeof(ShmHeader) % kHostCacheLine == 0);
static_assert(std::is_trivially_destructible_v<ShmHeader>);

}  // namespace hppc::shm

#include "shm/transport.h"

#include <cstring>
#include <stdexcept>

#ifdef __linux__
#include <csignal>
#include <cerrno>
#include <ctime>
#include <sched.h>
#include <unistd.h>
#else
#include <chrono>
#include <thread>
#endif

#include "mem/arena.h"

namespace hppc::shm {

namespace {

std::uint64_t now_ns() {
#ifdef __linux__
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

void yield_thread() {
#ifdef __linux__
  ::sched_yield();
#else
  std::this_thread::yield();
#endif
}

std::uint32_t self_pid() {
#ifdef __linux__
  return static_cast<std::uint32_t>(::getpid());
#else
  return 1;
#endif
}

bool pid_gone(std::uint32_t pid) {
#ifdef __linux__
  return pid != 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
         errno == ESRCH;
#else
  (void)pid;
  return false;
#endif
}

/// Link every wait block of `lane` into its free list, in index order:
/// the full-length pool a fresh lane starts with and a reaped lane gets
/// back. Relink only — done words are left as they are.
void relink_waits(Segment& seg, LaneHeader& lane) {
  auto* waits = seg.at<ShmWait>(lane.waits_off);
  for (std::uint32_t i = 0; i < kShmWaitsPerLane; ++i) {
    waits[i].next_off = i + 1 < kShmWaitsPerLane
                            ? seg.offset_of(&waits[i + 1])
                            : kNullOff;
  }
  lane.wait_free_off = seg.offset_of(&waits[0]);
}

}  // namespace

rt::CancelPool cancel_pool(Segment& seg) {
  const auto* hdr = reinterpret_cast<const ShmHeader*>(seg.base());
  return {seg.at<std::atomic<std::uint32_t>>(hdr->cancel_flags_off),
          seg.at<std::atomic<std::uint32_t>>(hdr->cancel_cursor_off)};
}

// -- Server -----------------------------------------------------------------

Server::Server(const std::string& name, ServerOptions opts)
    : seg_(Segment::create(name, opts.segment_bytes)),
      copy_(seg_, opts.counters != nullptr ? opts.counters : &own_counters_),
      counters_(opts.counters != nullptr ? opts.counters : &own_counters_) {
  // Lay the segment out through a segment-backed arena: the header is
  // page 0; everything else is bump-allocated behind it and linked into
  // the header by offset. The arena is a throwaway — its chunk is the
  // segment itself, which outlives it.
  auto* hdr = ::new (seg_.base()) ShmHeader{};
  mem::Arena arena(seg_.base() + sizeof(ShmHeader),
                   seg_.size() - sizeof(ShmHeader));
  // allocate() aligns relative to its own base; the segment base is
  // page-aligned, so as long as sizeof(ShmHeader) keeps the arena base
  // 64-byte aligned the cache-line intents below hold. Assert it.
  static_assert(sizeof(ShmHeader) % 64 == 0,
                "header must keep the arena base cache-line aligned");

  auto* peers = arena.create_array<PeerSlot>(0, kMaxShmPeers);
  auto* lanes = arena.create_array<LaneHeader>(0, kMaxShmPeers);
  auto* regions = arena.create_array<RegionSlot>(0, kMaxShmRegions);
  auto* flags =
      arena.create_array<std::atomic<std::uint32_t>>(0, rt::kMaxCancelTokens);
  auto* cursor = arena.create<std::atomic<std::uint32_t>>(0, 1u);

  // Each lane's ring is constructed armed (it lives inside LaneHeader);
  // only its wait pool sits behind it.
  for (std::uint32_t p = 0; p < kMaxShmPeers; ++p) {
    lanes[p].waits_off = seg_.offset_of(
        arena.create_array<ShmWait>(0, kShmWaitsPerLane));
    relink_waits(seg_, lanes[p]);
  }

  hdr->version = kShmVersion;
  hdr->max_peers = kMaxShmPeers;
  hdr->ring_capacity = kShmRingCapacity;
  hdr->waits_per_lane = kShmWaitsPerLane;
  hdr->max_regions = kMaxShmRegions;
  hdr->server_pid.store(self_pid(), std::memory_order_relaxed);
  hdr->total_bytes = seg_.size();
  hdr->peers_off = seg_.offset_of(peers);
  hdr->lanes_off = seg_.offset_of(lanes);
  hdr->regions_off = seg_.offset_of(regions);
  hdr->cancel_flags_off = seg_.offset_of(flags);
  hdr->cancel_cursor_off = seg_.offset_of(cursor);

  // Publish: openers acquire-load the magic before trusting any offset.
  hdr->magic.store(kShmMagic, std::memory_order_release);

  counters_->inc(obs::Counter::kShmSegmentsMapped);
}

Server::~Server() {
  if (seg_.mapped()) {
    header()->stop.store(1, std::memory_order_release);
    seg_.unlink();
  }
}

ShmEp Server::bind(ShmFn fn, void* self) {
  if (next_ep_ >= kMaxShmEps) return 0;
  const ShmEp ep = next_ep_++;
  services_[ep].self = self;
  services_[ep].fn.store(fn, std::memory_order_release);
  return ep;
}

std::size_t Server::poll() {
  const ShmHeader* hdr = header();
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  std::size_t n = 0;
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    if (peers[p].state.load(std::memory_order_acquire) == kPeerAttached) {
      n += drain_lane(p);
    }
  }
  return n;
}

std::size_t Server::drain_lane(std::uint32_t peer_idx) {
  auto* lane = seg_.at<LaneHeader>(header()->lanes_off) + peer_idx;
  const rt::CancelPool cancel = cancel_pool(seg_);
  const std::size_t n = lane->ring.drain([&](ShmCell& cell) {
    ShmWait* wait =
        cell.wait_off != kNullOff ? seg_.at<ShmWait>(cell.wait_off) : nullptr;
    const ShmEp ep = rt::cell_ep(cell.ep);
    const std::uint32_t token = rt::cell_token_idx(cell.ep);
    counters_->inc(obs::Counter::kXcallCellsDrained);

    if (wait != nullptr && wait->abandoned()) {
      wait->ack_abandoned();
      return;
    }
    Status rc = Status::kCallAborted;
    if (!cancel.requested(token)) {
      // Not cancelled (the drain-side sweep: the same one-load check the
      // in-process drain performs, reading a flag ANY process may have
      // raised). Execute straight into the wait block's reply RegSet: the
      // cell's payload is copied there once, the handler mutates it in
      // place, and the done-word release publishes it. A fire-and-forget
      // cell executes on its own payload.
      ShmFn fn = ep < kMaxShmEps
                     ? services_[ep].fn.load(std::memory_order_acquire)
                     : nullptr;
      rc = Status::kNoSuchEntryPoint;
      if (fn != nullptr) {
        ShmCtx ctx{this, &copy_, peer_idx, cell.caller};
        ppc::RegSet& out = wait != nullptr ? wait->reply : cell.regs;
        out = cell.regs;
        rc = fn(services_[ep].self, ctx, out);
      }
    }
    if (wait != nullptr) wait->complete(rc);
  });
  if (n != 0) counters_->inc(obs::Counter::kXcallBatches);
  return n;
}

std::size_t Server::serve(std::uint64_t dead_after_ns,
                          std::uint32_t reap_every) {
  std::size_t total = 0;
  std::uint32_t since_reap = 0;
  while (!stop_requested()) {
    const std::size_t n = poll();
    total += n;
    if (++since_reap >= reap_every) {
      since_reap = 0;
      reap_dead_peers(dead_after_ns);
    }
    if (n == 0) yield_thread();
  }
  return total;
}

std::size_t Server::reap_dead_peers(std::uint64_t dead_after_ns) {
  const ShmHeader* hdr = header();
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  const std::uint64_t now = now_ns();
  std::size_t reaped = 0;
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    PeerSlot& slot = peers[p];
    if (slot.state.load(std::memory_order_acquire) != kPeerAttached) continue;
    const std::uint64_t hb = slot.heartbeat_ns.load(std::memory_order_acquire);
    if (now < hb + dead_after_ns) continue;
    counters_->inc(obs::Counter::kHeartbeatsMissed);
    // Staleness is suspicion; a vanished pid is confirmation. The 8x
    // backstop covers pid reuse: a recycled pid passes the kill(0) probe
    // forever, but a peer silent for 8 thresholds is dead either way.
    const std::uint32_t pid = slot.pid.load(std::memory_order_relaxed);
    if (pid_gone(pid) || now >= hb + 8 * dead_after_ns) {
      reap_lane(p);
      ++reaped;
    }
  }
  return reaped;
}

void Server::reap_lane(std::uint32_t peer_idx) {
  const ShmHeader* hdr = header();
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  auto* lane = seg_.at<LaneHeader>(hdr->lanes_off) + peer_idx;
  auto* regions = seg_.at<RegionSlot>(hdr->regions_off);
  PeerSlot& slot = peers[peer_idx];

  slot.state.store(kPeerDead, std::memory_order_release);

  // Administrative drain: every PUBLISHED in-flight cell completes with
  // kCallAborted — nothing executes on behalf of a dead caller. A cell
  // the dying peer claimed but never published (SIGKILL mid-post) has no
  // readable payload; the lane has one producer, so it can only be the
  // last claim, and the ring reset below retires it.
  lane->ring.drain([&](ShmCell& cell) {
    if (cell.wait_off != kNullOff) seg_.at<ShmWait>(cell.wait_off)->abort();
  });

  // Re-arm the ring and rebuild the wait pool wholesale. Relinking all
  // kShmWaitsPerLane blocks is what makes pool conservation a
  // construction property rather than an accounting hope: whatever the
  // dead peer held, the free list is full-length again. Done words stay
  // as the administrative drain left them: if the reap was spurious (8x
  // backstop, peer merely wedged), the caller is still spinning on its
  // done word and must be able to observe the kCallAborted completion;
  // acquire_wait()+reset() clears the word when a block is next handed
  // out.
  lane->ring.reset();
  relink_waits(seg_, *lane);

  // Revoke the dead peer's grants: nothing may resolve against a region
  // whose owner is gone, and the backing segments' names are reclaimed.
  for (std::uint32_t r = 0; r < hdr->max_regions; ++r) {
    RegionSlot& rs = regions[r];
    if (rs.state.load(std::memory_order_acquire) != kRegionGranted ||
        rs.owner_peer != peer_idx) {
      continue;
    }
    const std::uint32_t gen = rs.generation.load(std::memory_order_relaxed);
    rs.state.store(kRegionFree, std::memory_order_release);
    rs.generation.store(gen + 1, std::memory_order_release);
    copy_.invalidate(r);
    Segment dead = Segment::try_open(region_name(seg_.name(), r, gen));
    dead.unlink();
  }
  copy_.invalidate_peer(peer_idx);

  slot.pid.store(0, std::memory_order_relaxed);
  slot.heartbeat_ns.store(0, std::memory_order_relaxed);
  slot.program = 0;
  slot.generation.fetch_add(1, std::memory_order_release);
  slot.state.store(kPeerFree, std::memory_order_release);
  counters_->inc(obs::Counter::kPeerDeaths);
}

void Server::request_stop() {
  header()->stop.store(1, std::memory_order_release);
}

bool Server::stop_requested() const {
  return header()->stop.load(std::memory_order_acquire) != 0;
}

std::uint32_t Server::attached_peers() const {
  const ShmHeader* hdr = header();
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  std::uint32_t n = 0;
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    if (peers[p].state.load(std::memory_order_acquire) == kPeerAttached) ++n;
  }
  return n;
}

// -- Peer -------------------------------------------------------------------

Peer::Peer(const std::string& name, ProgramId program, ServerOptions opts)
    : seg_(Segment::open(name)),
      counters_(opts.counters != nullptr ? opts.counters : &own_counters_),
      program_(program) {
  ShmHeader* hdr = header();
  if (hdr->magic.load(std::memory_order_acquire) != kShmMagic ||
      hdr->version != kShmVersion) {
    throw std::runtime_error("shm::Peer: segment '" + name +
                             "' is not a published v" +
                             std::to_string(kShmVersion) + " transport");
  }
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  std::uint32_t claimed = hdr->max_peers;
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    std::uint32_t expect = kPeerFree;
    if (peers[p].state.compare_exchange_strong(expect, kPeerAttaching,
                                               std::memory_order_acq_rel)) {
      claimed = p;
      break;
    }
  }
  if (claimed == hdr->max_peers) {
    throw std::runtime_error("shm::Peer: no free peer slot in '" + name + "'");
  }
  idx_ = claimed;
  lane_ = seg_.at<LaneHeader>(hdr->lanes_off) + idx_;

  PeerSlot& slot = peers[idx_];
  slot.pid.store(self_pid(), std::memory_order_relaxed);
  slot.program = program_;
  slot.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  generation_ = slot.generation.load(std::memory_order_relaxed);
  slot.state.store(kPeerAttached, std::memory_order_release);
  counters_->inc(obs::Counter::kShmSegmentsMapped);
}

Peer::~Peer() {
  if (!seg_.mapped()) return;
  // Cooperative detach: return every grant, then free the slot so the
  // server stops draining the lane. (Uncooperative exit is the reaper's.)
  for (std::uint32_t r = 0; r < kMaxShmRegions; ++r) {
    if (regions_[r].mapped()) revoke_region(r);
  }
  ShmHeader* hdr = header();
  auto* peers = seg_.at<PeerSlot>(hdr->peers_off);
  PeerSlot& slot = peers[idx_];
  slot.pid.store(0, std::memory_order_relaxed);
  slot.generation.fetch_add(1, std::memory_order_release);
  slot.state.store(kPeerFree, std::memory_order_release);
}

ShmWait* Peer::acquire_wait() {
  const std::uint64_t off = lane_->wait_free_off;
  if (off == kNullOff) return nullptr;
  ShmWait* w = seg_.at<ShmWait>(off);
  lane_->wait_free_off = w->next_off;
  return w;
}

void Peer::release_wait(ShmWait* w) {
  w->next_off = lane_->wait_free_off;
  lane_->wait_free_off = seg_.offset_of(w);
}

Status Peer::call(ShmEp ep, ppc::RegSet& regs, std::uint32_t token) {
  ShmWait* w = acquire_wait();
  if (w == nullptr) return Status::kOutOfResources;
  w->reset();

  // Producer side of the lane ring: the in-process claim/publish
  // (rt::CellRing::post), MPSC-safe even though a lane has one producer.
  const std::uint64_t wait_off = seg_.offset_of(w);
  if (lane_->ring.post(1, [&](ShmCell& cell, std::size_t) {
        cell.ep = rt::cell_pack_ep(ep, token & rt::kCellTokenLaneMask, false);
        cell.caller = static_cast<std::uint32_t>(program_);
        cell.wait_off = wait_off;
        cell.aux = 0;
        cell.regs = regs;
      }) == 0) {
    release_wait(w);
    return Status::kOverloaded;  // lane ring full
  }

  // Every call refreshes liveness. The wait is the in-process ladder
  // (rt::wait_done) with parking off — the done word lives in the segment
  // and std::atomic::wait is a private futex — and its per-round help is
  // the liveness refresh, every 16384 rounds, so a caller stuck behind a
  // slow handler is not declared dead.
  heartbeat();
  std::uint32_t rounds = 0;
  bool timed_out = false;
  const Status rc = rt::wait_done(
      *w, rt::WaitPacing{},
      [&] {
        if ((++rounds & 0x3FFF) == 0) heartbeat();
      },
      [] {}, &timed_out);
  regs = w->reply;
  release_wait(w);
  counters_->inc(obs::Counter::kCallsRemote);
  return rc;
}

std::uint32_t Peer::grant_region(std::size_t bytes, std::uint32_t rights) {
  ShmHeader* hdr = header();
  auto* regions = seg_.at<RegionSlot>(hdr->regions_off);
  for (std::uint32_t r = 0; r < hdr->max_regions; ++r) {
    RegionSlot& rs = regions[r];
    std::uint32_t expect = kRegionFree;
    if (!rs.state.compare_exchange_strong(expect, kRegionGranting,
                                          std::memory_order_acq_rel)) {
      continue;
    }
    const std::uint32_t gen =
        rs.generation.fetch_add(1, std::memory_order_relaxed) + 1;
    try {
      regions_[r] = Segment::create(region_name(seg_.name(), r, gen), bytes);
    } catch (const std::exception&) {
      rs.state.store(kRegionFree, std::memory_order_release);
      return kMaxShmRegions;
    }
    rs.owner_peer = idx_;
    rs.rights = rights;
    rs.bytes = bytes;
    rs.state.store(kRegionGranted, std::memory_order_release);
    counters_->inc(obs::Counter::kShmSegmentsMapped);
    return r;
  }
  return kMaxShmRegions;
}

void Peer::revoke_region(std::uint32_t region) {
  if (region >= kMaxShmRegions || !regions_[region].mapped()) return;
  ShmHeader* hdr = header();
  auto* regions = seg_.at<RegionSlot>(hdr->regions_off);
  RegionSlot& rs = regions[region];
  rs.state.store(kRegionFree, std::memory_order_release);
  rs.generation.fetch_add(1, std::memory_order_release);
  regions_[region].unlink();
  regions_[region] = Segment{};
}

std::byte* Peer::region_base(std::uint32_t region) {
  return region < kMaxShmRegions && regions_[region].mapped()
             ? regions_[region].base()
             : nullptr;
}

void Peer::heartbeat() {
  auto* peers = seg_.at<PeerSlot>(header()->peers_off);
  peers[idx_].heartbeat_ns.store(now_ns(), std::memory_order_release);
}

bool Peer::stop_requested() const {
  return header()->stop.load(std::memory_order_acquire) != 0;
}

void Peer::request_stop() {
  header()->stop.store(1, std::memory_order_release);
}

}  // namespace hppc::shm

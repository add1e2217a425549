// The cross-process transport: warm calls over a lane (threaded and
// forked), cross-process cancellation through the segment pool, the
// granted-region bulk path, and the hard-kill extension — a SIGKILLed
// peer detected by heartbeat, its in-flight call completed kCallAborted,
// its lane's pool resources fully reclaimed.
#include "shm/transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.h"
#include "rt/bulk_desc.h"
#include "rt/xcall.h"
#include "shm/layout.h"

#ifdef __linux__
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace hppc::shm {
namespace {

#ifdef __linux__

std::string uniq_name(const char* tag) {
  return std::string("/hppc_") + tag + "_" + std::to_string(::getpid());
}

Status echo_add_one(void* /*self*/, ShmCtx& /*ctx*/, ppc::RegSet& regs) {
  for (std::size_t i = 0; i < kPpcWords; ++i) regs[i] += 1;
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Threaded (same process, two threads — the protocol is identical, only
// the base addresses coincide)
// ---------------------------------------------------------------------------

TEST(ShmTransport, WarmCallsRoundTripOverALane) {
  const std::string name = uniq_name("warm");
  Server server(name);
  server.bind(&echo_add_one, nullptr);  // ep 1

  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
    server.poll();
  });

  Peer peer(name, /*program=*/42);
  for (std::uint32_t round = 0; round < 256; ++round) {
    ppc::RegSet regs;
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      regs[i] = round * 16 + static_cast<Word>(i);
    }
    ASSERT_EQ(peer.call(/*ep=*/1, regs), Status::kOk);
    for (std::size_t i = 0; i < kPpcWords; ++i) {
      ASSERT_EQ(regs[i], round * 16 + i + 1);
    }
  }
  done.store(true, std::memory_order_release);
  srv.join();

  // 256 calls = 256 drained cells; the lane's wait pool is conserved.
  EXPECT_GE(server.counters().get(obs::Counter::kXcallCellsDrained), 256u);
  EXPECT_EQ(peer.counters().get(obs::Counter::kCallsRemote), 256u);
}

TEST(ShmTransport, UnboundEpFailsAndUnknownTokenCancels) {
  const std::string name = uniq_name("epcheck");
  Server server(name);
  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });

  Peer peer(name, 1);
  ppc::RegSet regs;
  EXPECT_EQ(peer.call(/*ep=*/33, regs), Status::kNoSuchEntryPoint);

  // A pre-cancelled token aborts at the drain seam without dispatching.
  const std::uint32_t tok = peer.cancel_token_create();
  peer.cancel(tok);
  EXPECT_EQ(peer.call(/*ep=*/33, regs, tok), Status::kCallAborted);

  done.store(true, std::memory_order_release);
  srv.join();
}

// ---------------------------------------------------------------------------
// Granted-region bulk path
// ---------------------------------------------------------------------------

struct BulkXorService {
  std::uint64_t bytes_seen = 0;

  // regs carry one BulkSeg (packed at w[0..3]): XOR every granted byte
  // with 0x5A in place — copy_from, transform, copy_to. The payload never
  // rides the ring; the cell traffic is O(1) in the payload size.
  static Status run(void* self, ShmCtx& ctx, ppc::RegSet& regs) {
    auto* svc = static_cast<BulkXorService*>(self);
    const rt::BulkSeg seg = rt::bulk_seg_unpack(regs, 0);
    std::vector<std::byte> stage(seg.len);
    Status rc = ctx.copy->copy_from(seg.region, seg.addr, stage.data(),
                                    stage.size());
    if (rc != Status::kOk) return rc;
    for (std::byte& b : stage) b ^= std::byte{0x5A};
    rc = ctx.copy->copy_to(seg.region, seg.addr, stage.data(), stage.size());
    if (rc != Status::kOk) return rc;
    svc->bytes_seen += seg.len;
    return Status::kOk;
  }
};

TEST(ShmTransport, BulkDescriptorsMoveBytesThroughGrantedRegions) {
  const std::string name = uniq_name("bulk");
  Server server(name);
  BulkXorService svc;
  const ShmEp ep = server.bind(&BulkXorService::run, &svc);

  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });

  Peer peer(name, 7);
  constexpr std::size_t kBytes = 64 * 1024;
  const std::uint32_t region = peer.grant_region(kBytes);
  ASSERT_LT(region, kMaxShmRegions);
  std::byte* base = peer.region_base(region);
  ASSERT_NE(base, nullptr);
  for (std::size_t i = 0; i < kBytes; ++i) {
    base[i] = static_cast<std::byte>(i & 0xFF);
  }

  ppc::RegSet regs;
  rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, 0, kBytes));
  ASSERT_EQ(peer.call(ep, regs), Status::kOk);
  for (std::size_t i = 0; i < kBytes; ++i) {
    ASSERT_EQ(base[i], static_cast<std::byte>((i & 0xFF) ^ 0x5A)) << i;
  }
  EXPECT_EQ(svc.bytes_seen, kBytes);
  // copy_from + copy_to both book: 2x the payload.
  EXPECT_EQ(server.counters().get(obs::Counter::kBulkCopyBytes), 2 * kBytes);
  // Main segment + the mapped grant.
  EXPECT_GE(server.counters().get(obs::Counter::kShmSegmentsMapped), 2u);

  // Descriptors out of the granted range (or after revoke) must refuse.
  rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, kBytes - 8, 64));
  EXPECT_EQ(peer.call(ep, regs), Status::kBadRegion);
  peer.revoke_region(region);
  rt::bulk_seg_pack(regs, 0, rt::bulk_region(region, 0, 64));
  EXPECT_EQ(peer.call(ep, regs), Status::kBadRegion);

  done.store(true, std::memory_order_release);
  srv.join();
}

// ---------------------------------------------------------------------------
// Forked (genuinely cross-process)
// ---------------------------------------------------------------------------

TEST(ShmTransport, CrossProcessEchoOverFork) {
  const std::string name = uniq_name("fork");
  Server server(name);
  server.bind(&echo_add_one, nullptr);  // ep 1

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: attach from a fresh mapping and drive calls. Plain _exit
    // codes report failure — no gtest in the child.
    try {
      Peer peer(name, /*program=*/99);
      for (std::uint32_t round = 0; round < 512; ++round) {
        ppc::RegSet regs;
        regs[0] = round;
        if (peer.call(1, regs) != Status::kOk) ::_exit(2);
        if (regs[0] != round + 1) ::_exit(3);
      }
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  int st = 0;
  while (::waitpid(child, &st, WNOHANG) == 0) server.poll();
  server.poll();  // sweep anything posted just before exit
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 0);
  EXPECT_GE(server.counters().get(obs::Counter::kXcallCellsDrained), 512u);
}

TEST(ShmTransport, CancelCrossesTheProcessBoundary) {
  const std::string name = uniq_name("xcancel");
  Server server(name);
  static std::atomic<std::uint32_t> executed{0};
  executed.store(0);
  server.bind(
      +[](void*, ShmCtx&, ppc::RegSet&) {
        executed.fetch_add(1);
        return Status::kOk;
      },
      nullptr);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      Peer peer(name, 5);
      // Mint in the child, cancel in the child, post with the token: the
      // PARENT's drain must see the flag (it lives in the segment) and
      // refuse the dispatch.
      const std::uint32_t tok = peer.cancel_token_create();
      peer.cancel(tok);
      ppc::RegSet regs;
      if (peer.call(1, regs, tok) != Status::kCallAborted) ::_exit(2);
      // And an uncancelled token still executes.
      const std::uint32_t tok2 = peer.cancel_token_create();
      if (peer.call(1, regs, tok2) != Status::kOk) ::_exit(3);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  int st = 0;
  while (::waitpid(child, &st, WNOHANG) == 0) server.poll();
  server.poll();
  ASSERT_TRUE(WIFEXITED(st));
  EXPECT_EQ(WEXITSTATUS(st), 0);
  EXPECT_EQ(executed.load(), 1u);  // the cancelled call never dispatched
}

TEST(ShmTransport, Kill9PeerIsReapedWithPoolConservation) {
  const std::string name = uniq_name("kill9");
  Server server(name);
  server.bind(&echo_add_one, nullptr);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      Peer peer(name, 13);
      peer.grant_region(4096);  // a grant the reaper must also revoke
      ppc::RegSet regs;
      // The server never polls while this call is in flight, so the child
      // blocks inside call() — a genuinely in-flight cell — until SIGKILL.
      peer.call(1, regs);
    } catch (...) {
      ::_exit(4);
    }
    ::_exit(0);
  }

  // Observe the in-flight cell through the segment, then kill -9.
  Segment& seg = server.segment();
  const auto* hdr = reinterpret_cast<const ShmHeader*>(seg.base());
  auto* lane = seg.at<LaneHeader>(hdr->lanes_off);  // child took lane 0
  while (lane->ring.enqueue_pos() == 0) {
    std::this_thread::yield();
  }
  auto* regions = seg.at<RegionSlot>(hdr->regions_off);
  while (regions[0].state.load(std::memory_order_acquire) != kRegionGranted) {
    std::this_thread::yield();
  }
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int st = 0;
  ASSERT_EQ(::waitpid(child, &st, 0), child);
  ASSERT_TRUE(WIFSIGNALED(st));

  // Locate the in-flight call's wait block BEFORE the reap resets the
  // ring, so the kCallAborted completion can be asserted on it after.
  ASSERT_EQ(lane->ring.cell(0).seq.load(std::memory_order_acquire), 1u);
  auto* wait = seg.at<ShmWait>(lane->ring.cell(0).wait_off);

  // The heartbeat (refreshed at call time) must go stale first; 20ms is
  // comfortably past a few scheduler quanta, and pid_gone() (ESRCH after
  // waitpid) confirms immediately.
  ::usleep(25'000);
  EXPECT_EQ(server.reap_dead_peers(/*dead_after_ns=*/20'000'000), 1u);

  // The in-flight call completed kCallAborted — exactly, including the
  // done bit — without executing.
  EXPECT_EQ(wait->done.load(),
            ShmWait::kDoneBit | static_cast<std::uint32_t>(
                                    Status::kCallAborted));

  // Pool conservation: the lane's free list is full-length again, the
  // ring is re-armed, the peer slot and the grant are free.
  std::uint32_t len = 0;
  for (std::uint64_t off = lane->wait_free_off; off != kNullOff;
       off = seg.at<ShmWait>(off)->next_off) {
    ++len;
    ASSERT_LE(len, kShmWaitsPerLane);
  }
  EXPECT_EQ(len, kShmWaitsPerLane);
  EXPECT_EQ(lane->ring.enqueue_pos(), 0u);
  EXPECT_EQ(lane->ring.dequeue_pos(), 0u);
  auto* peers = seg.at<PeerSlot>(hdr->peers_off);
  EXPECT_EQ(peers[0].state.load(), kPeerFree);
  EXPECT_EQ(regions[0].state.load(), kRegionFree);

  EXPECT_GE(server.counters().get(obs::Counter::kHeartbeatsMissed), 1u);
  EXPECT_EQ(server.counters().get(obs::Counter::kPeerDeaths), 1u);

  // The slot is reusable: a fresh peer attaches and calls through the
  // rebuilt lane.
  std::atomic<bool> done{false};
  std::thread srv([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (server.poll() == 0) std::this_thread::yield();
    }
  });
  Peer again(name, 14);
  EXPECT_EQ(again.peer_index(), 0u);
  ppc::RegSet regs;
  regs[0] = 7;
  EXPECT_EQ(again.call(1, regs), Status::kOk);
  EXPECT_EQ(regs[0], 8u);
  done.store(true, std::memory_order_release);
  srv.join();
}

#endif  // __linux__

}  // namespace
}  // namespace hppc::shm

// The segment layout: header publication, offset links surviving a second
// mapping at a different base, ring/wait-pool initial state, and the
// segment-resident cancel pool being one pool across mappings.
#include "shm/layout.h"

#include <gtest/gtest.h>

#include <string>

#include "rt/runtime.h"
#include "rt/xcall.h"
#include "shm/segment.h"
#include "shm/transport.h"

#ifdef __linux__
#include <unistd.h>
#endif

namespace hppc::shm {
namespace {

std::string uniq_name(const char* tag) {
#ifdef __linux__
  return std::string("/hppc_") + tag + "_" + std::to_string(::getpid());
#else
  return std::string("/hppc_") + tag;
#endif
}

#ifdef __linux__

TEST(ShmLayout, HeaderPublishedAndOffsetsResolve) {
  const std::string name = uniq_name("layout");
  Server server(name);

  // Open the SAME segment a second time: a distinct mapping, almost
  // certainly at a different base — exactly what another process sees.
  // Every structure must be reachable through offsets alone.
  Segment view = Segment::open(name);
  ASSERT_TRUE(view.mapped());
  ASSERT_NE(view.base(), server.segment().base());

  const auto* hdr = reinterpret_cast<const ShmHeader*>(view.base());
  EXPECT_EQ(hdr->magic.load(), kShmMagic);
  EXPECT_EQ(hdr->version, kShmVersion);
  EXPECT_EQ(hdr->max_peers, kMaxShmPeers);
  EXPECT_EQ(hdr->ring_capacity, kShmRingCapacity);
  EXPECT_EQ(hdr->max_regions, kMaxShmRegions);
  EXPECT_EQ(hdr->total_bytes, view.size());
  EXPECT_NE(hdr->peers_off, kNullOff);
  EXPECT_NE(hdr->lanes_off, kNullOff);
  EXPECT_NE(hdr->regions_off, kNullOff);
  EXPECT_NE(hdr->cancel_flags_off, kNullOff);
  EXPECT_NE(hdr->cancel_cursor_off, kNullOff);

  // Offset round-trip through the second mapping.
  auto* peers = view.at<PeerSlot>(hdr->peers_off);
  EXPECT_EQ(view.offset_of(peers), hdr->peers_off);
  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    EXPECT_EQ(peers[p].state.load(), kPeerFree);
  }
}

TEST(ShmLayout, LanesStartEmptyWithFullWaitPools) {
  const std::string name = uniq_name("lanes");
  Server server(name);
  Segment view = Segment::open(name);
  const auto* hdr = reinterpret_cast<const ShmHeader*>(view.base());
  auto* lanes = view.at<LaneHeader>(hdr->lanes_off);

  for (std::uint32_t p = 0; p < hdr->max_peers; ++p) {
    const LaneHeader& lane = lanes[p];
    EXPECT_EQ(lane.ring.enqueue_pos(), 0u);
    EXPECT_EQ(lane.ring.dequeue_pos(), 0u);
    // Vyukov initial state: cell i's seq is i ("free, claimable at pos i").
    for (std::uint64_t i = 0; i < hdr->ring_capacity; ++i) {
      EXPECT_EQ(lane.ring.cell(i).seq.load(), i);
    }
    // The wait free list links every block exactly once.
    std::uint32_t len = 0;
    for (std::uint64_t off = lane.wait_free_off; off != kNullOff;
         off = view.at<ShmWait>(off)->next_off) {
      ++len;
      ASSERT_LE(len, hdr->waits_per_lane) << "free-list cycle";
    }
    EXPECT_EQ(len, hdr->waits_per_lane);
  }
}

TEST(ShmLayout, CancelPoolIsOnePoolAcrossMappings) {
  const std::string name = uniq_name("cancel");
  Server server(name);
  Segment view = Segment::open(name);

  // Token minted through one mapping, flag raised through the other,
  // observed through both: one pool, two address spaces' worth of bases.
  const std::uint32_t tok = shm_cancel_token_create(view);
  EXPECT_NE(tok & rt::kCellTokenLaneMask, 0u);
  EXPECT_FALSE(shm_cancel_requested(server.segment(), tok));
  shm_cancel(server.segment(), tok);
  EXPECT_TRUE(shm_cancel_requested(view, tok));
  EXPECT_TRUE(shm_cancel_requested(server.segment(), tok));
}

TEST(ShmLayout, RuntimeAdoptsSegmentCancelPool) {
  const std::string name = uniq_name("adopt");
  Server server(name);
  rt::Runtime rt(1);
  server.adopt_cancel_pool_into(rt);

  // Tokens the runtime mints now live in the segment: a raise through the
  // runtime is visible to raw segment reads (what the shm server's drain
  // does), and vice versa.
  const rt::CancelToken tok = rt.cancel_token_create();
  EXPECT_FALSE(shm_cancel_requested(server.segment(), tok));
  rt.cancel(tok);
  EXPECT_TRUE(shm_cancel_requested(server.segment(), tok));

  const std::uint32_t tok2 = shm_cancel_token_create(server.segment());
  EXPECT_FALSE(rt.cancel_requested(tok2));
  shm_cancel(server.segment(), tok2);
  EXPECT_TRUE(rt.cancel_requested(tok2));
}

TEST(ShmLayout, CellMatchesInProcessPacking) {
  // The cell ep lane must keep the in-process packing bit for bit, so one
  // set of pack/unpack helpers serves both transports.
  const std::uint32_t wire = rt::cell_pack_ep(/*ep=*/7, /*token_idx=*/99,
                                              /*bulk=*/false);
  EXPECT_EQ(rt::cell_ep(wire), 7u);
  EXPECT_EQ(rt::cell_token_idx(wire), 99u);
  EXPECT_EQ(sizeof(ShmCell), 64u);
}

#endif  // __linux__

}  // namespace
}  // namespace hppc::shm

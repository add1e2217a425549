// KvService: the host runtime's sample domain service.
#include "rt/kv_service.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <map>
#include <optional>
#include <thread>
#include <vector>

namespace hppc::rt {
namespace {

TEST(KvService, PutGetRoundTrip) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  ASSERT_EQ(kv.put(slot, 1, 42, 4242), Status::kOk);
  auto v = kv.get(slot, 1, 42);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 4242u);
}

TEST(KvService, GetMissing) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  EXPECT_FALSE(kv.get(slot, 1, 777).has_value());
}

TEST(KvService, OverwriteKeepsOneEntry) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  kv.put(slot, 1, 5, 100);
  kv.put(slot, 1, 5, 200);
  EXPECT_EQ(*kv.get(slot, 1, 5), 200u);
  ppc::RegSet r;
  ppc::set_op(r, kKvSize);
  ASSERT_EQ(rt.call(slot, 1, kv.ep(), r), Status::kOk);
  EXPECT_EQ(r[0], 1u);
}

TEST(KvService, EraseRequiresOwner) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService kv(rt);
  kv.put(slot, /*caller=*/7, 1, 10);
  EXPECT_EQ(kv.erase(slot, /*caller=*/8, 1), Status::kPermissionDenied);
  EXPECT_TRUE(kv.get(slot, 8, 1).has_value());
  EXPECT_EQ(kv.erase(slot, 7, 1), Status::kOk);
  EXPECT_FALSE(kv.get(slot, 7, 1).has_value());
}

TEST(KvService, ProbeChainSurvivesMiddleErase) {
  // Colliding keys form a probe chain; erasing the middle one must keep
  // the tail reachable (the backward-shift correctness case).
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService::Config cfg;
  cfg.shard_capacity = 8;
  cfg.enforce_ownership = false;
  KvService kv(rt, cfg);
  // Keys 0, 8, 16 all hash to slot 0 in an 8-entry shard.
  kv.put(slot, 1, 0, 100);
  kv.put(slot, 1, 8, 108);
  kv.put(slot, 1, 16, 116);
  ASSERT_EQ(kv.erase(slot, 1, 8), Status::kOk);
  EXPECT_EQ(*kv.get(slot, 1, 0), 100u);
  auto tail = kv.get(slot, 1, 16);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(*tail, 116u);
}

TEST(KvService, FillsToCapacityThenRejects) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService::Config cfg;
  cfg.shard_capacity = 4;
  KvService kv(rt, cfg);
  for (Word k = 0; k < 4; ++k) {
    ASSERT_EQ(kv.put(slot, 1, k, k), Status::kOk);
  }
  EXPECT_EQ(kv.put(slot, 1, 99, 99), Status::kOutOfResources);
  // Still consistent.
  for (Word k = 0; k < 4; ++k) EXPECT_EQ(*kv.get(slot, 1, k), k);
}

TEST(KvService, RandomizedAgainstReferenceMap) {
  Runtime rt(1);
  const SlotId slot = rt.register_thread();
  KvService::Config cfg;
  cfg.shard_capacity = 64;
  cfg.enforce_ownership = false;
  KvService kv(rt, cfg);
  std::map<Word, Word> ref;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 4000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const Word key = static_cast<Word>((seed >> 16) % 48);
    const Word val = static_cast<Word>(seed >> 40);
    switch ((seed >> 8) % 3) {
      case 0:
        ASSERT_EQ(kv.put(slot, 1, key, val), Status::kOk);
        ref[key] = val;
        break;
      case 1: {
        auto got = kv.get(slot, 1, key);
        auto it = ref.find(key);
        ASSERT_EQ(got.has_value(), it != ref.end()) << "key " << key;
        if (got) ASSERT_EQ(*got, it->second);
        break;
      }
      case 2: {
        const Status s = kv.erase(slot, 1, key);
        ASSERT_EQ(s == Status::kOk, ref.erase(key) == 1) << "key " << key;
        break;
      }
    }
  }
}

TEST(KvService, RemoteGetReachesAnotherSlotsShard) {
  // The owner slot is never registered: call_remote direct-executes the
  // get against its shard on this thread — zero allocations, no helper
  // thread needed.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  ASSERT_EQ(kv.put_remote(me, /*owner_slot=*/1, /*caller=*/1, 10, 111),
            Status::kOk);
  EXPECT_FALSE(kv.get(me, 1, 10).has_value());  // not in MY shard
  auto v = kv.get_remote(me, 1, 1, 10);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 111u);
  EXPECT_FALSE(kv.get_remote(me, 1, 1, 999).has_value());
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(KvService, RemoteGetAgainstServingOwner) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  std::atomic<bool> stop{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    rt.serve(s, stop);
  });
  for (Word k = 0; k < 64; ++k) {
    ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
  }
  for (Word k = 0; k < 64; ++k) {
    auto v = kv.get_remote(me, 1, 1, k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k * 10);
  }
  stop.store(true, std::memory_order_release);
  owner.join();
  // The shard now lives on slot 1 regardless of which path executed.
  EXPECT_FALSE(kv.get(me, 1, 0).has_value());
}

TEST(KvService, MultiPutMultiGetRideBatchedXcalls) {
  // 50 puts then 60 gets (10 of them misses) against a busy-polling
  // owner: every chunk must ride the vectored ring path, so the caller's
  // own counters show coalesced doorbells — ceil(50/16) + ceil(60/16)
  // batch posts carrying one cell per key — and zero mailbox traffic.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr std::size_t kPuts = 50;
  constexpr std::size_t kGets = 60;
  std::vector<Word> keys(kPuts), values(kPuts);
  for (std::size_t i = 0; i < kPuts; ++i) {
    keys[i] = 1000 + i;
    values[i] = 10 * i + 1;
  }
  const auto before = rt.slot_snapshot(me);
  ASSERT_EQ(kv.multi_put(me, /*owner_slot=*/1, /*caller=*/1, keys, values),
            Status::kOk);

  std::vector<Word> probe(kGets);
  for (std::size_t i = 0; i < kGets; ++i) probe[i] = 1000 + i;  // last 10 miss
  std::vector<std::optional<Word>> out(kGets);
  EXPECT_EQ(kv.multi_get(me, 1, 1, probe, out), kPuts);
  const auto delta = rt.slot_snapshot(me).delta(before);
  stop.store(true, std::memory_order_release);
  owner.join();

  for (std::size_t i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(out[i].has_value()) << "key " << probe[i];
    EXPECT_EQ(*out[i], values[i]);
  }
  for (std::size_t i = kPuts; i < kGets; ++i) {
    EXPECT_FALSE(out[i].has_value()) << "key " << probe[i];
  }
  EXPECT_EQ(delta.get(obs::Counter::kXcallBatchPosts), 4u + 4u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallCellsPerBatch), kPuts + kGets);
  EXPECT_EQ(delta.get(obs::Counter::kXcallDirect), 0u);
  EXPECT_EQ(rt.shared_counters().get(obs::Counter::kMailboxAllocs), 0u);
}

TEST(KvService, MultiGetAnswersHotKeysLocallyAndBatchesOnlyMisses) {
  // With the hot set on, multi_get probes the owner's record first: hot
  // keys never touch the ring, so a probe list that is half hot costs
  // doorbells only for the cold half.
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  // Two hot keys, direct-executed on the unregistered owner's shard;
  // write-through admits them into its record (the poll finds nothing).
  ASSERT_EQ(kv.put_remote(me, 1, 1, 5, 500), Status::kOk);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 6, 600), Status::kOk);
  rt.poll(me);

  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();

  const std::array<Word, 4> probe = {5, 6, 7, 8};  // 2 hot, 2 misses
  std::array<std::optional<Word>, 4> out;
  const auto before = rt.slot_snapshot(me);
  EXPECT_EQ(kv.multi_get(me, 1, 1, probe, out), 2u);
  const auto delta = rt.slot_snapshot(me).delta(before);
  stop.store(true, std::memory_order_release);
  owner.join();

  EXPECT_EQ(*out[0], 500u);
  EXPECT_EQ(*out[1], 600u);
  EXPECT_FALSE(out[2].has_value());
  EXPECT_FALSE(out[3].has_value());
  // One doorbell, two cells: only the cold keys rode the ring.
  EXPECT_EQ(delta.get(obs::Counter::kXcallBatchPosts), 1u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallCellsPerBatch), 2u);
  EXPECT_GT(delta.get(obs::Counter::kReplReads), 0u);
}

TEST(KvService, ReplicatedHotGetServesLocally) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  // The put direct-executes on slot 1's shard (gate steal) and
  // write-through admits the key to slot 1's hot-set record.
  ASSERT_EQ(kv.put_remote(me, /*owner_slot=*/1, /*caller=*/1, 10, 111),
            Status::kOk);
  rt.poll(me);  // nothing to drain: the owner published in place

  const auto before = rt.slot_snapshot(me);
  auto v = kv.get_remote(me, 1, 1, 10);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 111u);
  const auto delta = rt.slot_snapshot(me).delta(before);
  // Served entirely from the owner's record: no xcall, no lock.
  EXPECT_EQ(delta.get(obs::Counter::kCallsRemote), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kXcallPosts), 0u);
  EXPECT_EQ(delta.get(obs::Counter::kLocksTaken), 0u);
  EXPECT_GT(delta.get(obs::Counter::kReplReads), 0u);
}

TEST(KvService, ReplicatedHotWriteThroughUpdates) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 111), Status::kOk);
  rt.poll(me);
  EXPECT_EQ(*kv.get_remote(me, 1, 1, 10), 111u);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 222), Status::kOk);
  rt.poll(me);
  EXPECT_EQ(*kv.get_remote(me, 1, 1, 10), 222u);
}

TEST(KvService, ReplicatedHotEraseFallsBackToOwner) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  ASSERT_EQ(kv.put_remote(me, 1, 1, 10, 111), Status::kOk);
  rt.poll(me);
  ASSERT_TRUE(kv.get_remote(me, 1, 1, 10).has_value());

  ppc::RegSet r;
  r[0] = 10;
  ppc::set_op(r, kKvErase);
  ASSERT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r), Status::kOk);
  rt.poll(me);  // nothing to drain: the erase published in place
  // Hot miss now falls through to the owner's shard, which says gone.
  EXPECT_FALSE(kv.get_remote(me, 1, 1, 10).has_value());
}

TEST(KvService, ReplicatedHotMissUsesXcallPath) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 2;  // tiny: keys beyond it never admitted
  KvService kv(rt, cfg);
  for (Word k = 0; k < 6; ++k) {
    ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
  }
  rt.poll(me);
  // Every key still readable — admitted ones from the record, the rest
  // through the owner's xcall channel.
  for (Word k = 0; k < 6; ++k) {
    auto v = kv.get_remote(me, 1, 1, k);
    ASSERT_TRUE(v.has_value()) << "key " << k;
    EXPECT_EQ(*v, k * 10);
  }
}

/// Runs `body` against a busy-polling owner on slot 1 whose KvService has
/// a full two-entry hot set: keys 1 and 2 (values 10 and 20) are admitted
/// and the caller reads key 2 from the owner's record.
template <typename Body>
void with_full_hot_set(Body body) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 2;
  KvService kv(rt, cfg);
  std::atomic<bool> stop{false};
  std::atomic<bool> up{false};
  std::thread owner([&] {
    const SlotId s = rt.register_thread();
    up.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      if (rt.poll(s) == 0) std::this_thread::yield();
    }
  });
  while (!up.load(std::memory_order_acquire)) std::this_thread::yield();
  [&] {  // a failed ASSERT returns here, so the owner is still joined
    ASSERT_EQ(kv.put_remote(me, 1, 1, 1, 10), Status::kOk);
    ASSERT_EQ(kv.put_remote(me, 1, 1, 2, 20), Status::kOk);
    rt.poll(me);  // nothing to drain: admission published in place
    ASSERT_EQ(kv.get_remote(me, 1, 1, 2), std::optional<Word>(20));
    body(rt, kv, me);
  }();
  stop.store(true, std::memory_order_release);
  owner.join();
}

TEST(KvService, UnchangedHotSetWritesPublishNothing) {
  // Puts the full hot set never admits, same-value rewrites of admitted
  // keys and the erase of a key it does not hold change nothing in the
  // owner's record: none publishes or takes a lock, and none leaves a
  // cell in the caller's ring.
  with_full_hot_set([](Runtime& rt, KvService& kv, SlotId me) {
    const auto owner_before = rt.slot_snapshot(1);
    const auto me_before = rt.slot_snapshot(me);
    for (Word k = 3; k < 6; ++k) {
      ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
    }
    ASSERT_EQ(kv.put_remote(me, 1, 1, 1, 10), Status::kOk);
    ASSERT_EQ(kv.put_remote(me, 1, 1, 2, 20), Status::kOk);
    ppc::RegSet r;
    r[0] = 3;
    ppc::set_op(r, kKvErase);
    ASSERT_EQ(rt.call_remote(me, 1, 1, kv.ep(), r), Status::kOk);
    EXPECT_EQ(rt.poll(me), 0u);  // no cell to serve

    const auto owner = rt.slot_snapshot(1).delta(owner_before);
    const auto mine = rt.slot_snapshot(me).delta(me_before);
    EXPECT_EQ(owner.get(obs::Counter::kReplInvalidations), 0u);
    EXPECT_EQ(owner.get(obs::Counter::kLocksTaken), 0u);  // no master mutex
    EXPECT_EQ(mine.get(obs::Counter::kXcallCellsDrained), 0u);
    EXPECT_EQ(mine.get(obs::Counter::kLocksTaken), 0u);
    EXPECT_EQ(kv.get_remote(me, 1, 1, 1), std::optional<Word>(10));
    EXPECT_EQ(kv.get_remote(me, 1, 1, 4), std::optional<Word>(40));
    EXPECT_FALSE(kv.get_remote(me, 1, 1, 3).has_value());
  });
}

TEST(KvService, ChangedHotValueStillPublishesToEverySlot) {
  // The regression guard: changing an admitted key's value publishes the
  // owner's record once, inside the put, and every slot then reads the
  // new value from it — no refresh cell to drain first.
  with_full_hot_set([](Runtime& rt, KvService& kv, SlotId me) {
    const auto owner_before = rt.slot_snapshot(1);
    const auto me_before = rt.slot_snapshot(me);
    ASSERT_EQ(kv.put_remote(me, 1, 1, 1, 11), Status::kOk);
    EXPECT_EQ(rt.poll(me), 0u);  // no refresh cell
    const auto owner = rt.slot_snapshot(1).delta(owner_before);
    const auto mine = rt.slot_snapshot(me).delta(me_before);
    EXPECT_EQ(owner.get(obs::Counter::kReplInvalidations), 1u);
    EXPECT_EQ(mine.get(obs::Counter::kXcallCellsDrained), 0u);

    // Served from the record: the caller posts nothing, and the owner
    // (where calls_remote is booked) executes nothing.
    const auto before_get = rt.slot_snapshot(me);
    const auto owner_before_get = rt.slot_snapshot(1);
    EXPECT_EQ(kv.get_remote(me, 1, 1, 1), std::optional<Word>(11));
    const auto get = rt.slot_snapshot(me).delta(before_get);
    EXPECT_EQ(get.get(obs::Counter::kXcallPosts), 0u);
    EXPECT_EQ(rt.slot_snapshot(1).delta(owner_before_get).get(
                  obs::Counter::kCallsRemote),
              0u);
  });
}

TEST(KvService, HotSetElectsTheHottestKeysByFrequency) {
  // The full set holds two cold keys admitted write-through. A skewed get
  // stream (keys 7 and 8 draw 20% each, fifty others 1.2% each) runs for
  // four epochs' worth of gets: the owner's first election admits 7 and 8,
  // which then answer from its record without a call, while the evicted
  // cold member goes back to the owner.
  with_full_hot_set([](Runtime& rt, KvService& kv, SlotId me) {
    for (Word k = 7; k < 60; ++k) {
      ASSERT_EQ(kv.put_remote(me, 1, 1, k, k * 10), Status::kOk);
    }
    for (std::uint32_t i = 0; i < 4 * kKvHotEpochOps; ++i) {
      const Word k = i % 5 == 0 ? 7 : i % 5 == 1 ? 8 : 10 + i % 50;
      ASSERT_EQ(kv.get_remote(me, 1, 1, k), std::optional<Word>(k * 10));
    }
    const auto owner_before = rt.slot_snapshot(1);
    const auto me_before = rt.slot_snapshot(me);
    EXPECT_EQ(kv.get_remote(me, 1, 1, 7), std::optional<Word>(70));
    EXPECT_EQ(kv.get_remote(me, 1, 1, 8), std::optional<Word>(80));
    EXPECT_EQ(rt.slot_snapshot(1).delta(owner_before).get(
                  obs::Counter::kCallsRemote),
              0u);
    EXPECT_EQ(rt.slot_snapshot(me).delta(me_before).get(
                  obs::Counter::kXcallPosts),
              0u);

    const auto evicted_before = rt.slot_snapshot(1);
    EXPECT_EQ(kv.get_remote(me, 1, 1, 1), std::optional<Word>(10));
    EXPECT_EQ(rt.slot_snapshot(1).delta(evicted_before).get(
                  obs::Counter::kCallsRemote),
              1u);
  });
}

TEST(KvService, MemberPutIsReadFromAnotherSlotWithoutAPoll) {
  // The owner publishes inside the put's handler, before it replies, so a
  // reader on any other slot sees the new value at once: nobody polls,
  // and the read makes no call.
  Runtime rt(3);
  const SlotId me = rt.register_thread();
  constexpr SlotId kOwner = 2;  // never registered: puts direct-execute
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 8;
  KvService kv(rt, cfg);
  ASSERT_EQ(kv.put_remote(me, kOwner, 1, 10, 111), Status::kOk);  // admitted
  ASSERT_EQ(kv.put_remote(me, kOwner, 1, 10, 222), Status::kOk);

  const auto owner_before = rt.slot_snapshot(kOwner);
  std::optional<Word> seen;
  SlotId reader_slot = kOwner;
  std::thread reader([&] {
    reader_slot = rt.register_thread();
    seen = kv.get_remote(reader_slot, kOwner, 1, 10);
  });
  reader.join();
  EXPECT_NE(reader_slot, kOwner);
  EXPECT_EQ(seen, std::optional<Word>(222));
  EXPECT_EQ(rt.slot_snapshot(kOwner).delta(owner_before).get(
                obs::Counter::kCallsRemote),
            0u);
}

TEST(KvService, GateThievesPublishingMembersNeverTearAReader) {
  // Two threads steal an idle owner's gate to put and erase its hot keys;
  // each erase moves the last member into the hole, so the key at a given
  // record index keeps changing. A third thread reads those keys: every
  // value it gets back — from the record or from the owner — must carry
  // the tag of the key it asked for. Under TSan this also shows the
  // single-writer rule holds across thieves.
  Runtime rt(4);
  constexpr SlotId kOwner = 3;  // only three threads register
  KvService::Config cfg;
  cfg.replicated_hot_capacity = 4;
  cfg.enforce_ownership = false;
  KvService kv(rt, cfg);
  const auto tag = [](Word k) { return (k * 0x9E37u) & 0xFFFFu; };
  const auto make = [&](Word k, Word v) { return (tag(k) << 16) | (v & 0xFFFFu); };

  // Gate contention can leave one side backing off while the other runs
  // alone, so the thieves pace themselves by the reader's rounds: reads
  // and writes really interleave.
  std::atomic<int> rounds{0};
  std::atomic<int> writers_done{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> record_hits{0};
  auto writer = [&](Word first) {
    const SlotId me = rt.register_thread();
    for (Word i = 1; i <= 3000; ++i) {
      while (rounds.load(std::memory_order_acquire) < static_cast<int>(i / 4)) {
        std::this_thread::yield();
      }
      const Word k = first + (i & 1u);
      kv.put_remote(me, kOwner, 1, k, make(k, i));
      if (i % 3 == 0) {
        RegSet r;
        r[0] = k;
        ppc::set_op(r, kKvErase);
        rt.call_remote(me, kOwner, 1, kv.ep(), r);
      }
    }
    writers_done.fetch_add(1, std::memory_order_release);
  };
  std::thread a(writer, Word{1});
  std::thread b(writer, Word{3});
  std::thread reader([&] {
    const SlotId me = rt.register_thread();
    // A call shows on the reader's own block: a ring post, or the two
    // shared RMWs of a gate steal. A read that books neither came from
    // the owner's record.
    const obs::SlotCounters& mine = rt.counters(me);
    const auto calls = [&] {
      return mine.get(obs::Counter::kXcallPosts) +
             mine.get(obs::Counter::kSharedLinesTouched);
    };
    while (writers_done.load(std::memory_order_acquire) < 2) {
      for (Word k = 1; k <= 4; ++k) {
        const std::uint64_t c0 = calls();
        const std::optional<Word> v = kv.get_remote(me, kOwner, 1, k);
        if (v && (*v >> 16) != tag(k)) torn.fetch_add(1);
        if (v && calls() == c0) record_hits.fetch_add(1);
      }
      rounds.fetch_add(1, std::memory_order_release);
    }
  });
  a.join();
  b.join();
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(record_hits.load(), 0u);
}

TEST(KvService, VectoredOpsCorrectAcrossChunkSizes) {
  // The chunk stride is a performance constant, never a semantics knob: a
  // 37-key burst straddles two full kKvMultiOpChunk chunks and a partial
  // tail, and must land identically to 37 single ops.
  static_assert(37 % kKvMultiOpChunk != 0 && 37 > 2 * kKvMultiOpChunk);
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  std::vector<Word> keys(37), values(37);
  for (Word i = 0; i < 37; ++i) {
    keys[i] = i;
    values[i] = 1000 + i;
  }
  ASSERT_EQ(kv.multi_put(me, 1, 1, keys, values), Status::kOk);
  std::vector<std::optional<Word>> out(37);
  EXPECT_EQ(kv.multi_get(me, 1, 1, keys, out), 37u);
  for (Word i = 0; i < 37; ++i) {
    ASSERT_TRUE(out[i].has_value()) << "key " << i;
    EXPECT_EQ(*out[i], 1000 + i);
  }
}

TEST(KvService, ShardsArePerSlot) {
  Runtime rt(2);
  const SlotId me = rt.register_thread();
  KvService kv(rt);
  kv.put(me, 1, 10, 111);

  std::optional<Word> other_sees;
  std::thread t([&] {
    const SlotId other = rt.register_thread();
    other_sees = kv.get(other, 1, 10);
  });
  t.join();
  // Different slot, different shard: the key is not there.
  EXPECT_FALSE(other_sees.has_value());
  EXPECT_TRUE(kv.get(me, 1, 10).has_value());
  EXPECT_EQ(kv.initialized_workers(), 2u);  // one init per slot's worker
}

}  // namespace
}  // namespace hppc::rt

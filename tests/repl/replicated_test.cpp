// repl::Replicated<T>: the host's single-writer seqlock record, written by
// one owner and read in place by any thread.
#include "repl/replicated.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>

#include "obs/counters.h"

namespace hppc::repl {
namespace {

using obs::Counter;

TEST(Replicated, InitialValueOnEverySlot) {
  // Every reader, whatever its counter block, sees the initial value of
  // the one record; nothing has been published yet.
  Replicated<std::uint64_t> val(7);
  std::array<obs::SlotCounters, 4> c;
  for (auto& block : c) EXPECT_EQ(val.read(&block), std::optional<std::uint64_t>(7));
  EXPECT_EQ(val.read(), std::optional<std::uint64_t>(7));
  EXPECT_EQ(val.version(), 0u);
}

TEST(Replicated, InlineWritePublishesEveryReplica) {
  // The owner's write publishes inline: the next read from any thread
  // sees it, with no propagation step in between.
  Replicated<std::uint64_t> val(1);
  EXPECT_TRUE(val.write(nullptr, [](std::uint64_t& v) { v = 9; }));
  std::uint64_t seen = 0;
  std::thread other([&] { seen = val.read().value_or(0); });
  other.join();
  EXPECT_EQ(seen, 9u);
  EXPECT_EQ(val.read(), std::optional<std::uint64_t>(9));
  EXPECT_EQ(val.version(), 1u);
}

TEST(Replicated, CountersBookReadsAndWrites) {
  Replicated<std::uint64_t> val(0);
  obs::SlotCounters reader, owner;

  EXPECT_EQ(val.read(&reader), std::optional<std::uint64_t>(0));
  EXPECT_EQ(reader.get(Counter::kReplReads), 1u);
  EXPECT_EQ(reader.get(Counter::kReplSeqRetries), 0u);
  EXPECT_EQ(reader.get(Counter::kLocksTaken), 0u);  // the read is lock-free
  EXPECT_EQ(reader.get(Counter::kSharedLinesTouched), 0u);

  val.write(&owner, [](std::uint64_t& v) { v = 5; });
  EXPECT_EQ(owner.get(Counter::kReplInvalidations), 1u);  // one publish
  EXPECT_EQ(owner.get(Counter::kLocksTaken), 0u);  // and no mutex
  EXPECT_EQ(reader.get(Counter::kReplInvalidations), 0u);
}

TEST(Replicated, RetryBoundReportsAMiss) {
  // Park the record mid-publish (odd sequence word): the reader must not
  // spin forever — after kMaxSeqRetries it reports a miss, and the caller
  // answers some other way. No lock is taken.
  Replicated<std::uint64_t> val(7);
  obs::SlotCounters c;

  ReplicatedTestAccess::begin_stall(val);
  EXPECT_EQ(val.read(&c), std::nullopt);
  EXPECT_EQ(c.get(Counter::kReplFallbackLocked), 1u);
  EXPECT_EQ(c.get(Counter::kLocksTaken), 0u);
  EXPECT_EQ(c.get(Counter::kReplSeqRetries),
            static_cast<std::uint64_t>(kMaxSeqRetries));
  EXPECT_EQ(c.get(Counter::kReplReads), 1u);

  ReplicatedTestAccess::end_stall(val);
  EXPECT_EQ(val.read(&c), std::optional<std::uint64_t>(7));
  EXPECT_EQ(c.get(Counter::kReplFallbackLocked), 1u);
  EXPECT_EQ(c.get(Counter::kReplReads), 2u);
}

struct Pair {
  std::uint64_t a = 0;
  std::uint64_t b = ~std::uint64_t{0};  // invariant: b == ~a, always
};

TEST(Replicated, TornReadsNeverObserved) {
  // The owner hammers {a, ~a} pairs while a reader validates the invariant
  // on every consistent read: any torn copy (half old, half new) breaks
  // it. Run under TSan this also proves the seqlock protocol is
  // data-race-free.
  Replicated<Pair> val;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 20000; ++i) {
      val.write(nullptr, [i](Pair& p) {
        p.a = i;
        p.b = ~i;
      });
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t reads = 0;
  while (!done.load(std::memory_order_acquire)) {
    const std::optional<Pair> p = val.read();
    if (!p) continue;  // met a publish eight times in a row: a miss
    ASSERT_EQ(p->b, ~p->a) << "torn read after " << reads << " reads";
    ++reads;
  }
  writer.join();
  const std::optional<Pair> last = val.read();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->a, 20000u);
  EXPECT_EQ(last->b, ~std::uint64_t{20000});
  EXPECT_EQ(val.version(), 20000u);
}

TEST(Replicated, UnchangedWritePublishesNothing) {
  // A mutate that leaves the record's bytes as they were returns without
  // touching the sequence word: no version bump, no invalidation.
  Replicated<std::uint64_t> val(1);
  obs::SlotCounters c;
  ASSERT_TRUE(val.write(&c, [](std::uint64_t& v) { v = 2; }));
  const auto before = c.snapshot();

  EXPECT_FALSE(val.write(&c, [](std::uint64_t& v) { v = 2; }));
  EXPECT_FALSE(val.write(&c, [](std::uint64_t&) {}));
  EXPECT_EQ(val.version(), 1u);
  EXPECT_EQ(val.read(), std::optional<std::uint64_t>(2));
  const auto delta = c.snapshot().delta(before);
  EXPECT_EQ(delta.get(Counter::kReplInvalidations), 0u);
  EXPECT_EQ(delta.get(Counter::kLocksTaken), 0u);
}

TEST(Replicated, ChangedWritesPublishEverySlot) {
  // Every write that changes the record publishes exactly once, and
  // readers on every slot see the latest value.
  Replicated<std::uint64_t> val(0);
  obs::SlotCounters owner;
  std::array<obs::SlotCounters, 3> readers;
  EXPECT_TRUE(val.write(&owner, [](std::uint64_t& v) { v = 5; }));
  EXPECT_TRUE(val.write(&owner, [](std::uint64_t& v) { v = 6; }));
  EXPECT_EQ(val.version(), 2u);
  for (auto& r : readers) {
    EXPECT_EQ(val.read(&r), std::optional<std::uint64_t>(6));
  }
  EXPECT_EQ(owner.get(Counter::kReplInvalidations), 2u);
  EXPECT_EQ(owner.get(Counter::kLocksTaken), 0u);
}

}  // namespace
}  // namespace hppc::repl

// Replicated read-mostly objects on the host: a cache-line-aligned,
// seqlock-versioned record of a small trivially-copyable T that exactly one
// owner writes and any thread reads in place.
//
// The paper removes locks from the IPC *facility*; Figure 3 then shows the
// next bottleneck is any lock the *service* takes — the per-file spinlock
// serializes ~16 us of every 66 us GetLength call and the single-file curve
// saturates at four processors. For read-mostly service state the remedy is
// the facility's own discipline: one writer, no lock, and readers that
// validate a sequence word instead of taking anything. On a cache-coherent
// host a reader's copy of the record's lines stays valid in its cache until
// the owner changes them, so a warm read makes no remote reference (Golab's
// point about spinning on a coherent cached location). Hector had no
// coherence, so its per-CPU replicas stay in the simulator
// (repl::SimReplicated), where they model exactly that lack.
//
// Read protocol (classic seqlock with TSan-clean atomics):
//   s0 = seq.load(acquire); if odd, the owner is mid-publish -> retry
//   copy the payload words with relaxed atomic loads
//   fence(acquire); if seq.load(relaxed) == s0 the copy is consistent
// After kMaxSeqRetries failed attempts read() reports a miss (booked as
// repl_fallback_locked) rather than spin, so an owner stalled mid-publish
// can never wedge readers: the caller answers some other way (KvService
// takes the owner's call, which is always correct).
//
// Write protocol: one writer at a time, and that serialization is the
// caller's contract (KvService: the thread holding the owner's slot — its
// poller or a gate thief — the same rule its shard relies on). write()
// applies the mutate to a copy of the record and publishes only if the
// bytes changed: no mutex, no version fan-out, one publish per change.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/cacheline.h"
#include "common/cpu_relax.h"
#include "obs/counters.h"

namespace hppc::repl {

/// Seqlock read attempts before a reader reports a miss. Retries only
/// happen while the owner is mid-publish, so the bound is generous.
inline constexpr int kMaxSeqRetries = 8;

struct ReplicatedTestAccess;  // white-box test hook (stall the record)

template <typename T>
class alignas(kHostCacheLine) Replicated {
  static_assert(std::is_trivially_copyable_v<T>,
                "records are copied word-by-word");
  static_assert(sizeof(T) <= 256, "replicate small records, not buffers");

 public:
  /// Trivially destructible, so it can live in a mem::Arena on its
  /// owner's node (Arena::create<Replicated<T>>(node, initial)).
  explicit Replicated(const T& initial = T{}) {
    const auto w = to_words(initial);
    for (std::size_t i = 0; i < kWords; ++i) {
      words_[i].store(w[i], std::memory_order_relaxed);
    }
  }

  Replicated(const Replicated&) = delete;
  Replicated& operator=(const Replicated&) = delete;

  /// Lock-free read from any thread: a consistent copy, or nullopt when
  /// the retry bound ran out while the owner was mid-publish. `c` is the
  /// reading thread's own counter block (repl_reads / repl_seq_retries /
  /// repl_fallback_locked book there), or null.
  std::optional<T> read(obs::SlotCounters* c = nullptr) const {
    std::uint64_t retries = 0;
    for (int attempt = 0; attempt < kMaxSeqRetries; ++attempt) {
      const std::uint32_t s0 = seq_.load(std::memory_order_acquire);
      if (s0 & 1u) {  // mid-publish
        ++retries;
        cpu_relax();
        continue;
      }
      const T out = load_words();
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == s0) {
        if (c != nullptr) {
          c->inc(obs::Counter::kReplReads);
          if (retries != 0) c->inc(obs::Counter::kReplSeqRetries, retries);
        }
        return out;
      }
      ++retries;
    }
    if (c != nullptr) {
      c->inc(obs::Counter::kReplReads);
      c->inc(obs::Counter::kReplSeqRetries, retries);
      c->inc(obs::Counter::kReplFallbackLocked);
    }
    return std::nullopt;
  }

  /// Owner-only write: mutate a copy of the record and publish it if its
  /// bytes changed (one repl_invalidations on the owner's block `c`).
  /// Returns whether it published.
  template <typename Fn>
    requires requires(Fn f, T& t) { f(t); }
  bool write(obs::SlotCounters* c, Fn&& mutate) {
    const T before = load_words();  // the only writer: no seqlock needed
    T after = before;
    mutate(after);
    if (std::memcmp(&before, &after, sizeof(T)) == 0) return false;
    store_words(after);
    if (c != nullptr) c->inc(obs::Counter::kReplInvalidations);
    return true;
  }

  /// Publishes so far. Relaxed: use for staleness probes.
  std::uint64_t version() const {
    return seq_.load(std::memory_order_relaxed) / 2;
  }

 private:
  friend struct ReplicatedTestAccess;

  static constexpr std::size_t kWords = (sizeof(T) + 7) / 8;

  static std::array<std::uint64_t, kWords> to_words(const T& value) {
    std::array<std::uint64_t, kWords> w{};
    std::memcpy(w.data(), &value, sizeof(T));
    return w;
  }

  T load_words() const {
    std::array<std::uint64_t, kWords> w;
    for (std::size_t i = 0; i < kWords; ++i) {
      w[i] = words_[i].load(std::memory_order_relaxed);
    }
    T out;
    // T is trivially copyable (asserted above); only its default member
    // initializers make GCC's -Wclass-memaccess call it non-trivial.
    std::memcpy(static_cast<void*>(&out), w.data(), sizeof(T));
    return out;
  }

  /// Seqlock publish: the single writer moves `seq_` odd, stores the
  /// words, and moves it even again; readers key off the parity.
  void store_words(const T& value) {
    const auto w = to_words(value);
    const std::uint32_t s = seq_.load(std::memory_order_relaxed);
    seq_.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i) {
      words_[i].store(w[i], std::memory_order_relaxed);
    }
    seq_.store(s + 2, std::memory_order_release);
  }

  std::atomic<std::uint32_t> seq_{0};
  std::array<std::atomic<std::uint64_t>, kWords> words_{};
};

/// White-box hook for the retry-bound tests: parks the record in the
/// mid-publish (odd sequence) state and releases it again. Test-only.
struct ReplicatedTestAccess {
  template <typename T>
  static void begin_stall(Replicated<T>& r) {
    r.seq_.fetch_add(1, std::memory_order_release);
  }
  template <typename T>
  static void end_stall(Replicated<T>& r) {
    r.seq_.fetch_add(1, std::memory_order_release);
  }
};

}  // namespace hppc::repl

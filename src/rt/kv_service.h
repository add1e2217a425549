// A sample domain service on the host runtime: a fixed-capacity key/value
// store exposed through the PPC-style register interface. Demonstrates how
// a real service composes the runtime's pieces — opcode dispatch, the
// worker-initialization protocol (per-worker scratch buffers), caller
// authentication by program token (§4.1), and per-slot sharding so the
// fast path stays shared-nothing.
//
// Keys and values are single words (the register-passing discipline: bulk
// data would go through a copy interface, §4.2). Each slot owns an
// independent shard; cross-slot access goes through the owner's xcall
// channel (Runtime::call_remote — direct execution on an idle owner, a
// bounded ring cell otherwise), mirroring the cross-processor rule of the
// simulated kernel without the allocation the old post() path paid.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.h"
#include "obs/trace.h"
#include "repl/replicated.h"
#include "rt/dispatch.h"
#include "rt/runtime.h"

namespace hppc::rt {

enum KvOp : Word {
  kKvPut = 1,     // w[0]=key, w[1]=value
  kKvGet = 2,     // w[0]=key            -> w[1]=value
  kKvErase = 3,   // w[0]=key (owner of the key's entry only)
  kKvSize = 4,    // -> w[0]=entries in this slot's shard
  kKvOwnerOf = 5, // w[0]=key            -> w[1]=owning program
};

/// Fixed per-owner capacity of the hot set. Sized so HotSet stays within
/// the Replicated<T> small-payload bound (256 bytes); the config capacity
/// is clamped to this.
inline constexpr std::size_t kKvHotSetCapacity = 8;

/// Hot-set election period: once per this many ops an owner serves, its
/// hottest non-members may displace its weakest members (one publish).
inline constexpr std::uint32_t kKvHotEpochOps = 4096;

/// Chunk stride of the vectored stubs (multi_put / multi_get): one chunk =
/// one stack RegSet array, one batched submission (one claim CAS + one
/// doorbell).
inline constexpr std::size_t kKvMultiOpChunk = 16;
static_assert(kKvMultiOpChunk <= XcallRing::kCapacity,
              "one chunk is one batched submission into one ring");

struct KvServiceConfig {
  std::string name = "kv";
  std::size_t shard_capacity = 1024;
  /// When set, only the creating program may erase an entry.
  bool enforce_ownership = true;
  /// Entries per owner slot in its hot set: a repl::Replicated record
  /// that only the owner writes and every caller reads in place.
  /// get_remote/multi_get answer a member from it with no lock and no
  /// xcall, and take the owner's channel only on a miss — the same
  /// un-saturation the file server's replicated record block buys on the
  /// simulated facility. Puts admit write-through while there is room;
  /// after that the owner counts the keys it serves and re-elects its
  /// hottest once per kKvHotEpochOps. 0 disables; clamped to
  /// kKvHotSetCapacity.
  std::size_t replicated_hot_capacity = 0;
};

class KvService {
 public:
  using Config = KvServiceConfig;

  KvService(Runtime& rt, KvServiceConfig cfg = {})
      : rt_(rt),
        cfg_(std::move(cfg)),
        shards_(rt.slots()) {
    for (auto& shard : shards_) {
      shard->entries.resize(cfg_.shard_capacity);
    }
    if (cfg_.replicated_hot_capacity > 0) {
      hot_cap_ = static_cast<std::uint32_t>(
          std::min(cfg_.replicated_hot_capacity, kKvHotSetCapacity));
      // Each owner's record lives in the runtime arena on its node.
      for (SlotId s = 0; s < rt_.slots(); ++s) {
        hot_.push_back(rt_.arena().create<repl::Replicated<HotSet>>(
            rt_.node_of_slot(s)));
        counters_.push_back(&rt_.slot_counters(s));
      }
    }
    ep_ = rt_.bind({.name = cfg_.name}, /*program=*/0,
                   [this](RtCtx& ctx, RegSet& regs) { init(ctx, regs); });
  }

  EntryPointId ep() const { return ep_; }

  /// Workers initialized so far (the §4.5.3 protocol at work).
  std::uint32_t initialized_workers() const {
    std::uint32_t n = 0;
    for (const auto& s : shards_) n += s->inits;
    return n;
  }

  // Convenience client stubs (run on the calling thread's slot).
  Status put(SlotId slot, ProgramId caller, Word key, Word value) {
    RegSet r;
    r[0] = key;
    r[1] = value;
    ppc::set_op(r, kKvPut);
    return rt_.call(slot, caller, ep_, r);
  }

  std::optional<Word> get(SlotId slot, ProgramId caller, Word key) {
    RegSet r;
    r[0] = key;
    ppc::set_op(r, kKvGet);
    if (rt_.call(slot, caller, ep_, r) != Status::kOk) return std::nullopt;
    return r[1];
  }

  Status erase(SlotId slot, ProgramId caller, Word key) {
    RegSet r;
    r[0] = key;
    ppc::set_op(r, kKvErase);
    return rt_.call(slot, caller, ep_, r);
  }

  // Cross-slot stubs: operate on `owner_slot`'s shard from `caller_slot`'s
  // thread. Synchronous, allocation-free (xcall), degenerate to the local
  // fast path when the slots coincide.
  Status put_remote(SlotId caller_slot, SlotId owner_slot, ProgramId caller,
                    Word key, Word value) {
    RegSet r;
    r[0] = key;
    r[1] = value;
    ppc::set_op(r, kKvPut);
    return rt_.call_remote(caller_slot, owner_slot, caller, ep_, r);
  }

  std::optional<Word> get_remote(SlotId caller_slot, SlotId owner_slot,
                                 ProgramId caller, Word key) {
    // Hot-set fast path: read the owner's record in place — no lock, no
    // xcall. A non-member (or a read that met a stalled publish) falls
    // through to the owner, which is always correct.
    if (!hot_.empty()) {
      if (const auto h = hot_[owner_slot]->read(counters_[caller_slot])) {
        const std::uint32_t i = hot_index(*h, key);
        if (i != kHotMiss) {
          note_repl_hit(caller_slot, key);
          return h->value[i];
        }
      }
    }
    RegSet r;
    r[0] = key;
    ppc::set_op(r, kKvGet);
    if (rt_.call_remote(caller_slot, owner_slot, caller, ep_, r) !=
        Status::kOk) {
      return std::nullopt;
    }
    return r[1];
  }

  /// Vectored write: store keys[i] → values[i] into `owner_slot`'s shard
  /// through call_remote_batch, so a burst of M puts pays ~M/chunk
  /// doorbells instead of M ring round trips. Zero heap allocations.
  /// Returns the first non-kOk per-call status (kOk if all stored).
  Status multi_put(SlotId caller_slot, SlotId owner_slot, ProgramId caller,
                   std::span<const Word> keys, std::span<const Word> values) {
    HPPC_ASSERT(keys.size() == values.size());
    Status overall = Status::kOk;
    std::array<RegSet, kKvMultiOpChunk> regs;
    for (std::size_t pos = 0; pos < keys.size(); pos += kKvMultiOpChunk) {
      const std::size_t n = std::min(kKvMultiOpChunk, keys.size() - pos);
      for (std::size_t k = 0; k < n; ++k) {
        regs[k] = RegSet{};
        regs[k][0] = keys[pos + k];
        regs[k][1] = values[pos + k];
        ppc::set_op(regs[k], kKvPut);
      }
      const Status s = rt_.call_remote_batch(
          caller_slot, owner_slot, caller, ep_,
          std::span<RegSet>(regs.data(), n));
      if (overall == Status::kOk && s != Status::kOk) overall = s;
    }
    return overall;
  }

  /// Vectored read: out[i] = value of keys[i] (nullopt on miss). Members
  /// of the owner's hot set are answered from one snapshot of its record
  /// taken per call; only the misses ride the batched xcall. Returns the
  /// number of keys found. `out.size()` must be >= `keys.size()`.
  std::size_t multi_get(SlotId caller_slot, SlotId owner_slot,
                        ProgramId caller, std::span<const Word> keys,
                        std::span<std::optional<Word>> out) {
    HPPC_ASSERT(out.size() >= keys.size());
    std::size_t hits = 0;
    std::array<RegSet, kKvMultiOpChunk> regs;
    std::array<std::size_t, kKvMultiOpChunk> origin;
    std::size_t pending = 0;
    auto flush = [&] {
      if (pending == 0) return;
      rt_.call_remote_batch(caller_slot, owner_slot, caller, ep_,
                            std::span<RegSet>(regs.data(), pending));
      for (std::size_t k = 0; k < pending; ++k) {
        if (ppc::rc_of(regs[k]) == Status::kOk) {
          out[origin[k]] = regs[k][1];
          ++hits;
        } else {
          out[origin[k]] = std::nullopt;
        }
      }
      pending = 0;
    };
    // One lock-free record read serves every key of the call (empty, and
    // never probed, when the hot set is off); hot hits never touch the ring.
    const HotSet h =
        hot_.empty() ? HotSet{}
                     : hot_[owner_slot]->read(counters_[caller_slot])
                           .value_or(HotSet{});
    for (std::size_t idx = 0; idx < keys.size(); ++idx) {
      const std::uint32_t j = hot_index(h, keys[idx]);
      if (j != kHotMiss) {
        out[idx] = h.value[j];
        ++hits;
        note_repl_hit(caller_slot, keys[idx]);
        continue;
      }
      regs[pending] = RegSet{};
      regs[pending][0] = keys[idx];
      ppc::set_op(regs[pending], kKvGet);
      origin[pending] = idx;
      if (++pending == kKvMultiOpChunk) flush();
    }
    flush();
    return hits;
  }

 private:
  /// One shard slot. The hot-set bookkeeping rides in what would be
  /// padding: whether the key is a member of its owner's hot set, and its
  /// exact served count in the epoch named by a 6-bit tag (a stale tag
  /// reads as zero).
  struct Entry {
    Word key = 0;
    Word value = 0;
    ProgramId owner = 0;
    std::uint32_t used : 1 = 0;
    std::uint32_t hot : 1 = 0;
    std::uint32_t epoch : 6 = 0;
    std::uint32_t hits : 16 = 0;
  };
  static_assert(sizeof(Entry) == 16, "hot-set counts must fit the padding");
  static_assert(kKvHotEpochOps <= 0xFFFF, "an epoch's hits fit 16 bits");

  /// An owner's hot set, published whole through its Replicated record:
  /// members are key[0..n), compact, in no particular order.
  struct HotSet {
    std::uint32_t n = 0;
    std::array<Word, kKvHotSetCapacity> key{};
    std::array<Word, kKvHotSetCapacity> value{};
  };

  /// A non-member in the running top-k of this epoch (hits 0 = empty).
  struct Candidate {
    Word key = 0;
    std::uint32_t hits = 0;
  };

  /// Ctx-carrying breadcrumb for a hot-set answer: the one hop a remote-get
  /// trace would otherwise lose entirely (no ring, no server span). Shows up
  /// in the chrome export as an instant on the caller's track tagged with
  /// the live trace id.
  void note_repl_hit(SlotId caller_slot, Word key) {
#if defined(HPPC_TRACE) && HPPC_TRACE
    const obs::TraceCtx ctx = rt_.trace_ctx(caller_slot);
    if (!ctx.traced()) return;
    rt_.trace_ring(caller_slot)
        .record_span(obs::host_trace_now(),
                     static_cast<std::uint16_t>(caller_slot),
                     obs::TraceEvent::kReplHit, static_cast<std::uint32_t>(key),
                     ctx.trace_id, ctx.span_id, 0);
#else
    (void)caller_slot;
    (void)key;
#endif
  }

  static constexpr std::uint32_t kHotMiss = ~0u;

  /// Index of `key` among `h`'s members, or kHotMiss.
  static std::uint32_t hot_index(const HotSet& h, Word key) {
    for (std::uint32_t i = 0; i < h.n; ++i) {
      if (h.key[i] == key) return i;
    }
    return kHotMiss;
  }

  /// One slot's shard: touched only by the thread holding that slot (its
  /// poller or a gate thief), which is also the only writer of the slot's
  /// hot-set record.
  struct Shard {
    std::vector<Entry> entries;
    std::size_t size = 0;
    std::uint32_t inits = 0;
    // Hot-set election state, owner-private. `hot` is the authoritative
    // copy that publish() copies into the record; admitted[i] is member
    // i's count when it was admitted (its gets no longer reach the owner).
    HotSet hot;
    std::array<std::uint16_t, kKvHotSetCapacity> admitted{};
    std::array<Candidate, kKvHotSetCapacity> top{};
    std::uint32_t served = 0;  // ops served this epoch
    std::uint32_t epoch = 0;
  };

  /// Copy the owner's hot set into its record; a no-op if nothing changed.
  void publish(SlotId slot, Shard& shard) {
    if (hot_[slot]->write(counters_[slot],
                          [&](HotSet& h) { h = shard.hot; })) {
      HPPC_TRACE_EVENT(rt_.trace_ring(slot), obs::host_trace_now(), slot,
                       obs::TraceEvent::kReplPublish, shard.hot.n);
    }
  }

  /// Make `e` member `i` (append when i == n), admitted with `hits`.
  void admit(Shard& shard, std::uint32_t i, Entry& e, std::uint32_t hits) {
    if (i == shard.hot.n) ++shard.hot.n;
    shard.hot.key[i] = e.key;
    shard.hot.value[i] = e.value;
    shard.admitted[i] = static_cast<std::uint16_t>(hits);
    e.hot = 1;
  }

  /// Drop member `i`: the last member takes its place.
  static void drop_member(Shard& shard, std::uint32_t i) {
    const std::uint32_t last = --shard.hot.n;
    shard.hot.key[i] = shard.hot.key[last];
    shard.hot.value[i] = shard.hot.value[last];
    shard.admitted[i] = shard.admitted[last];
  }

  /// Count one served op on a non-member and keep it in the running
  /// top-k if it now ranks there. Returns its count this epoch.
  std::uint32_t count_hit(Shard& shard, Entry& e) {
    const std::uint32_t tag = shard.epoch & 63u;
    if (e.epoch != tag) {
      e.epoch = tag;
      e.hits = 0;
    }
    const std::uint32_t hits = ++e.hits;
    Candidate* low = &shard.top[0];
    for (std::uint32_t i = 0; i < hot_cap_; ++i) {
      Candidate& c = shard.top[i];
      if (c.hits != 0 && c.key == e.key) {
        c.hits = hits;
        return hits;
      }
      if (c.hits < low->hits) low = &c;
    }
    if (hits > low->hits) *low = Candidate{e.key, hits};
    return hits;
  }

  /// End of an op the owner served: once per epoch, let the strongest
  /// candidates displace the members with the lowest admission counts,
  /// each only if it beats that count by more than a quarter plus one,
  /// and publish the result once.
  void tick_epoch(SlotId slot, Shard& shard) {
    if (++shard.served < kKvHotEpochOps) return;
    auto& top = shard.top;
    std::sort(top.begin(), top.begin() + hot_cap_,
              [](const Candidate& a, const Candidate& b) {
                return a.hits > b.hits;
              });
    for (std::uint32_t k = 0; k < hot_cap_ && top[k].hits != 0; ++k) {
      Entry* e = find(shard, top[k].key);
      if (e == nullptr || e->hot) continue;  // erased, or admitted since
      std::uint32_t i = shard.hot.n;
      if (i == hot_cap_) {
        i = static_cast<std::uint32_t>(
            std::min_element(shard.admitted.begin(),
                             shard.admitted.begin() + hot_cap_) -
            shard.admitted.begin());
        const std::uint32_t lo = shard.admitted[i];
        if (top[k].hits <= lo + lo / 4 + 1) break;  // weaker ones lose too
        Entry* evicted = find(shard, shard.hot.key[i]);
        HPPC_ASSERT(evicted != nullptr);
        evicted->hot = 0;
      }
      admit(shard, i, *e, top[k].hits);
    }
    top = {};
    shard.served = 0;
    ++shard.epoch;
    publish(slot, shard);
  }

  Entry* find(Shard& shard, Word key) {
    const std::size_t start = key % shard.entries.size();
    for (std::size_t probe = 0; probe < shard.entries.size(); ++probe) {
      Entry& e = shard.entries[(start + probe) % shard.entries.size()];
      if (!e.used) return nullptr;
      if (e.key == key) return &e;
    }
    return nullptr;
  }

  Entry* find_free(Shard& shard, Word key) {
    const std::size_t start = key % shard.entries.size();
    for (std::size_t probe = 0; probe < shard.entries.size(); ++probe) {
      Entry& e = shard.entries[(start + probe) % shard.entries.size()];
      if (!e.used || e.key == key) return &e;
    }
    return nullptr;
  }

  void init(RtCtx& ctx, RegSet& regs) {
    // One-time worker setup (§4.5.3): count it, swap in the real handler.
    ++shards_[ctx.slot()]->inits;
    auto main = OpDispatcher()
                    .on(kKvPut,
                        [this](RtCtx& c, RegSet& r) { do_put(c, r); })
                    .on(kKvGet,
                        [this](RtCtx& c, RegSet& r) { do_get(c, r); })
                    .on(kKvErase,
                        [this](RtCtx& c, RegSet& r) { do_erase(c, r); })
                    .on(kKvSize,
                        [this](RtCtx& c, RegSet& r) {
                          r[0] = static_cast<Word>(
                              shards_[c.slot()]->size);
                          ppc::set_rc(r, Status::kOk);
                        })
                    .on(kKvOwnerOf,
                        [this](RtCtx& c, RegSet& r) {
                          Entry* e = find(*shards_[c.slot()], r[0]);
                          if (!e) {
                            ppc::set_rc(r, Status::kInvalidArgument);
                            return;
                          }
                          r[1] = e->owner;
                          ppc::set_rc(r, Status::kOk);
                        })
                    .handler();
    ctx.set_worker_handler(main);
    main(ctx, regs);
  }

  void do_put(RtCtx& ctx, RegSet& regs) {
    Shard& shard = *shards_[ctx.slot()];
    Entry* e = find_free(shard, regs[0]);
    if (e == nullptr) {
      ppc::set_rc(regs, Status::kOutOfResources);
      return;
    }
    if (!e->used) {
      *e = Entry{.key = regs[0], .owner = ctx.caller_program(), .used = 1};
      ++shard.size;
    }
    e->value = regs[1];
    if (!hot_.empty()) hot_put(ctx.slot(), shard, *e);
    ppc::set_rc(regs, Status::kOk);
  }

  /// A member's put publishes only a changed value (publish() compares).
  /// A non-member's is counted, and admits it write-through while the set
  /// has room.
  void hot_put(SlotId slot, Shard& shard, Entry& e) {
    if (e.hot) {
      shard.hot.value[hot_index(shard.hot, e.key)] = e.value;
      publish(slot, shard);
    } else {
      const std::uint32_t hits = count_hit(shard, e);
      if (shard.hot.n < hot_cap_) {
        admit(shard, shard.hot.n, e, hits);
        publish(slot, shard);
      }
    }
    tick_epoch(slot, shard);
  }

  void do_get(RtCtx& ctx, RegSet& regs) {
    Shard& shard = *shards_[ctx.slot()];
    Entry* e = find(shard, regs[0]);
    if (e == nullptr) {
      ppc::set_rc(regs, Status::kInvalidArgument);
      return;
    }
    regs[1] = e->value;
    if (!hot_.empty()) {
      if (!e->hot) count_hit(shard, *e);
      tick_epoch(ctx.slot(), shard);
    }
    ppc::set_rc(regs, Status::kOk);
  }

  void do_erase(RtCtx& ctx, RegSet& regs) {
    Shard& shard = *shards_[ctx.slot()];
    Entry* e = find(shard, regs[0]);
    if (e == nullptr) {
      ppc::set_rc(regs, Status::kInvalidArgument);
      return;
    }
    if (cfg_.enforce_ownership && e->owner != ctx.caller_program()) {
      ppc::set_rc(regs, Status::kPermissionDenied);
      return;
    }
    const bool was_hot = e->hot;
    if (was_hot) drop_member(shard, hot_index(shard.hot, regs[0]));
    // Tombstone-free removal: backward-shift the probe chain so that later
    // entries whose home slot precedes the hole stay reachable.
    const std::size_t cap = shard.entries.size();
    std::size_t hole = static_cast<std::size_t>(e - shard.entries.data());
    shard.entries[hole].used = false;
    --shard.size;
    std::size_t j = hole;
    for (;;) {
      j = (j + 1) % cap;
      Entry& ej = shard.entries[j];
      if (!ej.used) break;
      const std::size_t home = ej.key % cap;
      // ej may move into the hole unless its home lies strictly within
      // (hole, j] on the probe circle.
      const std::size_t dist_home = (j - home + cap) % cap;
      const std::size_t dist_hole = (j - hole + cap) % cap;
      if (dist_home >= dist_hole) {
        shard.entries[hole] = ej;
        ej.used = false;
        hole = j;
      }
    }
    if (was_hot) publish(ctx.slot(), shard);
    ppc::set_rc(regs, Status::kOk);
  }

  Runtime& rt_;
  KvServiceConfig cfg_;
  std::vector<CacheAligned<Shard>> shards_;
  EntryPointId ep_ = kInvalidEntryPoint;
  std::uint32_t hot_cap_ = 0;
  // Per owner slot, arena-placed; both empty when the hot set is off.
  std::vector<repl::Replicated<HotSet>*> hot_;
  std::vector<obs::SlotCounters*> counters_;
};

}  // namespace hppc::rt

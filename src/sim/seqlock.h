// Timeline-based simulated per-CPU seqlock replica (cost accounting for
// the repl/ layer on the simulated facility).
//
// Hector has no hardware cache coherence, so replicating read-mostly data
// per processor is a software protocol: each CPU owns a node-local replica
// record plus a one-deep update queue. A writer publishes a new version by
// storing the payload and flipping the queue's sequence word on every
// CPU's record (remote uncached stores, paid by the writer); each owner
// applies the pending update the next time it reads (local uncached
// accesses, paid by the reader). The cache-coherent host needs none of
// this: there one owner-written record is read in place
// (repl::Replicated).
//
// The model follows sim/spinlock.h's timeline idiom: the writer's stores
// open a publish window [window_start, window_end) on the replica; a
// reader whose clock lands inside the window has observed the sequence
// word mid-flip, retries (booked repl_seq_retries), and idles to the
// window's end — the seqlock retry, charged in simulated time. Readers
// earlier than the window see the previous version; readers past it apply
// and see the new one. Everything is a function of simulated clocks, so
// runs stay deterministic (the Fig3 determinism test extends to the
// replicated curve).
//
// Cost model per operation (uncached: these words are written remotely,
// so they can never live in a CPU's cache on this machine):
//   read   : 1 uncached access to the local queue/sequence word
//            + 1 uncached access to the local payload
//            (+ 2 uncached accesses when applying a pending update)
//   publish: 2 uncached stores per replica (payload + sequence flip),
//            paying the NUMA distance to each CPU's node.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "obs/counters.h"
#include "sim/cost.h"
#include "sim/memctx.h"

namespace hppc::sim {

class SimSeqlockReplica {
 public:
  /// `queue_addr` / `replica_addr` are simulated addresses on the owning
  /// CPU's node (they determine the writer's NUMA surcharge).
  SimSeqlockReplica(SimAddr queue_addr, SimAddr replica_addr)
      : queue_addr_(queue_addr), replica_addr_(replica_addr) {}

  struct ReadCharge {
    int retries = 0;    // mid-window observations (seqlock retries)
    bool applied = false;  // a pending update became visible to this read
  };

  /// Charge one replicated read on the owning CPU at its current clock.
  /// Advances the reader past any in-flight publish window and books
  /// repl_reads / repl_seq_retries on the CPU's counter block. Lock-free
  /// by construction: no locks_taken, no shared_lines_touched.
  ReadCharge read(MemContext& cpu, CostCategory cat) {
    ReadCharge out;
    cpu.access_uncached(queue_addr_, cat);  // sequence/pending check
    if (pending_ && cpu.now() >= window_start_ && cpu.now() < window_end_) {
      // Observed the sequence word mid-flip: retry until the writer's
      // stores complete, then apply.
      out.retries = 1;
      cpu.idle_until(window_end_);
    }
    if (pending_ && cpu.now() >= window_end_) {
      // Drain the one-deep update queue into the replica (local work).
      cpu.access_uncached(queue_addr_, cat);
      cpu.access_uncached(replica_addr_, cat);
      applied_version_ = version_;
      pending_ = false;
      out.applied = true;
    }
    cpu.access_uncached(replica_addr_, cat);  // payload read
    if (obs::SlotCounters* c = cpu.obs()) {
      c->inc(obs::Counter::kReplReads);
      if (out.retries != 0) {
        c->inc(obs::Counter::kReplSeqRetries,
               static_cast<std::uint64_t>(out.retries));
      }
    }
    return out;
  }

  /// Writer side: charge the publish stores (payload + sequence flip,
  /// paying the NUMA distance to this replica's home) and open the
  /// visibility window. A publish that overtakes an unapplied one
  /// coalesces: the older version becomes the "previous" value readers
  /// before the new window see. Books repl_invalidations on the writer.
  void publish(MemContext& writer, CostCategory cat) {
    if (pending_ && writer.now() >= window_end_) {
      // The earlier update was visible before this publish began; fold it
      // so pre-window readers see it as the current version.
      applied_version_ = version_;
    }
    window_start_ = writer.now();
    writer.access_uncached(queue_addr_, cat);    // payload store
    writer.access_uncached(queue_addr_, cat);    // sequence flip
    window_end_ = writer.now();
    ++version_;
    pending_ = true;
    if (obs::SlotCounters* c = writer.obs()) {
      c->inc(obs::Counter::kReplInvalidations);
    }
  }

  /// Versions: `version()` counts publishes; `applied_version()` is what a
  /// read at the CPU's current clock has already drained. The value-typed
  /// wrapper (repl::SimReplicated) keys its generation switch off the
  /// ReadCharge plus these.
  std::uint64_t version() const { return version_; }
  std::uint64_t applied_version() const { return applied_version_; }
  bool has_pending() const { return pending_; }
  Cycles window_start() const { return window_start_; }
  Cycles window_end() const { return window_end_; }

 private:
  SimAddr queue_addr_;
  SimAddr replica_addr_;
  Cycles window_start_ = 0;
  Cycles window_end_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t applied_version_ = 0;
  bool pending_ = false;
};

}  // namespace hppc::sim

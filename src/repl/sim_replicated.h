// SimReplicated<T>: the simulated-facility face of the replicated
// read-mostly object layer. One node-local replica record per CPU, each
// modelled by a sim::SimSeqlockReplica (the timeline seqlock cost model),
// carrying a functional value of type T with two generations — the value a
// reader earlier than the in-flight publish window sees, and the value a
// reader past it applies. Reads are lock-free and slot-local, writes are
// serialized by the caller (the service's existing master lock) and
// propagated to every CPU's update queue at the writer's expense. Hector
// has no cache coherence, so a copy per CPU is the only way to keep reads
// node-local; the coherent host reads one owner-written record in place
// instead (repl::Replicated<T>).
#pragma once

#include <type_traits>
#include <vector>

#include "kernel/machine.h"
#include "sim/seqlock.h"

namespace hppc::repl {

template <typename T>
class SimReplicated {
  static_assert(std::is_trivially_copyable_v<T>,
                "replicas are copied by value");

 public:
  /// Allocates one replica record + update-queue word per CPU, homed on
  /// the CPU's own node so warm reads never leave the station.
  SimReplicated(kernel::Machine& m, T initial) : master_(initial) {
    const sim::MachineConfig& mc = m.config();
    per_cpu_.reserve(mc.num_cpus);
    for (CpuId c = 0; c < mc.num_cpus; ++c) {
      const NodeId node = mc.node_of_cpu(c);
      const SimAddr queue = m.allocator().alloc(node, 64, 64);
      const SimAddr replica = m.allocator().alloc(node, 64, 64);
      per_cpu_.push_back(PerCpu{sim::SimSeqlockReplica(queue, replica),
                                initial, initial});
    }
  }

  struct ReadOutcome {
    T value{};
    int retries = 0;
    bool applied = false;
  };

  /// Read the calling CPU's own replica at its current clock. Charges the
  /// seqlock read (and any retry wait / update application) to `cat`;
  /// never takes a lock, never touches another CPU's lines.
  ReadOutcome read(sim::MemContext& cpu, sim::CostCategory cat) {
    PerCpu& p = per_cpu_[cpu.cpu()];
    const sim::SimSeqlockReplica::ReadCharge ch = p.sl.read(cpu, cat);
    if (ch.applied) p.current = p.pending;
    return ReadOutcome{p.current, ch.retries, ch.applied};
  }

  /// Publish a new version to every CPU's update queue at the writer's
  /// expense. The caller serializes writers (the service's master lock);
  /// readers on other CPUs see the new value once their clock passes the
  /// per-replica publish window.
  void write(sim::MemContext& writer, sim::CostCategory cat, const T& value) {
    for (PerCpu& p : per_cpu_) {
      // A still-unapplied older update that was already visible before
      // this publish begins becomes the "previous" generation.
      if (p.sl.has_pending() && writer.now() >= p.sl.window_end()) {
        p.current = p.pending;
      }
      p.pending = value;
      p.sl.publish(writer, cat);
    }
    master_ = value;
  }

  /// The master (latest-written) value — harness/introspection only; the
  /// service path always goes through read().
  const T& master() const { return master_; }

  std::uint64_t version(CpuId cpu) const {
    return per_cpu_[cpu].sl.version();
  }

 private:
  struct PerCpu {
    sim::SimSeqlockReplica sl;
    T current;  // visible to readers before the in-flight window
    T pending;  // visible once the reader's clock passes the window
  };

  std::vector<PerCpu> per_cpu_;
  T master_{};
};

}  // namespace hppc::repl

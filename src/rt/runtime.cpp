#include "rt/runtime.h"

#include <bit>

#include "common/tsc.h"
#include "fault/failpoints.h"

namespace hppc::rt {

using ppc::rc_of;
using ppc::set_rc;

#if defined(HPPC_TRACE) && HPPC_TRACE
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

// ---------------------------------------------------------------------------
// RtCtx
// ---------------------------------------------------------------------------

std::span<std::byte> RtCtx::stack() {
  RtCd* cd = worker_.active_cd;
  HPPC_ASSERT_MSG(cd != nullptr, "stack() outside a call");
  return {cd->stack, kPageSize};
}

void RtCtx::set_worker_handler(std::function<void(RtCtx&, RegSet&)> h) {
  worker_.set_handler(std::move(h));
}

Status RtCtx::call(EntryPointId id, RegSet& regs) {
  return rt_.call(slot_, caller_, id, regs);
}

bool RtCtx::cancellation_requested() const {
  return rt_.cancellation_requested(slot_);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(std::uint32_t slots, bool pin_threads)
    : registry_(slots), pin_threads_(pin_threads), slots_(registry_.capacity()) {
  // Deliberate placement, not first-touch accident: every slot's hot
  // structures — its ring cells and its histogram block here; CD stacks
  // and wait blocks as they are pooled — come from the arena pool of the
  // slot's own node, so the warm path's stores stay on local memory.
  const std::uint32_t cap = registry_.capacity();
  for (SlotId s = 0; s < cap; ++s) {
    Slot& slot = *slots_[s];
    slot.self_id = s;
    slot.node = node_of_slot(s);
    slot.rings = arena_.create_array<XcallRing>(slot.node, cap);
    slot.hists = arena_.create<obs::SlotHistograms>(slot.node);
  }
  // The cancel-flag pool (value-initialized: every flag starts clear).
  // Heap, not arena: it is runtime-wide, not per-slot, and cold until a
  // cancel actually lands. adopt_cancel_pool() may later re-point the
  // working pointers at segment-resident storage.
  owned_cancel_flags_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(kMaxCancelTokens);
  cancel_flags_ = owned_cancel_flags_.get();
}

void Runtime::adopt_cancel_pool(std::atomic<std::uint32_t>* flags,
                                std::atomic<std::uint32_t>* next_token) {
  cancel_flags_ = flags;
  next_cancel_token_ = next_token;
}

Runtime::~Runtime() { shutdown(); }

std::size_t Runtime::shutdown() {
  // Quiescent by contract: this thread is the only one touching any slot,
  // so it may assume ownership of every ring and pool without gates.
  //
  // Pass 1 — empty every ring without executing. A sync cell still parked
  // here means its caller is gone (quiescence), so completing it with
  // kCallAborted is a store nobody reads; an abandoned cell is acked
  // exactly as a live drain would. After this pass no server-side
  // reference to any XcallWait block exists anywhere in the runtime.
  for (auto& sp : slots_) {
    Slot& slot = *sp;
    for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
      slot.rings[src].drain([](XcallCell& cell) {
        if (cell.wait != nullptr) cell.wait->abort();
      });
    }
    slot.ready_mask.store(0, std::memory_order_relaxed);
    slot.bulk_ready_mask.store(0, std::memory_order_relaxed);
  }
  // Pass 2 — reap the zombie lists. Blocks whose server acked above (or
  // long ago) are recyclable as usual; blocks orphaned by a ring that was
  // permanently killed (dropped completion, owner never drained) are now
  // unreachable from any ring, so reclaiming them is safe too.
  std::size_t reaped = 0;
  for (auto& sp : slots_) {
    Slot& slot = *sp;
    while (XcallWait* z = slot.wait_zombies) {
      slot.wait_zombies = z->next;
      z->reset();
      z->next = slot.wait_free;
      slot.wait_free = z;
      ++reaped;
    }
    // The reclamation invariant: every block the slot ever allocated is
    // back on its free list. A leak here means a wait escaped both the
    // normal recycle path and the sweep above.
    std::size_t free_count = 0;
    for (XcallWait* w = slot.wait_free; w != nullptr; w = w->next) {
      ++free_count;
    }
    HPPC_ASSERT_MSG(free_count == slot.owned_waits.size(),
                    "XcallWait blocks leaked past the teardown sweep");
  }
  return reaped;
}

EntryPointId Runtime::bind(RtServiceConfig cfg, ProgramId program,
                           RtHandler initial_handler) {
  // Off-slot slow path: the bind lock and the service-table publication are
  // exactly the shared traffic the warm path avoids — book them.
  shared_.inc(obs::Counter::kBinds);
  shared_.inc(obs::Counter::kLocksTaken);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  std::lock_guard<std::mutex> lock(bind_mutex_);
  while (next_ep_ < kMaxEntryPoints &&
         services_[next_ep_].load(std::memory_order_relaxed) != nullptr) {
    ++next_ep_;
  }
  HPPC_ASSERT_MSG(next_ep_ < kMaxEntryPoints, "out of entry points");
  auto svc = std::make_unique<Service>();
  svc->cfg = std::move(cfg);
  svc->program = program;
  svc->initial_handler = std::move(initial_handler);
  svc->id = next_ep_;
  Service* raw = svc.get();
  owned_services_.push_back(std::move(svc));
  services_[next_ep_].store(raw, std::memory_order_release);
  return next_ep_++;
}

Status Runtime::kill(EntryPointId id, bool hard) {
  Service* svc = lookup(id);
  if (svc == nullptr || svc->state.load() == SvcState::kDead) {
    return Status::kNoSuchEntryPoint;
  }
  shared_.inc(hard ? obs::Counter::kHardKills : obs::Counter::kSoftKills);
  shared_.inc(obs::Counter::kSharedLinesTouched);  // the state store below
  svc->state.store(hard ? SvcState::kDead : SvcState::kDraining,
                   std::memory_order_release);
  if (hard) {
    services_[id].store(nullptr, std::memory_order_release);
    // Per-slot resources may only be touched by their owner: post the
    // reclamation to every slot (the mailbox stands in for the IPI of
    // §4.5.2).
    for (SlotId s = 0; s < slots_.size(); ++s) {
      post(s, [this, s, id] { reclaim_service_on_slot(*slots_[s], id); });
    }
  }
  return Status::kOk;
}

Status Runtime::soft_kill(EntryPointId id) { return kill(id, /*hard=*/false); }
Status Runtime::hard_kill(EntryPointId id) { return kill(id, /*hard=*/true); }

void Runtime::reclaim_service_on_slot(Slot& slot, EntryPointId id) {
  RtWorker* w = slot.worker_pool[id];
  slot.worker_pool[id] = nullptr;
  while (w != nullptr) {
    RtWorker* next = w->next;
    slot.counters.inc(obs::Counter::kWorkersReclaimed);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kReclaim, id);
    if (w->held_cd != nullptr) {
      // Return the held CD (and its stack) to the slot's shared pool.
      w->held_cd->next = slot.cd_pool;
      slot.cd_pool = w->held_cd;
      w->held_cd = nullptr;
    }
    w = next;  // the owned_workers vector keeps the storage alive
  }
}

template <bool kObserved>
RtWorker* Runtime::acquire_worker(Slot& slot, Service& svc) {
  RtWorker* w = slot.worker_pool[svc.id];
  if (w != nullptr) {
    slot.worker_pool[svc.id] = w->next;
    w->next = nullptr;
    return w;
  }
  // Slow path: create a worker initialized to the service's initial
  // (possibly one-time-init, §4.5.3) routine.
  if constexpr (kObserved) {
    slot.counters.inc(obs::Counter::kWorkersCreated);
    slot.counters.inc(obs::Counter::kSlowPathEntries);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kWorkerCreate, svc.id);
  }
  auto owned = std::make_unique<RtWorker>(svc.initial_handler);
  w = owned.get();
  slot.owned_workers.push_back(std::move(owned));
  if (svc.cfg.hold_cd) {
    w->held_cd = acquire_cd<kObserved>(slot, *w);
  }
  return w;
}

template <bool kObserved>
RtCd* Runtime::acquire_cd(Slot& slot, RtWorker& w) {
  if (w.held_cd != nullptr) {
    if constexpr (kObserved) {
      slot.counters.inc(obs::Counter::kHoldCdHits);
    }
    return w.held_cd;
  }
  RtCd* cd = slot.cd_pool;
  if (cd != nullptr) {
    slot.cd_pool = cd->next;
    cd->next = nullptr;
    return cd;
  }
  if constexpr (kObserved) {
    slot.counters.inc(obs::Counter::kCdsCreated);
    slot.counters.inc(obs::Counter::kSlowPathEntries);
  }
  // Pool growth (slow path): descriptor and stack both land on the slot's
  // node. Page alignment keeps each stack to whole local pages.
  cd = arena_.create<RtCd>(slot.node);
  cd->stack =
      static_cast<std::byte*>(arena_.allocate(slot.node, kPageSize, kPageSize));
  slot.owned_cds.push_back(cd);
  return cd;
}

void Runtime::release(Slot& slot, Service& svc, RtWorker* w, RtCd* cd) {
  w->active_cd = nullptr;
  if (w->held_cd != cd) {
    cd->next = slot.cd_pool;
    slot.cd_pool = cd;
  }
  if (svc.state.load(std::memory_order_acquire) == SvcState::kActive) {
    w->next = slot.worker_pool[svc.id];
    slot.worker_pool[svc.id] = w;
  } else if (w->held_cd != nullptr) {
    // Draining/dead: the worker is not re-pooled; free its held CD.
    w->held_cd->next = slot.cd_pool;
    slot.cd_pool = w->held_cd;
    w->held_cd = nullptr;
  }
}

template <ObsLevel kLevel>
Status Runtime::execute_on_slot(Slot& slot, SlotId slot_id, Service& svc,
                                ProgramId caller, RegSet& regs) {
  constexpr bool kObserved = kLevel != ObsLevel::kStripped;
  // The shared call body: everything below is slot-local under the current
  // ownership — no atomics, no locks. Pool-hit and CD-recycle tallies are
  // derived at snapshot time from the slow-path counters instead of being
  // incremented per call (see derive_pool_counters).
  if constexpr (kObserved) {
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kCallEnter, svc.id);
    // Fault seams for the resource-acquisition half of the call body:
    // simulate the worker pool (then the CD pool) being exhausted past even
    // Frank's reach — the §4.5.6 failure mode — without perturbing the real
    // pools.
    if (HPPC_FAULT_POINT("rt.worker.exhausted") ||
        HPPC_FAULT_POINT("rt.cd.exhausted")) {
      slot.counters.inc(obs::Counter::kFaultsInjected);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                       obs::TraceEvent::kFaultInject, svc.id);
      set_rc(regs, Status::kOutOfResources);
      return Status::kOutOfResources;
    }
  }
  RtWorker* w = acquire_worker<kObserved>(slot, svc);
  RtCd* cd = acquire_cd<kObserved>(slot, *w);
  w->active_cd = cd;

  bool aborted = false;
  if constexpr (kObserved) {
    // Simulated handler abort (§4.5.2 in-flight failure): the worker and CD
    // were acquired, the handler never runs, resources are released below.
    if (HPPC_FAULT_POINT("rt.handler.abort")) {
      slot.counters.inc(obs::Counter::kFaultsInjected);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                       obs::TraceEvent::kFaultInject, svc.id);
      set_rc(regs, Status::kCallAborted);
      aborted = true;
    }
  }
  if (!aborted) {
    RtCtx ctx(*this, slot_id, *w, caller);
    // Invoked by reference: self-replacement (§4.5.3) is staged in the
    // worker and committed below, so no per-call std::function copy is
    // needed.
    w->handler()(ctx, regs);
    if (w->has_pending_handler()) w->commit_pending_handler();
  }

  release(slot, svc, w, cd);
  if constexpr (kObserved) {
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                     obs::TraceEvent::kCallExit,
                     static_cast<std::uint32_t>(rc_of(regs)));
  }
  return rc_of(regs);
}

template <ObsLevel kLevel>
Status Runtime::call_impl(SlotId slot_id, ProgramId caller, EntryPointId id,
                          RegSet& regs) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];

  Service* svc = lookup(id);
  if (svc == nullptr) {
    set_rc(regs, Status::kNoSuchEntryPoint);
    return Status::kNoSuchEntryPoint;
  }
  const SvcState st = svc->state.load(std::memory_order_acquire);
  if (st != SvcState::kActive) {
    const Status s = st == SvcState::kDraining ? Status::kEntryPointDraining
                                               : Status::kNoSuchEntryPoint;
    set_rc(regs, s);
    return s;
  }

  // Ambient request screen — present at EVERY ObsLevel because it is call
  // semantics, not instrumentation (the overhead gate differences paths
  // that all share it). The warm no-context path pays two always-false
  // compares against slot-local state; an expired or cancelled root
  // request refuses every nested call in its tree right here, before a
  // worker is touched.
  const RequestCtx& req = slot.cur_req;
  if (req.abs_deadline_cycles != 0 &&
      host_cycles() >= req.abs_deadline_cycles) {
    if constexpr (kLevel != ObsLevel::kStripped) {
      slot.counters.inc(obs::Counter::kDeadlineExceeded);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                       obs::TraceEvent::kDeadlineExceeded, id);
    }
    set_rc(regs, Status::kDeadlineExceeded);
    return Status::kDeadlineExceeded;
  }
  if (req.cancel_token != 0 && cancel_requested(req.cancel_token)) {
    if constexpr (kLevel != ObsLevel::kStripped) {
      slot.counters.inc(obs::Counter::kCallsCancelled);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                       obs::TraceEvent::kCallCancelled, id);
    }
    set_rc(regs, Status::kCallAborted);
    return Status::kCallAborted;
  }

  // Fast path: one plain store (calls_sync; hold-CD services pay a second
  // for hold_cd_hits), then the shared slot-local call body.
  if constexpr (kLevel != ObsLevel::kStripped) {
    slot.counters.inc(obs::Counter::kCallsSync);
    // Pure-delay seam (the failpoint burns its armed cpu_relax budget
    // before returning true): models a preempted or cache-cold caller.
    if (HPPC_FAULT_POINT("rt.call.delay")) {
      slot.counters.inc(obs::Counter::kFaultsInjected);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                       obs::TraceEvent::kFaultInject, id);
    }
  }
  if constexpr (kLevel == ObsLevel::kFull) {
    // Full observability adds one tsc pair + one histogram store per call.
    const std::uint64_t t0 = host_cycles();
#if defined(HPPC_TRACE) && HPPC_TRACE
    // Request-scoped span: if the slot is executing under a trace (root
    // installed by trace_begin, or a remote/async context restored around
    // us), this call is a child span of it. Swapping cur_trace around the
    // handler makes nested RtCtx::call chains parent correctly.
    const obs::TraceCtx saved = slot.cur_trace;
    std::uint32_t span = 0;
    if (saved.traced()) {
      span = begin_span(slot, obs::SpanKind::kLocalCall, saved.trace_id,
                        saved.span_id);
      if (span != 0) slot.cur_trace.span_id = span;
    }
#endif
    const Status rc =
        execute_on_slot<kLevel>(slot, slot_id, *svc, caller, regs);
#if defined(HPPC_TRACE) && HPPC_TRACE
    if (saved.traced()) {
      slot.cur_trace = saved;
      end_span(slot, saved.trace_id, span, saved.span_id, rc);
    }
#endif
    slot.hists->record(obs::Hist::kRttSync, host_cycles() - t0);
    return rc;
  }
  return execute_on_slot<kLevel>(slot, slot_id, *svc, caller, regs);
}

Status Runtime::call(SlotId slot_id, ProgramId caller, EntryPointId id,
                     RegSet& regs) {
  return call_impl<ObsLevel::kFull>(slot_id, caller, id, regs);
}

Status Runtime::call(SlotId slot_id, ProgramId caller, EntryPointId id,
                     RegSet& regs, const CallOptions& opts) {
  // A same-slot call executes inline on the calling thread, so the retry
  // knob has nothing to act on — but the deadline/cancel/class knobs do:
  // they scope the ambient request context around the handler. The
  // relative deadline folds into the inherited absolute budget (tighten,
  // never extend — with_budget), nested calls the handler makes inherit
  // the result, and call_impl's pre-execution screen enforces both the
  // budget and the cancel flag.
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  const RequestCtx saved = slot.cur_req;
  RequestCtx eff = saved;
  eff.abs_deadline_cycles = opts.with_budget(saved.abs_deadline_cycles);
  if (opts.cancel_token != 0) eff.cancel_token = opts.cancel_token;
  if (opts.traffic_class == TrafficClass::kBulk) {
    eff.traffic_class = TrafficClass::kBulk;
  }
  if (saved.abs_deadline_cycles != 0 &&
      eff.abs_deadline_cycles == saved.abs_deadline_cycles) {
    slot.counters.inc(obs::Counter::kDeadlineInherited);
  }
  slot.cur_req = eff;
  const Status rc = call_impl<ObsLevel::kFull>(slot_id, caller, id, regs);
  slot.cur_req = saved;
  return rc;
}

Status Runtime::call_unobserved_for_benchmark(SlotId slot_id,
                                              ProgramId caller,
                                              EntryPointId id, RegSet& regs) {
  return call_impl<ObsLevel::kStripped>(slot_id, caller, id, regs);
}

Status Runtime::call_counters_only_for_benchmark(SlotId slot_id,
                                                 ProgramId caller,
                                                 EntryPointId id,
                                                 RegSet& regs) {
  return call_impl<ObsLevel::kCounters>(slot_id, caller, id, regs);
}

Status Runtime::call_async(SlotId slot_id, ProgramId caller, EntryPointId id,
                           RegSet regs) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  Service* svc = lookup(id);
  if (svc == nullptr) return Status::kNoSuchEntryPoint;
  if (svc->state.load(std::memory_order_acquire) != SvcState::kActive) {
    return Status::kEntryPointDraining;
  }
  slot.counters.inc(obs::Counter::kCallsAsync);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot_id,
                   obs::TraceEvent::kAsyncEnqueue, id);
  DeferredCall d{caller, id, regs};
  d.enqueue_tsc = host_cycles();  // poll() turns this into kRttAsync
  d.tctx = slot.cur_trace;        // trace context rides the deferral
  d.rctx = slot.cur_req;          // ...and so does the request context:
  // poll() re-installs it around the execution, where call_impl's screen
  // drops the deferred call if the root expired or was cancelled meanwhile.
  slot.deferred.push_back(d);
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Cross-slot calls (xcall)
// ---------------------------------------------------------------------------

SlotId Runtime::register_thread() {
  const SlotId s = registry_.register_thread(pin_threads_);
  // First registration claims the gate (slots start idle, so a never-
  // registered slot is remotely direct-executable); re-registration finds
  // it already held by this thread and is a no-op.
  slots_[s]->gate.claim_at_register();
  return s;
}

Status Runtime::execute_remote(Slot& slot, ProgramId caller, EntryPointId id,
                               RegSet& regs) {
  // Re-resolve: the service may have been killed between post and drain.
  // The caller pre-screened the entry point before admitting the call, so
  // a service that is gone (or hard-killed) *here* died while the call was
  // in flight — that is the §4.5.2 abort case, reported as kCallAborted so
  // a hard kill racing call_remote yields exactly {kOk, kCallAborted}.
  // Soft kill keeps its distinct drain code.
  Service* svc = lookup(id);
  if (svc == nullptr) {
    set_rc(regs, Status::kCallAborted);
    return Status::kCallAborted;
  }
  const SvcState st = svc->state.load(std::memory_order_acquire);
  if (st != SvcState::kActive) {
    const Status s = st == SvcState::kDraining ? Status::kEntryPointDraining
                                               : Status::kCallAborted;
    set_rc(regs, s);
    return s;
  }
  slot.counters.inc(obs::Counter::kCallsRemote);
  HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                   obs::TraceEvent::kRemoteCall, id);
  return execute_on_slot<ObsLevel::kFull>(slot, slot.self_id, *svc, caller,
                                          regs);
}

std::size_t Runtime::drain_ring(Slot& slot, XcallRing& ring) {
  // Execute one cell's request under the request context it carried across
  // the ring (trace builds): a kServerExec span parented to the caller's
  // post span, with cur_trace swapped so nested calls inside the handler
  // parent to it in turn.
  const auto run_cell = [this, &slot](const XcallCell& cell,
                                      RegSet& out) -> Status {
    // Install the request context the cell carried across the ring: the
    // absolute budget rides the cell's deadline lane, the cancel-token
    // index and traffic class ride the ep word's high lanes. Swapped in
    // around the handler exactly like the trace context below — but
    // unconditionally, in every build — so NESTED calls the handler makes
    // inherit the root's budget and token. This is the hop the tentpole
    // exists for: before it, an expired root died at the first xcall seam
    // while downstream work kept burning cycles.
    const RequestCtx saved_req = slot.cur_req;
    RequestCtx req;
    req.abs_deadline_cycles = cell.deadline;
    req.cancel_token = cell_token_idx(cell.ep);
    req.traffic_class = cell_is_bulk(cell.ep) ? TrafficClass::kBulk
                                              : TrafficClass::kInteractive;
#if defined(HPPC_TRACE) && HPPC_TRACE
    const obs::TraceCtx cctx = cell.tctx;
    req.trace_id = cctx.trace_id;
    const obs::TraceCtx saved = slot.cur_trace;
    std::uint32_t span = 0;
    if (cctx.traced()) {
      span = begin_span(slot, obs::SpanKind::kServerExec, cctx.trace_id,
                        cctx.span_id);
      slot.cur_trace = cctx;
      if (span != 0) slot.cur_trace.span_id = span;
    }
#endif
    slot.cur_req = req;
    const Status rc =
        execute_remote(slot, cell.caller, cell_ep(cell.ep), out);
    slot.cur_req = saved_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
    if (cctx.traced()) {
      slot.cur_trace = saved;
      end_span(slot, cctx.trace_id, span, cctx.span_id, rc);
    }
#endif
    return rc;
  };
  // One batch: every cell published before the first gap, one acquire per
  // cell to observe its payload, one book-keeping store per batch.
  const std::size_t n = ring.drain([this, &slot, &run_cell](XcallCell& cell) {
    XcallWait* const w = cell.wait;
    // Abandoned cell: the caller's deadline expired and it left. Ack
    // (setting kDoneBit so the owning slot can recycle the block) and skip
    // execution — the §4.5.2 "caller died mid-call" drain path. (Frame
    // calls carry no deadline; for them this is the shutdown/chaos path.)
    if (w != nullptr && w->abandoned()) {
      w->ack_abandoned();
      slot.counters.inc(obs::Counter::kSharedLinesTouched);
      return;
    }
    // Synchronous cells reply into the caller's register file (stack
    // waits) or the block's inline buffer (pooled deadline waits);
    // fire-and-forget cells execute on the cell's own payload.
    RegSet& out = w != nullptr ? w->reply_target() : cell.regs;
    Status rc;
    if (cell_is_frame(cell)) {
      // Frame cells first: their `deadline` lane carries the packed op
      // word, so nothing below may interpret it as a tick count.
      CallFrame f = cell_frame(cell);
      rc = execute_frame(slot, cell.caller, f);
      out.w = f.w;
    } else {
      out = cell.regs;
      // A cell that drained past its deadline — or whose root was
      // cancelled — is refused, not executed late: a sync caller is
      // abandoning (or is about to), a fire-and-forget cell is dropped. If
      // the caller's abandon CAS lands between the check above and the
      // completion below, the exchange still sets kDoneBit, so the block
      // stays reclaimable; a parked caller is kicked as by a real result.
      const std::uint32_t tok = cell_token_idx(cell.ep);
      const bool expired = cell.deadline != 0 && host_cycles() >= cell.deadline;
      if (expired || (tok != 0 && cancel_requested(tok))) {
        rc = expired ? Status::kDeadlineExceeded : Status::kCallAborted;
        set_rc(out, rc);
        slot.counters.inc(expired ? obs::Counter::kDeadlineExceeded
                                  : obs::Counter::kCallsCancelled);
        HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                         expired ? obs::TraceEvent::kDeadlineExceeded
                                 : obs::TraceEvent::kCallCancelled,
                         cell_ep(cell.ep));
      } else {
        rc = run_cell(cell, out);
        // Fault seams on a sync completion publish: a dropped completion
        // (the caller MUST hold a deadline or it spins forever —
        // chaos-only) and a delayed one (the failpoint burns its delay
        // budget first).
        if (w != nullptr && HPPC_FAULT_POINT("rt.xcall.complete.drop")) {
          slot.counters.inc(obs::Counter::kFaultsInjected);
          HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(),
                           slot.self_id, obs::TraceEvent::kFaultInject,
                           cell.ep);
          return;
        }
        if (w != nullptr && HPPC_FAULT_POINT("rt.xcall.complete.delay")) {
          slot.counters.inc(obs::Counter::kFaultsInjected);
          HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(),
                           slot.self_id, obs::TraceEvent::kFaultInject,
                           cell.ep);
        }
      }
    }
    if (w == nullptr) return;
    // Publish completion (release exchange) — one shared-line RMW.
    if (w->complete(rc)) {
      // The completing exchange found the parked bit: we just futex-woke
      // a waiter that gave up its timeslice to us.
      slot.counters.inc(obs::Counter::kWaiterKicks);
#if defined(HPPC_TRACE) && HPPC_TRACE
      // The kick instant carries the cell's request ids so the exported
      // trace shows WHICH call's completion woke the parked waiter.
      slot.trace_ring.record_span(
          obs::host_trace_now(), static_cast<std::uint16_t>(slot.self_id),
          obs::TraceEvent::kWaiterKick, cell_ep(cell.ep), cell.tctx.trace_id,
          cell.tctx.span_id, 0);
#endif
    }
    slot.counters.inc(obs::Counter::kSharedLinesTouched);
  });
  if (n > 0) {
    // Drain accounting: xcall_cells_drained is the telemetry layer's
    // drain-rate source; the batch-size histogram shows how well doorbell
    // coalescing is amortizing cross-slot transfers.
    slot.counters.inc(obs::Counter::kXcallBatches);
    slot.counters.inc(obs::Counter::kXcallCellsDrained, n);
    slot.hists->record(obs::Hist::kDrainBatch, n);
    HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                     obs::TraceEvent::kXcallBatch, n);
  }
  return n;
}

std::size_t Runtime::drain_mask(Slot& slot,
                                std::atomic<std::uint64_t>& mask) {
  // One acquire exchange claims every doorbell rung so far; the acquire
  // pairs with the producers' release fetch_or, so a flagged ring's cells
  // are visible. Bits we consume but whose ring refills mid-drain are
  // re-armed below — the consumer never strands a cell behind a bit a
  // producer believes is still set.
  std::uint64_t ready = mask.exchange(0, std::memory_order_acquire);
  if (ready == 0) return 0;
  const std::uint32_t nslots = registry_.capacity();
  std::size_t done = 0;
  while (ready != 0) {
    const auto b = static_cast<std::uint32_t>(std::countr_zero(ready));
    ready &= ready - 1;
    // Bit 63 aliases every producer at or beyond the mask width.
    const std::uint32_t last = (b == 63 && nslots > 64) ? nslots - 1 : b;
    for (std::uint32_t src = b; src <= last && src < nslots; ++src) {
      done += drain_ring(slot, slot.rings[src]);
      if (slot.rings[src].has_pending()) {
        mask.fetch_or(doorbell_bit(src), std::memory_order_relaxed);
      }
    }
  }
  return done;
}

std::size_t Runtime::drain_ready(Slot& slot) {
  // Interactive-first drain ordering: the interactive doorbell word is
  // served to empty before the bulk word is even consulted, so a slot
  // with both classes queued retires the latency-sensitive work first.
  // Starvation is bounded by the ring capacities: one drain_ready pass
  // serves at most one batch per flagged interactive ring, then ALWAYS
  // falls through to the bulk word.
  std::size_t done = drain_mask(slot, slot.ready_mask);
  if (slot.bulk_ready_mask.load(std::memory_order_relaxed) != 0) {
    if (done != 0) {
      // Bulk work sat queued while interactive doorbells were served.
      slot.counters.inc(obs::Counter::kBulkDrainsDeferred);
    }
    done += drain_mask(slot, slot.bulk_ready_mask);
  }
  return done;
}

std::size_t Runtime::drain_all(Slot& slot) {
  // Full O(nslots) sweep: the periodic backstop that makes a lost doorbell
  // a latency blip instead of a hang. Clears the masks first so a bit for
  // a ring this sweep is about to drain anyway is not left rung. Re-arms
  // conservatively into the interactive mask (the sweep cannot know which
  // class refilled a ring — promoting is the safe direction).
  slot.ready_mask.exchange(0, std::memory_order_acquire);
  slot.bulk_ready_mask.exchange(0, std::memory_order_acquire);
  std::size_t done = 0;
  for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
    done += drain_ring(slot, slot.rings[src]);
    if (slot.rings[src].has_pending()) {
      slot.ready_mask.fetch_or(doorbell_bit(src), std::memory_order_relaxed);
    }
  }
  return done;
}

void Runtime::ring_doorbell(Slot& me, Slot& tgt, SlotId src, bool bulk) {
  // Doorbell coalescing: while the bit is already set the consumer is
  // guaranteed to visit the ring (or re-arm the bit itself), so the post
  // can skip the shared-line RMW entirely — that is what lets a burst of
  // posts cost ~one cross-slot line transfer instead of one each. Bulk
  // posts ring the bulk word, which the consumer serves only after the
  // interactive one — drain priority decided at the doorbell, free of
  // per-cell cost.
  std::atomic<std::uint64_t>& mask =
      bulk ? tgt.bulk_ready_mask : tgt.ready_mask;
  const std::uint64_t bit = doorbell_bit(src);
  if ((mask.load(std::memory_order_relaxed) & bit) != 0) {
    me.counters.inc(obs::Counter::kReadyMaskSkips);
    return;
  }
  mask.fetch_or(bit, std::memory_order_release);
}

bool Runtime::any_ring_pending(const Slot& slot) const {
  for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
    if (slot.rings[src].has_pending()) return true;
  }
  return false;
}

bool Runtime::help_drain(Slot& target, SlotId self) {
  if (!target.gate.try_steal()) return false;
  drain_ready(target);
  // Always sweep our own channel: a waiter rescuing its own call must not
  // depend on its doorbell having survived the set/clear race.
  drain_ring(target, target.rings[self]);
  target.gate.release_steal();
  return true;
}

CancelToken Runtime::cancel_token_create() {
  // Wait-free monotonic allocation. Values whose pool-index lane is zero
  // are skipped — 0 in the cell's token lane means "not cancellable", so
  // no real token may alias it. The pool is generation-free: reuse needs
  // kMaxCancelTokens intervening allocations, and a stale cancel on a
  // recycled index is a benign spurious kCallAborted (see request_ctx.h).
  std::uint32_t t;
  do {
    t = next_cancel_token_->fetch_add(1, std::memory_order_relaxed);
  } while ((t & kCellTokenLaneMask) == 0);
  cancel_flags_[t & kCellTokenLaneMask].store(0, std::memory_order_relaxed);
  return t;
}

bool Runtime::cancel_requested(CancelToken token) const {
  return token != 0 && cancel_flags_[token & kCellTokenLaneMask].load(
                           std::memory_order_acquire) != 0;
}

void Runtime::cancel(CancelToken token) {
  if (token == 0) return;
  shared_.inc(obs::Counter::kCancelRequests);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  // Raise the flag first: every seam (admission, drain, give-up loops,
  // cooperative handler polls) observes it from here on.
  cancel_flags_[token & kCellTokenLaneMask].store(1,
                                                  std::memory_order_release);
  if (HPPC_FAULT_POINT("rt.cancel.sweep")) {
    // Delay seam between flag-raise and sweep: widens the window where a
    // cancelled cell is still in a ring, so the soak exercises the
    // drain-side kCallAborted path rather than only the sweep.
    shared_.inc(obs::Counter::kFaultsInjected);
  }
  // Sweep: drain every slot's rings so matching in-flight cells complete
  // (with kCallAborted, via the drain-side token check) instead of waiting
  // for the server's next natural pass — this is what turns a cancel of a
  // PARKED caller into a prompt kick. The existing abandon/complete CAS
  // protocol does the lifetime work; the sweep only forces the drain.
  for (auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (!slot.gate.try_steal()) continue;  // owner will drain on its own
    drain_all(slot);
    slot.gate.release_steal();
  }
}

bool Runtime::cancellation_requested(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  const RequestCtx& req = slots_[slot]->cur_req;
  return cancel_requested(req.cancel_token) || req.expired(host_cycles());
}

void Runtime::set_request_ctx(SlotId slot, const RequestCtx& ctx) {
  HPPC_ASSERT(slot < slots_.size());
  slots_[slot]->cur_req = ctx;
}

RequestCtx Runtime::request_ctx(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->cur_req;
}

void Runtime::clear_request_ctx(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  slots_[slot]->cur_req = RequestCtx{};
}

XcallWait* Runtime::acquire_wait(Slot& me) {
  // Reap zombies first: an abandoned block becomes recyclable once the
  // server's final store (completion or abandonment ack) sets kDoneBit. A
  // block whose server never answers (the dropped-completion failpoint)
  // stays parked here — bounded by the number of drops, freed at ~Runtime.
  XcallWait** prev = &me.wait_zombies;
  while (XcallWait* z = *prev) {
    if (z->server_finished()) {
      *prev = z->next;
      z->reset();
      z->next = me.wait_free;
      me.wait_free = z;
    } else {
      prev = &z->next;
    }
  }
  XcallWait* w = me.wait_free;
  if (w != nullptr) {
    me.wait_free = w->next;
    w->next = nullptr;
    return w;
  }
  // Pool growth (slow path): the block lives on the caller slot's node —
  // the spinner polls it far more often than the server stores to it.
  w = arena_.create<XcallWait>(me.node);
  me.owned_waits.push_back(w);
  return w;
}

void Runtime::release_wait(Slot& me, XcallWait* w) {
  w->reset();
  w->next = me.wait_free;
  me.wait_free = w;
}

// ---------------------------------------------------------------------------
// The frame ABI (Figure 4 register contract)
// ---------------------------------------------------------------------------

FrameServiceId Runtime::bind_frame(ProgramId program, FrameFn fn,
                                   void* self) {
  HPPC_ASSERT(fn != nullptr);
  shared_.inc(obs::Counter::kBinds);
  shared_.inc(obs::Counter::kLocksTaken);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  std::lock_guard<std::mutex> lock(bind_mutex_);
  HPPC_ASSERT_MSG(next_frame_service_ < kMaxFrameServices,
                  "out of frame services");
  const FrameServiceId id = next_frame_service_++;
  FrameService& fs = frame_services_[id];
  // self/program are plain members: published by the fn release-store and
  // immutable afterwards (unbind only clears fn).
  fs.self = self;
  fs.program = program;
  fs.fn.store(fn, std::memory_order_release);
  return id;
}

Status Runtime::frame_shim_fn(void* self, FrameCtx& ctx, CallFrame& f) {
  auto* shim = static_cast<FrameShim*>(self);
  // The op word's low half IS the legacy opflags word; w[0..6] map onto
  // regs[0..6]. w[7] has no legacy equivalent and passes through.
  RegSet regs;
  for (std::size_t i = 0; i < ppc::kOpWord; ++i) regs[i] = f.w[i];
  regs[ppc::kOpWord] = frame_opflags_of(f.op);
  const Status rc = shim->rt->call(ctx.slot, ctx.caller, shim->ep, regs);
  for (std::size_t i = 0; i < ppc::kOpWord; ++i) f.w[i] = regs[i];
  return rc;
}

FrameServiceId Runtime::bind_frame_shim(EntryPointId legacy) {
  // The shim record is immutable after construction and must outlive every
  // call through it: arena storage, freed with the runtime.
  auto* shim = arena_.create<FrameShim>(/*node=*/0);
  shim->rt = this;
  shim->ep = legacy;
  return bind_frame(/*program=*/0, &Runtime::frame_shim_fn, shim);
}

Status Runtime::unbind_frame(FrameServiceId id) {
  if (id >= kMaxFrameServices) return Status::kNoSuchEntryPoint;
  shared_.inc(obs::Counter::kSharedLinesTouched);
  if (frame_services_[id].fn.exchange(nullptr, std::memory_order_acq_rel) ==
      nullptr) {
    return Status::kNoSuchEntryPoint;
  }
  return Status::kOk;
}

Status Runtime::execute_frame(Slot& slot, ProgramId caller, CallFrame& f) {
  const FrameServiceId id = frame_service_of(f.op);
  const FrameFn fn = id < kMaxFrameServices
                         ? frame_services_[id].fn.load(std::memory_order_acquire)
                         : nullptr;
  if (fn == nullptr) {
    f.op = frame_with_rc(f.op, Status::kNoSuchEntryPoint);
    return Status::kNoSuchEntryPoint;
  }
  // The entire observed cost beyond the handler: one single-writer counter
  // store. No worker, no CD, no histogram, no trace hook — this is the
  // lane the Figure-2 numbers are chased on.
  slot.counters.inc(obs::Counter::kCallsFrame);
  FrameCtx ctx{this, slot.self_id, caller};
  const Status rc = fn(frame_services_[id].self, ctx, f);
  f.op = frame_with_rc(f.op, rc);
  return rc;
}

Status Runtime::call_frame(SlotId slot_id, ProgramId caller, CallFrame& f) {
  HPPC_ASSERT(slot_id < slots_.size());
  return execute_frame(*slots_[slot_id], caller, f);
}

// ---------------------------------------------------------------------------
// The cross-slot call pipeline
// ---------------------------------------------------------------------------
//
// All five call_remote* lanes run the same machinery, as the paper runs its
// sync, async, interrupt and upcall PPC variants on one: admit() folds the
// request context and screens it, run_direct() executes on an idle target
// under a gate steal, post_cells() publishes cells under the retry policy,
// and collect() waits the completions out. A lane is only a cell encoder —
// what a cell carries and where its reply lands — plus its Lane traits.

/// call_remote (K = 1) and call_remote_batch (K = a ring's worth): typed
/// requests whose request context rides every cell.
template <std::size_t K>
struct Runtime::TypedCalls {
  static constexpr std::size_t kChunk = K;
  static constexpr Lane kLane =
      K == 1 ? Lane{obs::Hist::kRttRemote, obs::SpanKind::kRemoteCall,
                    obs::SpanKind::kRemoteDirect, true}
             : Lane{obs::Hist::kRttBatched, obs::SpanKind::kBatch,
                    obs::SpanKind::kBatch, true};
  ProgramId caller;
  EntryPointId id;
  std::span<RegSet> regs;

  std::size_t size() const { return regs.size(); }
  Status run(Runtime& rt, Slot& tgt, std::size_t i) {
    return rt.execute_remote(tgt, caller, id, regs[i]);
  }
  /// Stack waits reply straight into the caller's register file.
  RegSet* reply_in_place(std::size_t i) { return &regs[i]; }
  /// `reply` (null: no reply, only status `s`) carries its own rc.
  void fill(XcallCell& cell, std::size_t i, XcallWait* w, const Call& c) {
    encode_call(cell, caller, cell_pack_ep(id, c.req.cancel_token, c.bulk),
                regs[i], w, c.req.abs_deadline_cycles, &c.post_ctx);
  }
  void finish(std::size_t i, const RegSet* reply, Status s) {
    if (reply == nullptr) {
      set_rc(regs[i], s);
    } else if (reply != &regs[i]) {
      regs[i] = *reply;
    }
  }
};

/// call_remote_frame (K = 1) and call_remote_frame_batch: Figure-4 frames
/// inline in the cell. The op word takes the cell's deadline lane, so the
/// request context is screened at admission only (docs/XCALL.md), and the
/// lane books no histogram and mints no span.
template <std::size_t K>
struct Runtime::FrameCalls {
  static constexpr std::size_t kChunk = K;
  static constexpr Lane kLane{obs::Hist::kCount, obs::SpanKind::kCount,
                              obs::SpanKind::kCount, false};
  ProgramId caller;
  std::span<CallFrame> frames;

  std::size_t size() const { return frames.size(); }
  Status run(Runtime& rt, Slot& tgt, std::size_t i) {
    return rt.execute_frame(tgt, caller, frames[i]);
  }
  /// Replies land in the wait block's inline buffer.
  RegSet* reply_in_place(std::size_t) { return nullptr; }
  void fill(XcallCell& cell, std::size_t i, XcallWait* w, const Call&) {
    encode_frame(cell, caller, frames[i], w, nullptr);
  }
  void finish(std::size_t i, const RegSet* reply, Status s) {
    if (reply != nullptr) frames[i].w = reply->w;
    frames[i].op = frame_with_rc(frames[i].op, s);
  }
};

Status Runtime::service_status(EntryPointId id) const {
  const Service* svc = lookup(id);
  if (svc == nullptr) return Status::kNoSuchEntryPoint;
  switch (svc->state.load(std::memory_order_acquire)) {
    case SvcState::kActive: return Status::kOk;
    case SvcState::kDraining: return Status::kEntryPointDraining;
    default: return Status::kNoSuchEntryPoint;
  }
}

void Runtime::book_refused(Call& c, Status s, std::size_t n) {
  const bool expired = s == Status::kDeadlineExceeded;
  c.me.counters.inc(
      expired ? obs::Counter::kDeadlineExceeded : obs::Counter::kCallsCancelled,
      n);
  HPPC_TRACE_EVENT(c.me.trace_ring, obs::host_trace_now(), c.src,
                   expired ? obs::TraceEvent::kDeadlineExceeded
                           : obs::TraceEvent::kCallCancelled,
                   c.target);
}

void Runtime::open_span(Call& c, obs::SpanKind kind) {
  // Minted lazily, on the first pass, so a single call's span names the
  // path it took (ring or direct); it must exist before a cell is filled,
  // since the cell carries it to the server slot.
  if (!kTraced || c.span_open || kind == obs::SpanKind::kCount ||
      !c.parent.traced()) {
    return;
  }
  c.span_open = true;
  c.span = begin_span(c.me, kind, c.parent.trace_id, c.parent.span_id);
  if (c.span != 0) c.post_ctx.span_id = c.span;
}

void Runtime::record_rtt(Call& c, obs::Hist h, std::uint64_t dt) {
  c.me.hists->record(h, dt);
  if (c.bulk) c.me.hists->record(obs::Hist::kRttBulk, dt);
}

Status Runtime::admit(Call& c, const Lane& lane, std::size_t n) {
  // Fold the per-call knobs into the ambient request the caller is already
  // executing under: the relative deadline converts to an absolute budget
  // exactly once (with_budget) and clamps against the inherited one —
  // tighten, never extend — while the token and class default to the
  // ambient values, so a context installed at the root rides every hop.
  Slot& me = c.me;
  const RequestCtx& ambient = me.cur_req;
  c.req = ambient;
  c.req.abs_deadline_cycles = c.opts.with_budget(ambient.abs_deadline_cycles);
  if (c.opts.cancel_token != 0) c.req.cancel_token = c.opts.cancel_token;
  if (c.opts.traffic_class == TrafficClass::kBulk) {
    c.req.traffic_class = TrafficClass::kBulk;
  }
  c.bulk = c.req.traffic_class == TrafficClass::kBulk;
  if (lane.ctx_in_cell && ambient.abs_deadline_cycles != 0 &&
      c.req.abs_deadline_cycles == ambient.abs_deadline_cycles) {
    me.counters.inc(obs::Counter::kDeadlineInherited);
  }

  // Screen: a call whose budget is already spent — or whose root was
  // cancelled — never touches the target. Every refusal books one count
  // per refused call.
  const std::uint64_t deadline = c.req.abs_deadline_cycles;
  Status s = Status::kOk;
  if (deadline != 0 && host_cycles() >= deadline) {
    s = Status::kDeadlineExceeded;
  } else if (c.req.cancel_token != 0 && cancel_requested(c.req.cancel_token)) {
    s = Status::kCallAborted;
  }
  if (s != Status::kOk) {
    book_refused(c, s, n);
    return s;
  }
  // Shed: refuse at the door while the target's queue is over the CLASS's
  // watermark — a lower bulk watermark makes bulk traffic absorb the
  // shedding while interactive calls keep being admitted.
  const std::uint32_t watermark = shed_watermark(c.req.traffic_class);
  if (watermark != 0 && xcall_depth(c.target) >= watermark) {
    me.counters.inc(obs::Counter::kCallsShed, n);
    if (c.bulk) me.counters.inc(obs::Counter::kCallsShedBulk, n);
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), c.src,
                     obs::TraceEvent::kCallShed, c.target);
    return Status::kOverloaded;
  }
  if (c.bulk) me.counters.inc(obs::Counter::kCallsBulk, n);
  if (kTraced && lane.ctx_in_cell && me.cur_trace.traced()) {
    c.parent = me.cur_trace;
    c.post_ctx = c.parent;
    ++c.post_ctx.hop;
  }
  return Status::kOk;
}

template <typename Enc>
std::size_t Runtime::run_direct(Call& c, Enc& enc, std::size_t i) {
  // The target is parked: run every still-unsubmitted call right here,
  // against its pools (LRPC-style migration) — no context switch, no
  // allocation, two shared RMWs (steal + release). The stolen slot runs
  // under the caller's request and trace contexts, installed by hand (the
  // same save/restore the drain does for ring cells), so nested calls the
  // handlers make inherit the budget, the token and the span.
  Slot& tgt = c.tgt;
  const std::size_t n = enc.size();
  c.me.counters.inc(obs::Counter::kSharedLinesTouched, 2);
  tgt.counters.inc(obs::Counter::kXcallDirect, n - i);
  const RequestCtx saved_req = tgt.cur_req;
  const obs::TraceCtx saved_trace = tgt.cur_trace;
  const bool traced = kTraced && c.post_ctx.traced();
  if constexpr (Enc::kLane.ctx_in_cell) tgt.cur_req = c.req;
  if (traced) tgt.cur_trace = c.post_ctx;
  for (; i < n; ++i) {
    const Status s = enc.run(*this, tgt, i);
    if (c.overall == Status::kOk) c.overall = s;
  }
  if constexpr (Enc::kLane.ctx_in_cell) tgt.cur_req = saved_req;
  if (traced) tgt.cur_trace = saved_trace;
  // Help while we hold the slot: retire anything ring-queued behind us.
  drain_ready(tgt);
  tgt.gate.release_steal();
  return i;
}

template <std::size_t K, typename Fill>
std::size_t Runtime::post_cells(Call& c, RetryPolicy retry,
                                std::size_t remaining, std::size_t want,
                                Fill&& fill, Status& give_up) {
  Slot& me = c.me;
  // Fault seams: a delay before the publish (a producer preempted between
  // claim intent and post — for batches, consumers then observe a claimed-
  // but-unpublished run behind a published one), and a forced full ring so
  // tests drive the overflow branch without 64 parked cells.
  if (HPPC_FAULT_POINT(K > 1 ? "rt.xcall.batch.post" : "rt.xcall.post")) {
    me.counters.inc(obs::Counter::kFaultsInjected);
    HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), c.src,
                     obs::TraceEvent::kFaultInject, c.target);
  }
  bool force_full = HPPC_FAULT_POINT("rt.xcall.ring_full");
  if (force_full) me.counters.inc(obs::Counter::kFaultsInjected);

  // One claim/publish per attempt. A full ring means other callers are
  // ahead of us; what happens next is the retry policy: kBlock helps or
  // yields forever, kBackoff burns a doubling cpu_relax budget per round
  // and gives up with kOverloaded after `backoff_rounds`, kFailFast gives
  // up at once. A budget that expires — or a token cancelled — while the
  // post cannot land gives up too: a call that cannot even be queued in
  // time was still too late.
  XcallRing& ring = c.tgt.rings[c.src];
  const std::uint64_t deadline = c.req.abs_deadline_cycles;
  for (std::uint32_t round = 0;; ++round) {
    const std::size_t posted = force_full ? 0 : ring.post(want, fill);
    if (posted != 0) {
      ring_doorbell(me, c.tgt, c.src, c.bulk);
      me.counters.inc(obs::Counter::kXcallPosts, posted);
      if constexpr (K > 1) {
        me.counters.inc(obs::Counter::kXcallBatchPosts);
        me.counters.inc(obs::Counter::kXcallCellsPerBatch, posted);
      }
      me.counters.inc(obs::Counter::kSharedLinesTouched, 2);
      HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), c.src,
                       K > 1 ? obs::TraceEvent::kXcallBatchPost
                             : obs::TraceEvent::kXcallPost,
                       K > 1 ? posted : c.target);
      return posted;
    }
    force_full = false;
    me.counters.inc(round == 0 ? obs::Counter::kXcallRingFull
                               : obs::Counter::kRetries);
    if (retry == RetryPolicy::kFailFast ||
        (retry == RetryPolicy::kBackoff && round >= c.opts.backoff_rounds)) {
      give_up = Status::kOverloaded;
    } else if (deadline != 0 && host_cycles() >= deadline) {
      give_up = Status::kDeadlineExceeded;
    } else if (c.req.cancel_token != 0 &&
               cancel_requested(c.req.cancel_token)) {
      give_up = Status::kCallAborted;
    }
    if (give_up != Status::kOk) {
      if (give_up != Status::kOverloaded) book_refused(c, give_up, remaining);
      return 0;
    }
    if (retry == RetryPolicy::kBackoff) {
      // Exponential backoff off the contended line, then one help attempt.
      const std::uint32_t spins = 1u << (round < 10 ? round : 10);
      for (std::uint32_t k = 0; k < spins; ++k) cpu_relax();
      me.counters.inc(obs::Counter::kBackoffCycles, spins);
    }
    if (!help_drain(c.tgt, c.src)) std::this_thread::yield();
  }
}

template <typename Enc>
void Runtime::collect(Call& c, Enc& enc, std::size_t i, std::size_t posted,
                      XcallWait* const* waits, std::uint64_t t0,
                      std::uint64_t post_t) {
  Slot& me = c.me;
  const std::uint64_t deadline = c.req.abs_deadline_cycles;
  const auto help = [this, &c] { help_drain(c.tgt, c.src); };
  // Adaptive yield budget, judged once per post: other producers'
  // doorbells pending at the target mean our cells sit behind a queue
  // spanning several drain passes — park after one courtesy round instead
  // of churning the scheduler. Alone, keep the long ladder (the server is
  // at most one pass away and a park would only add a wakeup). The
  // "rt.xcall.park.now" seam collapses the yield phase so tests can drive
  // the park/kick protocol deterministically.
  int yield_rounds = (c.tgt.ready_mask.load(std::memory_order_relaxed) &
                      ~doorbell_bit(c.src)) != 0
                         ? kWaitYieldRoundsContended
                         : kWaitYieldRounds;
  if (deadline == 0 && HPPC_FAULT_POINT("rt.xcall.park.now")) {
    me.counters.inc(obs::Counter::kFaultsInjected);
    yield_rounds = 0;
  }
  // The first waits dominate the wall time; later ones are usually
  // complete by the time we look.
  for (std::size_t k = 0; k < posted; ++k) {
    XcallWait& w = *waits[k];
    Status s;
    if (deadline == 0) {
      std::uint64_t park_t = 0;  // stamped at park, read after the kick
      s = wait_complete(w, yield_rounds, help, [&] {
        me.counters.inc(obs::Counter::kWaiterParks);
        park_t = host_cycles();
        HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), c.src,
                         obs::TraceEvent::kWaiterPark, c.target);
        // Delay seam inside the park decision (between the bookkeeping and
        // the CAS): widens the park-vs-complete race for the chaos soak.
        if (HPPC_FAULT_POINT("rt.xcall.park")) {
          me.counters.inc(obs::Counter::kFaultsInjected);
          HPPC_TRACE_EVENT(me.trace_ring, obs::host_trace_now(), c.src,
                           obs::TraceEvent::kFaultInject, c.target);
        }
      });
      if (park_t != 0) {
        me.hists->record(obs::Hist::kWakeup, host_cycles() - park_t);
      }
      enc.finish(i + k, &w.reply_target(), s);
    } else {
      bool timed_out = false;
      s = wait_complete_deadline(
          w, deadline, [] { return host_cycles(); }, help, &timed_out);
      if (timed_out) {
        // Abandoned: the block stays on the zombie list until the server's
        // drain acks it (or completes it — either sets kDoneBit).
        w.next = me.wait_zombies;
        me.wait_zombies = &w;
        book_refused(c, s, 1);
        enc.finish(i + k, nullptr, s);
      } else {
        enc.finish(i + k, &w.reply, s);  // copy out of the pooled block
        release_wait(me, &w);
      }
    }
    if (c.overall == Status::kOk) c.overall = s;
  }
  if constexpr (Enc::kLane.rtt != obs::Hist::kCount) {
    // Single calls also split out the ring wait (publish -> completion)
    // and book deadline calls under their own RTT class.
    constexpr bool kSingle = Enc::kChunk == 1;
    const std::uint64_t done_t = host_cycles();
    if (kSingle) me.hists->record(obs::Hist::kRingWait, done_t - post_t);
    record_rtt(c, kSingle && deadline != 0 ? obs::Hist::kRttDeadlined
                                           : Enc::kLane.rtt,
               done_t - t0);
  }
}

template <typename Enc>
Status Runtime::submit(Call& c, Enc& enc) {
  constexpr Lane kLane = Enc::kLane;
  constexpr std::size_t K = Enc::kChunk;
  const std::size_t n = enc.size();
  std::size_t i = 0;
  if (const Status s = admit(c, kLane, n); s != Status::kOk) {
    for (; i < n; ++i) enc.finish(i, nullptr, s);
    return s;
  }
  const bool pooled = c.req.abs_deadline_cycles != 0;
  while (i < n) {
    const std::uint64_t t0 =
        kLane.rtt != obs::Hist::kCount ? host_cycles() : 0;
    if (c.tgt.gate.try_steal()) {
      open_span(c, kLane.direct_span);
      i = run_direct(c, enc, i);
      if constexpr (kLane.rtt != obs::Hist::kCount) {
        record_rtt(c, kLane.rtt, host_cycles() - t0);
      }
      break;
    }
    // Ring path: claim a chunk with one CAS, publish it with one release
    // store, ring one doorbell, then collect.
    open_span(c, kLane.span);
    // No-deadline completion blocks live on this frame — sized to the
    // lane's chunk, so a single call carries one — and are cache-hot for
    // the spinner. Deadline calls ride slot-pooled blocks: a caller that
    // abandons leaves its in-flight cell pointing at storage the Runtime
    // owns. Zero heap allocations either way.
    const std::size_t want = std::min(n - i, K);
    std::array<XcallWait, K> stack_waits;
    std::array<XcallWait*, K> waits;
    for (std::size_t k = 0; k < want; ++k) {
      if (pooled) {
        waits[k] = acquire_wait(c.me);
      } else {
        stack_waits[k].regs = enc.reply_in_place(i + k);
        waits[k] = &stack_waits[k];
      }
    }
    Status give_up = Status::kOk;
    const std::size_t posted = post_cells<K>(
        c, c.opts.retry, n - i, want,
        [&](XcallCell& cell, std::size_t k) {
          enc.fill(cell, i + k, waits[k], c);
        },
        give_up);
    // Unpublished pooled blocks were never shared: straight back.
    for (std::size_t k = posted; pooled && k < want; ++k) {
      release_wait(c.me, waits[k]);
    }
    if (posted == 0) {
      for (; i < n; ++i) enc.finish(i, nullptr, give_up);
      if (c.overall == Status::kOk) c.overall = give_up;
      break;
    }
    const std::uint64_t post_t =
        kLane.rtt != obs::Hist::kCount ? host_cycles() : 0;
    collect(c, enc, i, posted, waits.data(), t0, post_t);
    i += posted;
  }
  if (c.span_open) {
    end_span(c.me, c.parent.trace_id, c.span, c.parent.span_id, c.overall);
  }
  return c.overall;
}

template <std::size_t K>
Status Runtime::call_typed(SlotId src, SlotId target, ProgramId caller,
                           EntryPointId id, std::span<RegSet> regs,
                           const CallOptions& opts) {
  HPPC_ASSERT(src < slots_.size());
  HPPC_ASSERT(target < slots_.size());
  Status overall = Status::kOk;
  if (target == src) {
    for (RegSet& r : regs) {
      const Status s = call(src, caller, id, r);
      if (overall == Status::kOk) overall = s;
    }
    return overall;
  }
  // Fail fast before touching the target: same screening as call().
  if (const Status s = service_status(id); s != Status::kOk) {
    for (RegSet& r : regs) set_rc(r, s);
    return s;
  }
  Call c{*slots_[src], *slots_[target], src, target, opts};
  TypedCalls<K> enc{caller, id, regs};
  return submit(c, enc);
}

template <std::size_t K>
Status Runtime::call_frames(SlotId src, SlotId target, ProgramId caller,
                            std::span<CallFrame> frames) {
  HPPC_ASSERT(src < slots_.size());
  HPPC_ASSERT(target < slots_.size());
  Status overall = Status::kOk;
  if (target == src) {
    for (CallFrame& f : frames) {
      const Status s = call_frame(src, caller, f);
      if (overall == Status::kOk) overall = s;
    }
    return overall;
  }
  if constexpr (K == 1) {
    // Screen before touching the target: an unbound service fails here,
    // not after a cell is in flight. (Frames in one batch may target
    // different services; each batched frame reports its own rc.)
    const FrameServiceId id = frame_service_of(frames[0].op);
    if (id >= kMaxFrameServices ||
        frame_services_[id].fn.load(std::memory_order_acquire) == nullptr) {
      frames[0].op = frame_with_rc(frames[0].op, Status::kNoSuchEntryPoint);
      return Status::kNoSuchEntryPoint;
    }
  }
  const CallOptions opts{};  // frames take the ambient context only
  Call c{*slots_[src], *slots_[target], src, target, opts};
  FrameCalls<K> enc{caller, frames};
  return submit(c, enc);
}

Status Runtime::call_remote(SlotId caller_slot, SlotId target,
                            ProgramId caller, EntryPointId id, RegSet& regs) {
  return call_remote(caller_slot, target, caller, id, regs, CallOptions{});
}

Status Runtime::call_remote(SlotId caller_slot, SlotId target,
                            ProgramId caller, EntryPointId id, RegSet& regs,
                            const CallOptions& opts) {
  return call_typed<1>(caller_slot, target, caller, id, {&regs, 1}, opts);
}

Status Runtime::call_remote_batch(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  std::span<RegSet> batch) {
  return call_remote_batch(caller_slot, target, caller, id, batch,
                           CallOptions{});
}

Status Runtime::call_remote_batch(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  std::span<RegSet> batch,
                                  const CallOptions& opts) {
  return call_typed<XcallRing::kCapacity>(caller_slot, target, caller, id,
                                          batch, opts);
}

Status Runtime::call_remote_frame(SlotId caller_slot, SlotId target,
                                  ProgramId caller, CallFrame& f) {
  return call_frames<1>(caller_slot, target, caller, {&f, 1});
}

Status Runtime::call_remote_frame_batch(SlotId caller_slot, SlotId target,
                                        ProgramId caller,
                                        std::span<CallFrame> batch) {
  return call_frames<XcallRing::kCapacity>(caller_slot, target, caller,
                                           batch);
}

Status Runtime::call_remote_async(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  RegSet regs) {
  return call_remote_async(caller_slot, target, caller, id, regs,
                           CallOptions{});
}

Status Runtime::call_remote_async(SlotId caller_slot, SlotId target,
                                  ProgramId caller, EntryPointId id,
                                  RegSet regs, const CallOptions& opts) {
  HPPC_ASSERT(caller_slot < slots_.size());
  HPPC_ASSERT(target < slots_.size());
  if (const Status s = service_status(id); s != Status::kOk) return s;
  if (target == caller_slot) {
    return call_async(caller_slot, caller, id, regs);
  }
  // A fire-and-forget call is still part of the root request: it carries
  // the clamped budget, the token and the class in its cell. With no
  // waiter to rescue it, expiry is enforced by the DRAIN — a cell reached
  // late is dropped (deadline_exceeded on the target), not executed late.
  Call c{*slots_[caller_slot], *slots_[target], caller_slot, target, opts};
  if (const Status s = admit(c, TypedCalls<1>::kLane, 1); s != Status::kOk) {
    return s;
  }
  // One post attempt: nobody waits for space to open up.
  Status full = Status::kOk;
  if (post_cells<1>(
          c, RetryPolicy::kFailFast, 1, 1,
          [&](XcallCell& cell, std::size_t) {
            encode_call(cell, caller,
                        cell_pack_ep(id, c.req.cancel_token, c.bulk), regs,
                        /*wait=*/nullptr, c.req.abs_deadline_cycles,
                        &c.post_ctx);
          },
          full) != 0) {
    return Status::kOk;
  }
  if (opts.retry == RetryPolicy::kFailFast) return Status::kOverloaded;
  // Overflow: this rare case rides the legacy allocating mailbox (and is
  // booked as such). The context still holds — the drain lambda re-checks
  // it before executing, exactly like a drained cell.
  post(target, [this, target, caller, id, regs, req = c.req]() mutable {
    Slot& slot = *slots_[target];
    const bool expired = req.expired(host_cycles());
    if (expired || cancel_requested(req.cancel_token)) {
      slot.counters.inc(expired ? obs::Counter::kDeadlineExceeded
                                : obs::Counter::kCallsCancelled);
      HPPC_TRACE_EVENT(slot.trace_ring, obs::host_trace_now(), slot.self_id,
                       expired ? obs::TraceEvent::kDeadlineExceeded
                               : obs::TraceEvent::kCallCancelled,
                       id);
      return;
    }
    const RequestCtx saved_req = slot.cur_req;
    slot.cur_req = req;
    execute_remote(slot, caller, id, regs);
    slot.cur_req = saved_req;
  });
  return Status::kOk;
}

void Runtime::enter_idle(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  slots_[slot_id]->gate.enter_idle();
}

void Runtime::exit_idle(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  slots_[slot_id]->gate.exit_idle();
}

std::size_t Runtime::serve(SlotId slot_id, const std::atomic<bool>& stop) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  std::size_t total = 0;
  while (!stop.load(std::memory_order_acquire)) {
    total += poll(slot_id);
    enter_idle(slot_id);
    // Parked: remote callers direct-execute (or help-drain) through the
    // gate; we only need to wake for control-plane mailbox posts, a rung
    // doorbell, or stop. The idle test is O(1) — one mask load, one
    // mailbox head load — with a periodic full ring scan as the backstop
    // for a doorbell lost to the benign set/clear race.
    std::uint32_t idle_rounds = 0;
    while (!stop.load(std::memory_order_acquire) &&
           slot.ready_mask.load(std::memory_order_relaxed) == 0 &&
           slot.bulk_ready_mask.load(std::memory_order_relaxed) == 0 &&
           slot.mailbox.empty()) {
      if (++idle_rounds >= 256) {
        idle_rounds = 0;
        if (any_ring_pending(slot)) break;
      }
      std::this_thread::yield();
    }
    exit_idle(slot_id);
  }
  total += poll(slot_id);
  return total;
}

std::size_t Runtime::poll(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
  // Control plane first (kill reclamation must not trail the calls it
  // affects longer than necessary), then one ring batch, then the async
  // queue — which reuses a member scratch buffer instead of constructing
  // a fresh vector every poll.
  std::size_t done = slot.mailbox.drain([&slot](std::function<void()>&& fn) {
    slot.counters.inc(obs::Counter::kMailboxDrains);
    fn();
  });
  // Ready-mask scheduling: drain only the producer rings whose doorbell is
  // rung — idle polls cost one exchange, busy ones O(popcount) — with a
  // full scan every kPollScanPeriod-th poll as the lost-doorbell backstop.
  if (++slot.polls_since_scan >= kPollScanPeriod) {
    slot.polls_since_scan = 0;
    done += drain_all(slot);
  } else {
    done += drain_ready(slot);
  }
  std::vector<DeferredCall>& pending = slot.deferred_scratch;
  pending.swap(slot.deferred);  // async calls made below land in deferred
  for (auto& d : pending) {
    RegSet regs = d.regs;
    // Queueing delay first (enqueue -> execution start), then execute
    // under the context the call was enqueued with, so the async span
    // parents to the caller's span even though it runs a poll later.
    if (d.enqueue_tsc != 0) {
      slot.hists->record(obs::Hist::kRttAsync, host_cycles() - d.enqueue_tsc);
    }
#if defined(HPPC_TRACE) && HPPC_TRACE
    const obs::TraceCtx saved = slot.cur_trace;
    std::uint32_t aspan = 0;
    if (d.tctx.traced()) {
      aspan = begin_span(slot, obs::SpanKind::kAsyncExec, d.tctx.trace_id,
                         d.tctx.span_id);
      slot.cur_trace = d.tctx;
      if (aspan != 0) slot.cur_trace.span_id = aspan;
    }
#endif
    // Execute under the request context the call was enqueued with: a
    // root that expired or was cancelled since enqueue is refused by the
    // screen inside call() instead of executing late.
    const RequestCtx saved_req = slot.cur_req;
    slot.cur_req = d.rctx;
    call(slot_id, d.caller, d.id, regs);  // results discarded (§4.4 async)
    slot.cur_req = saved_req;
#if defined(HPPC_TRACE) && HPPC_TRACE
    if (d.tctx.traced()) {
      slot.cur_trace = saved;
      end_span(slot, d.tctx.trace_id, aspan, d.tctx.span_id, rc_of(regs));
    }
#endif
    ++done;
  }
  pending.clear();  // keep capacity for the next poll
  return done;
}

void Runtime::post(SlotId target, std::function<void()> fn) {
  HPPC_ASSERT(target < slots_.size());
  // A post pushes onto another slot's MPSC list — shared traffic by
  // definition, booked on the shared block (the poster may not own a slot),
  // and it heap-allocates the list node: this is the control-plane path,
  // kept off every hot cross-slot call.
  shared_.inc(obs::Counter::kMailboxPosts);
  shared_.inc(obs::Counter::kMailboxAllocs);
  shared_.inc(obs::Counter::kSharedLinesTouched);
  slots_[target]->mailbox.post(std::move(fn));
}

Runtime::SlotStats Runtime::stats(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  const obs::SlotCounters& c = slots_[slot]->counters;
  SlotStats s;
  s.calls = c.get(obs::Counter::kCallsSync);
  s.async_calls = c.get(obs::Counter::kCallsAsync);
  s.worker_creations = c.get(obs::Counter::kWorkersCreated);
  s.cd_creations = c.get(obs::Counter::kCdsCreated);
  return s;
}

const obs::SlotCounters& Runtime::counters(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->counters;
}

obs::SlotCounters& Runtime::slot_counters(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->counters;
}

namespace {

/// Fill in the per-call pool counters the fast path deliberately does not
/// increment. Every executed call — same-slot sync or remotely executed —
/// acquires exactly one worker (pool hit or creation) and one CD (held,
/// recycled, or created), so per slot:
///   worker_pool_hits = calls_sync + calls_remote - workers_created
///   cd_recycles      = calls_sync + calls_remote - hold_cd_hits - cds_created
/// Both saturate at zero: a hold-CD worker's creation-time CD acquisition
/// happens outside any call, so the second identity can undershoot by at
/// most the number of such workers.
void derive_pool_counters(obs::CounterSnapshot& s) {
  auto get = [&s](obs::Counter c) { return s.get(obs::Counter{c}); };
  auto& hits = s.v[static_cast<std::size_t>(obs::Counter::kWorkerPoolHits)];
  const std::uint64_t calls = get(obs::Counter::kCallsSync) +
                              get(obs::Counter::kCallsRemote);
  const std::uint64_t created = get(obs::Counter::kWorkersCreated);
  hits = calls > created ? calls - created : 0;
  auto& rec = s.v[static_cast<std::size_t>(obs::Counter::kCdRecycles)];
  const std::uint64_t spent = get(obs::Counter::kHoldCdHits) +
                              get(obs::Counter::kCdsCreated);
  rec = calls > spent ? calls - spent : 0;
}

}  // namespace

obs::CounterSnapshot Runtime::slot_snapshot(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  obs::CounterSnapshot s = slots_[slot]->counters.snapshot();
  derive_pool_counters(s);
  return s;
}

obs::CounterSnapshot Runtime::snapshot() const {
  obs::CounterSnapshot s = shared_.snapshot();
  for (const auto& slot : slots_) {
    obs::CounterSnapshot per = slot->counters.snapshot();
    derive_pool_counters(per);
    s.merge(per);
  }
  // Arena gauges: point-in-time values overlaid (not summed) — the arena is
  // runtime-wide, not per-slot, so merging would double-count.
  const mem::ArenaStats a = arena_.stats();
  s.v[static_cast<std::size_t>(obs::Counter::kArenaBytesReserved)] =
      a.bytes_reserved;
  s.v[static_cast<std::size_t>(obs::Counter::kArenaHugepages)] = a.hugepages;
  s.v[static_cast<std::size_t>(obs::Counter::kArenaNodeMismatch)] =
      a.node_mismatches;
  return s;
}

obs::TraceRing& Runtime::trace_ring(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->trace_ring;
}

// ---------------------------------------------------------------------------
// Request tracing
// ---------------------------------------------------------------------------

std::uint32_t Runtime::begin_span(Slot& slot, obs::SpanKind kind,
                                  std::uint64_t trace_id,
                                  std::uint32_t parent) {
#if defined(HPPC_TRACE) && HPPC_TRACE
  // Degradation seam: a span that cannot be recorded is DROPPED (booked in
  // trace_drops, id 0 so downstream emission elides) — the call path never
  // blocks or fails on tracing's behalf.
  if (HPPC_FAULT_POINT("rt.trace.drop")) {
    slot.counters.inc(obs::Counter::kTraceDrops);
    slot.counters.inc(obs::Counter::kFaultsInjected);
    return 0;
  }
  // Slot-tagged span ids: two slots minting concurrently never collide,
  // and 0 stays reserved for "no span".
  std::uint32_t id = (slot.self_id << 24) | (slot.next_span++ & 0xFFFFFFu);
  if (id == 0) id = (slot.self_id << 24) | (slot.next_span++ & 0xFFFFFFu);
  slot.trace_ring.record_span(obs::host_trace_now(),
                              static_cast<std::uint16_t>(slot.self_id),
                              obs::TraceEvent::kSpanBegin,
                              static_cast<std::uint32_t>(kind), trace_id, id,
                              parent);
  return id;
#else
  (void)slot;
  (void)kind;
  (void)trace_id;
  (void)parent;
  return 0;
#endif
}

void Runtime::end_span(Slot& slot, std::uint64_t trace_id, std::uint32_t span,
                       std::uint32_t parent, Status rc) {
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (span == 0) return;  // dropped at begin — nothing to close
  slot.trace_ring.record_span(obs::host_trace_now(),
                              static_cast<std::uint16_t>(slot.self_id),
                              obs::TraceEvent::kSpanEnd,
                              static_cast<std::uint32_t>(rc), trace_id, span,
                              parent);
#else
  (void)slot;
  (void)trace_id;
  (void)span;
  (void)parent;
  (void)rc;
#endif
}

obs::TraceCtx Runtime::trace_begin(SlotId slot_id) {
  HPPC_ASSERT(slot_id < slots_.size());
#if defined(HPPC_TRACE) && HPPC_TRACE
  Slot& slot = *slots_[slot_id];
  obs::TraceCtx ctx;
  // Trace ids only need to be unique across concurrently-live traces; the
  // tsc sampled at root creation, salted with the slot id, is plenty (and
  // the |1 keeps 0 meaning "untraced" forever).
  ctx.trace_id = (host_cycles() << 8) | ((slot_id & 0x7Fu) << 1) | 1u;
  ctx.span_id = begin_span(slot, obs::SpanKind::kRoot, ctx.trace_id, 0);
  slot.cur_trace = ctx;
  return ctx;
#else
  (void)slot_id;
  return {};
#endif
}

void Runtime::trace_end(SlotId slot_id, Status rc) {
  HPPC_ASSERT(slot_id < slots_.size());
  Slot& slot = *slots_[slot_id];
#if defined(HPPC_TRACE) && HPPC_TRACE
  if (slot.cur_trace.traced()) {
    end_span(slot, slot.cur_trace.trace_id, slot.cur_trace.span_id, 0, rc);
  }
#else
  (void)rc;
#endif
  slot.cur_trace = obs::TraceCtx{};
}

void Runtime::set_trace_ctx(SlotId slot_id, const obs::TraceCtx& ctx) {
  HPPC_ASSERT(slot_id < slots_.size());
  slots_[slot_id]->cur_trace = ctx;
}

obs::TraceCtx Runtime::trace_ctx(SlotId slot_id) const {
  HPPC_ASSERT(slot_id < slots_.size());
  return slots_[slot_id]->cur_trace;
}

// ---------------------------------------------------------------------------
// Histograms & telemetry
// ---------------------------------------------------------------------------

const obs::SlotHistograms& Runtime::histograms(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return *slots_[slot]->hists;
}

obs::SlotHistograms& Runtime::slot_histograms(SlotId slot) {
  HPPC_ASSERT(slot < slots_.size());
  return *slots_[slot]->hists;
}

obs::HistSnapshot Runtime::hist_snapshot(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  return slots_[slot]->hists->snapshot();
}

obs::HistSnapshot Runtime::hist_snapshot() const {
  obs::HistSnapshot s;
  for (const auto& slot : slots_) s.merge(slot->hists->snapshot());
  return s;
}

obs::Telemetry Runtime::telemetry() {
  // Export failpoint: the chaos soak arms this to verify a telemetry
  // consumer failing mid-scrape degrades to an empty snapshot — derivation
  // state is left untouched, the runtime never notices.
  if (HPPC_FAULT_POINT("obs.export")) {
    shared_.inc(obs::Counter::kFaultsInjected);
    return obs::Telemetry{};
  }
  std::vector<obs::SlotWindow> windows;
  {
    std::lock_guard<std::mutex> lock(telemetry_.mu);
    const std::uint32_t n = registry_.capacity();
    const std::uint64_t now_ns = obs::host_trace_now();
    const std::uint64_t now_cy = host_cycles();
    if (!telemetry_.primed) {
      telemetry_.prev_counters.resize(n);
      telemetry_.prev_hists.resize(n);
      telemetry_.occ_ewma.assign(n, 0.0);
    }
    const bool have_window = telemetry_.primed && now_ns > telemetry_.prev_ns;
    const double window_s =
        have_window ? static_cast<double>(now_ns - telemetry_.prev_ns) * 1e-9
                    : 0.0;
    // Calibrate the histogram tick from this window's own clock pair (the
    // hot paths record host_cycles() ticks; exports are in nanoseconds).
    const double cycles_per_ns =
        have_window ? static_cast<double>(now_cy - telemetry_.prev_cycles) /
                          static_cast<double>(now_ns - telemetry_.prev_ns)
                    : 0.0;
    windows.reserve(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      obs::SlotWindow w;
      w.slot = s;
      w.window_s = window_s;
      w.cycles_per_ns = cycles_per_ns;
      // Observer-side occupancy EWMA, advanced once per scrape.
      const auto depth = static_cast<double>(xcall_depth(s));
      double& e = telemetry_.occ_ewma[s];
      e = telemetry_.primed ? 0.25 * depth + 0.75 * e : depth;
      w.occupancy_ewma = e;
      const obs::CounterSnapshot cs = slots_[s]->counters.snapshot();
      const obs::HistSnapshot hs = slots_[s]->hists->snapshot();
      w.counters = cs.delta(telemetry_.prev_counters[s]);
      w.hists = hs.delta(telemetry_.prev_hists[s]);
      telemetry_.prev_counters[s] = cs;
      telemetry_.prev_hists[s] = hs;
      windows.push_back(w);
    }
    telemetry_.prev_ns = now_ns;
    telemetry_.prev_cycles = now_cy;
    telemetry_.primed = true;
  }
  shared_.inc(obs::Counter::kTelemetrySnaps);
  return obs::derive_telemetry(windows);
}

std::size_t Runtime::xcall_depth(SlotId slot) const {
  HPPC_ASSERT(slot < slots_.size());
  std::size_t depth = 0;
  for (std::uint32_t src = 0; src < registry_.capacity(); ++src) {
    depth += slots_[slot]->rings[src].depth();
  }
  return depth;
}

std::size_t Runtime::pooled_workers(SlotId slot, EntryPointId id) const {
  HPPC_ASSERT(slot < slots_.size());
  HPPC_ASSERT(id < kMaxEntryPoints);
  std::size_t n = 0;
  for (RtWorker* w = slots_[slot]->worker_pool[id]; w != nullptr;
       w = w->next) {
    ++n;
  }
  return n;
}

}  // namespace hppc::rt

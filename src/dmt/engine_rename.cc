/**
 * @file
 * Dispatch/rename stage: moves instructions from the per-thread fetch
 * queues into the trace buffer (level-2 window) and the execution
 * pipeline (level-1 window), performing trace-buffer renaming, physical
 * register allocation, LSQ allocation, branch checkpointing, thread
 * spawning, and dataflow-prediction watch matching.
 */

#include "dmt/engine.hh"

namespace dmt
{

void
DmtEngine::subscribePhys(PhysReg p, DynInst *d, int op)
{
    DMT_ASSERT(p != kNoPhysReg, "subscribe to no register");
    d->src_ready[op] = false;
    ++d->n_src_pending;
    psubs[static_cast<size_t>(p)].waiters.push_back(
        {d->self, static_cast<u8>(op)});
}

void
DmtEngine::resolveOperand(ThreadContext &t, const TBEntry &entry, int i,
                          DynInst *d)
{
    const SrcRef &ref = entry.src[i];
    switch (ref.kind) {
      case SrcRef::None:
        d->src_val[i] = 0;
        d->src_ready[i] = true;
        break;
      case SrcRef::ThreadInput: {
          IoInput &in = t.io.in[ref.reg];
          if (!in.used || entry.id < in.first_use_id)
              in.first_use_id = entry.id;
          in.used = true;
          if (in.valid) {
              d->src_val[i] = in.value;
              d->src_ready[i] = true;
              in.used_value = in.value;
          } else {
              d->src_ready[i] = false;
              ++d->n_src_pending;
              io_waiters[static_cast<size_t>(t.id)][ref.reg].push_back(
                  {d->self, static_cast<u8>(i)});
          }
          break;
      }
      case SrcRef::TbEntry: {
          if (!t.tb.contains(ref.tb_id)) {
              // Producer finally retired (head thread only): the value
              // is architectural.
              d->src_val[i] = retire_regs[ref.reg];
              d->src_ready[i] = true;
              break;
          }
          const TBEntry &p = t.tb.at(ref.tb_id);
          if (p.result_valid) {
              d->src_val[i] = p.result;
              d->src_ready[i] = true;
          } else {
              DMT_ASSERT(p.cur_phys != kNoPhysReg,
                         "producer entry without destination register");
              if (prf.ready(p.cur_phys)) {
                  d->src_val[i] = prf.value(p.cur_phys);
                  d->src_ready[i] = true;
              } else {
                  subscribePhys(p.cur_phys, d, i);
              }
          }
          break;
      }
    }
}

void
DmtEngine::armDataflowWatches(ThreadContext &t)
{
    t.df_watch.clear();
    if (!cfg.dataflow_prediction)
        return;
    const DfEntry *e = df_pred.lookup(t.start_pc);
    if (!e)
        return;
    for (int i = 0; i < e->n; ++i)
        t.df_watch.push_back({e->items[i].reg, e->items[i].modpc_lo});
}

void
DmtEngine::matchDataflowWatches(ThreadContext &producer, DynInst *d,
                                const TBEntry &entry)
{
    if (!cfg.dataflow_prediction || !entry.has_dest)
        return;
    const ThreadId succ = tree.successor(producer.id);
    if (succ == kNoThread)
        return;
    ThreadContext &s = ctx(succ);
    for (const DfWatch &w : s.df_watch) {
        if (w.reg == entry.dest
            && static_cast<u16>(entry.pc) == w.modpc_lo) {
            d->df_targets.push_back({s.id, s.gen, w.reg});
            ++stats_.df_matches;
        }
    }
}

ThreadId
DmtEngine::allocateContext(ThreadContext &parent)
{
    for (int i = 0; i < cfg.max_threads; ++i) {
        if (!threads[static_cast<size_t>(i)]->active)
            return i;
    }
    // Pre-emptive allocation (paper Section 3.1.2): the new thread —
    // which would sit immediately after its spawner — evicts the lowest
    // thread in the order list, unless the spawner *is* the lowest.
    const ThreadId lowest = tree.last();
    if (lowest == parent.id)
        return kNoThread;
    DMT_ASSERT(tree.leaf(lowest), "order-list tail has children");
    squashThread(ctx(lowest));
    return lowest;
}

void
DmtEngine::spawnThread(ThreadContext &parent, TBEntry &entry,
                       Addr start_pc, bool is_loop,
                       const ThreadBranchState &spawn_bstate)
{
    const ThreadId child_id = allocateContext(parent);
    if (child_id == kNoThread)
        return;

    ThreadContext &c = ctx(child_id);
    c.resetFor(child_id, cfg.tb_size);
    c.start_pc = c.pc = start_pc;
    c.spawn_point_pc = entry.pc;
    c.is_loop_thread = is_loop;
    c.was_spawned = true;

    // Sequencing state: cleared history, RAS copied from the spawner at
    // the spawn point (paper Section 3.1.4).  For an after-call thread
    // the pre-call RAS is exactly the stack the post-return code sees.
    c.bstate.history = 0;
    c.bstate.ras = spawn_bstate.ras;

    // Value-predicted inputs: the parent's register context at the
    // spawn point (paper Section 3.2.2).
    for (int ri = 0; ri < kNumLogRegs; ++ri) {
        const LogReg r = static_cast<LogReg>(ri);
        IoInput &in = c.io.in[r];
        in = IoInput{};
        if (!cfg.value_prediction) {
            if (r == 0) {
                in.valid = true;
                in.value = 0;
                in.valid_at_spawn = true;
            }
            continue;
        }
        u64 wid;
        if (parent.tb.lastWriter(r, &wid)) {
            if (!parent.tb.contains(wid)) {
                in.valid = true;
                in.value = retire_regs[r];
            } else {
                const TBEntry &pe = parent.tb.at(wid);
                if (pe.result_valid) {
                    in.valid = true;
                    in.value = pe.result;
                } else if (prf.ready(pe.cur_phys)) {
                    in.valid = true;
                    in.value = prf.value(pe.cur_phys);
                } else {
                    in.watch = pe.cur_phys;
                    psubs[static_cast<size_t>(pe.cur_phys)]
                        .io_subs.push_back({c.id, c.gen, r});
                }
            }
        } else {
            const IoInput &pin = parent.io.in[r];
            if (pin.valid) {
                in.valid = true;
                in.value = pin.value;
            } else if (pin.watch != kNoPhysReg) {
                in.watch = pin.watch;
                psubs[static_cast<size_t>(pin.watch)].io_subs.push_back(
                    {c.id, c.gen, r});
            }
        }
        // Fault injection: corrupt a value-predicted input at spawn.
        // Speculative-only state — the head-switch final check compares
        // every input against the architectural registers and files a
        // recovery walk for any mismatch, so retirement stays golden.
        // r0 is skipped: it is architecturally hardwired and exempt
        // from final validation.
        if (in.valid && r != 0
            && injector_.shouldInject(FaultSite::SpawnInput)) {
            in.value =
                injector_.corruptValue(FaultSite::SpawnInput, in.value);
        }
        in.valid_at_spawn = in.valid;
    }

    armDataflowWatches(c);
    // Inputs with an armed last-modifier watch are known-stale: rather
    // than execute with a value history says will change, let their
    // consumers wait for the modifier's writeback (dataflow_sync).
    if (cfg.dataflow_sync) {
        for (const DfWatch &w : c.df_watch) {
            IoInput &in = c.io.in[w.reg];
            in.valid = false;
            in.value = 0;
            in.watch = kNoPhysReg;
            in.valid_at_spawn = false;
        }
    }

    if (debug_trace)
        std::fprintf(stderr, "[%llu] spawn tid=%d start=0x%x parent=%d "
                     "at pc=0x%x loop=%d\n", (unsigned long long)now_,
                     child_id, start_pc, parent.id, entry.pc, is_loop);
    tree.addChild(parent.id, child_id);
    entry.child_tid = child_id;
    entry.child_gen = c.gen;
    if (is_loop)
        parent.loopSpawnedInsert(entry.pc);

    ++stats_.threads_spawned;
    emitTrace(TraceStage::Thread, TraceEventKind::ThreadSpawn, child_id,
              start_pc, static_cast<u64>(static_cast<i64>(parent.id)),
              is_loop ? 1 : 0);
}

void
DmtEngine::trySpawn(ThreadContext &parent, TBEntry &entry,
                    const ThreadBranchState &spawn_bstate)
{
    const Instruction &inst = entry.inst;
    const bool is_loop = inst.isBackwardBranch(entry.pc);

    // A stopped thread has already named its successor; anything it
    // spawned now would sit past its join point — always mispredicted.
    if (parent.stopped || parent.fetched_halt)
        return;

    Addr start;
    if (is_loop) {
        if (!cfg.spawn_on_loop)
            return;
        // An inner-loop thread spawns its fall-through thread at most
        // once (paper Section 3.1).
        if (parent.loopSpawnedContains(entry.pc))
            return;
        start = spawn_pred.predictAfterLoop(entry.pc);
    } else {
        if (!cfg.spawn_on_call)
            return;
        start = entry.pc + 4; // return address
    }

    if (!prog.validTextAddr(start))
        return;
    bool selected = spawn_pred.selected(start);
    // Fault injection: flip the thread-selection decision.  A spurious
    // spawn is cleaned up by join validation / the thread-misprediction
    // detector; a suppressed spawn only costs performance.
    if (injector_.shouldInject(FaultSite::SpawnDecision))
        selected = !selected;
    if (!selected) {
        ++stats_.spawns_suppressed;
        return;
    }
    // Don't spawn a thread the parent's frontend has already reached —
    // it would join immediately (tiny procedures).
    if (parent.pc == start)
        return;
    for (const FetchedInst &fi : parent.fq) {
        if (fi.pc == start)
            return;
    }

    spawnThread(parent, entry, start, is_loop, spawn_bstate);
}

bool
DmtEngine::dispatchOne(ThreadContext &t, const FetchedInst &fi)
{
    const Instruction &inst = fi.inst;

    // Speculative threads may not take the last window slots: the head
    // must always be able to dispatch (and run recovery), otherwise
    // stalled speculative consumers could wedge the whole machine.
    const int limit = isHead(t)
        ? cfg.window_size
        : cfg.window_size - 2 * cfg.fetch_block;
    if (window_used >= limit)
        return false;
    if (t.tb.full())
        return false;
    if (inst.isLoad() && lsq.lqFull(t.id))
        return false;
    if (inst.isStore() && lsq.sqFull(t.id))
        return false;

    TBEntry proto;
    proto.inst = inst;
    proto.pc = fi.pc;
    proto.predicted_taken = fi.pred.taken;
    proto.predicted_target = fi.pred.target;
    proto.history_used = fi.pred.history_used;
    proto.trace_next_pc = inst.isControl() && fi.pred.taken
        ? fi.pred.target : fi.pc + 4;
    proto.fetch_cycle = fi.fetch_cycle;
    proto.imiss_episode = fi.imiss_episode;

    const u64 id = t.tb.append(proto);
    TBEntry &entry = t.tb.at(id);

    if (inst.isLoad()) {
        entry.lq_id = lsq.allocLoad(t.id, t.gen, id);
        DMT_ASSERT(entry.lq_id >= 0, "load queue overflow after check");
    }
    if (inst.isStore()) {
        entry.sq_id = lsq.allocStore(t.id, t.gen, id);
        DMT_ASSERT(entry.sq_id >= 0, "store queue overflow after check");
    }

    // Checkpoint mispredictable control transfers for exact repair.
    // Fill the ring slot in place: every field is flat, so this never
    // allocates (the loop-spawned set is checkpointed as a mark, not a
    // copy — see BranchCheckpoint).
    if (inst.isCondBranch() || inst.isIndirect()) {
        BranchCheckpoint &cp = t.checkpoints.emplace(id);
        cp.writers = t.tb.writerSnapshot();
        cp.bstate = fi.has_bstate ? fi.bstate_before : t.bstate;
        cp.loop_mark = t.loop_spawned.size();
    }

    DynInst *d = pool.alloc();
    d->seq = next_seq++;
    d->tid = t.id;
    d->tgen = t.gen;
    d->tb_id = id;
    d->uid = entry.uid;
    d->inst = inst;
    d->pc = fi.pc;
    d->fetch_cycle = fi.fetch_cycle;
    d->dispatch_cycle = now_;

    if (entry.has_dest) {
        const PhysReg p = allocPhys();
        d->dest_phys = p;
        entry.cur_phys = p;
    }

    resolveOperand(t, entry, 0, d);
    resolveOperand(t, entry, 1, d);

    ++window_used;
    ++stats_.dispatched;
    emitTrace(TraceStage::Rename, TraceEventKind::InstDispatch, t.id,
              d->pc, entry.id);
    ++entry.dispatch_count;
    t.pipe.push_back(d->self);

    if (d->n_src_pending == 0)
        makeReady(d);

    matchDataflowWatches(t, d, entry);

    if (cfg.isDmt()
        && (inst.isCall() || inst.isBackwardBranch(fi.pc))) {
        trySpawn(t, entry,
                 fi.has_bstate ? fi.bstate_before : t.bstate);
    }
    return true;
}

void
DmtEngine::doDispatch()
{
    // Copy into a member scratch (capacity reused): dispatchOne may
    // spawn, which invalidates the tree's cached order mid-iteration.
    dispatch_order_scratch_.assign(tree.order().begin(),
                                   tree.order().end());
    const std::vector<ThreadId> &order = dispatch_order_scratch_;
    int budget = cfg.fetch_ports * cfg.fetch_block;

    for (ThreadId tid : order) {
        if (budget <= 0)
            break;
        ThreadContext &t = ctx(tid);
        // The trace-buffer instruction queue is single ported (paper
        // Section 4.4): while the recovery FSM is reading it, normal
        // dispatch (which writes it) waits.
        if (!t.active)
            continue;
        if (cfg.recovery_dispatch_stall >= 2 && t.recov.busy())
            continue;
        if (cfg.recovery_dispatch_stall == 1 && t.recov.walking())
            continue;
        while (budget > 0 && !t.fq.empty()
               && t.fq.front().ready_cycle <= now_) {
            if (!dispatchOne(t, t.fq.front()))
                break; // structural stall
            t.fq.pop_front();
            --budget;
        }
    }
}

} // namespace dmt

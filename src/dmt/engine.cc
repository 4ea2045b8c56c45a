#include "dmt/engine.hh"

#include <algorithm>
#include <cstdint>

#include "common/env.hh"
#include "common/strutil.hh"
#include "fault/auditor.hh"
#include "fault/postmortem.hh"
#include "sim/arch_state.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"

namespace dmt
{

DmtEngine::DmtEngine(const SimConfig &cfg_, const Program &prog_,
                     const Checkpoint *resume)
    : cfg(cfg_),
      prog(prog_),
      hier(cfg_.mem),
      bpu(cfg_.bpred),
      prf(cfg_.physRegCount()),
      lsq(cfg_.lqSize(), cfg_.sqSize(), cfg_.max_threads),
      tree(cfg_.max_threads),
      spawn_pred(cfg_.spawn_table_bits, cfg_.max_threads,
                 cfg_.min_thread_size),
      df_pred(),
      fus(cfg_.unlimited_fus, cfg_.fus, cfg_.lat_div)
{
    cfg.validate();
    if (const char *dbg = std::getenv("DMT_DEBUG"))
        debug_trace = dbg[0] != '0';
    cfg.watchdog_cycles = parseEnvU64("DMT_WATCHDOG", cfg.watchdog_cycles);
    cfg.audit_period = static_cast<int>(
        parseEnvU64("DMT_AUDIT", static_cast<u64>(cfg.audit_period), 0,
                    static_cast<u64>(INT32_MAX)));
    if (const char *crash = std::getenv("DMT_CRASH_FILE"))
        cfg.crash_file = crash;
    tracer_.configure(traceOptionsFromEnv(cfg.trace));
    injector_.configure(faultOptionsFromEnv(cfg.fault));
    if (resume) {
        DMT_ASSERT(!resume->state.halted,
                   "cannot resume from a halted checkpoint");
        DMT_ASSERT(resume->prog_hash == Checkpoint::programHash(prog),
                   "checkpoint was taken against a different program");
        mem = resume->mem;
    } else {
        mem.loadProgram(prog);
    }
    if (cfg.check_golden) {
        checker = resume
            ? std::make_unique<GoldenChecker>(prog, resume->state,
                                              resume->mem)
            : std::make_unique<GoldenChecker>(prog);
    }
    warmup_pending_ = cfg.warmup_retired > 0;

    psubs.resize(static_cast<size_t>(prf.count()));
    memdep.assign(kMemdepEntries, 0);
    io_waiters.resize(static_cast<size_t>(cfg.max_threads));

    // Pre-size output accumulators and per-slot waiter lists so
    // steady-state growth is rare (the hot loop itself never shrinks
    // these; see DESIGN.md section 11).  The per-register waiter
    // reserves cut the long per-slot warmup tail: without them each of
    // the hundreds of physical registers grows its own vector the
    // first few times it happens to collect subscribers.
    out_stream.reserve(4096);
    for (PhysSubs &s : psubs) {
        s.waiters.reserve(16);
        s.io_subs.reserve(16);
    }
    for (auto &per_thread : io_waiters) {
        for (auto &waiters : per_thread)
            waiters.reserve(16);
    }
    loop_watches.reserve(8);
    ready_q.reserve(static_cast<size_t>(cfg.window_size));
    issue_retry_scratch_.reserve(static_cast<size_t>(cfg.window_size));
    // A single calendar slot can in principle receive every in-flight
    // instruction (they all pick a completion cycle at issue), so
    // reserve each slot to the window bound.
    for (auto &slot : calendar)
        slot.reserve(static_cast<size_t>(cfg.window_size));
    drain_q.reserve(64);

    threads.reserve(static_cast<size_t>(cfg.max_threads));
    for (int i = 0; i < cfg.max_threads; ++i) {
        threads.emplace_back(std::make_unique<ThreadContext>());
        threads.back()->id = i;
        threads.back()->active = false;
    }

    // Bring up the initial (architectural) thread — at the program's
    // entry conditions, or at the checkpoint's mid-stream state.
    ThreadContext &t0 = *threads[0];
    t0.resetFor(0, cfg.tb_size);
    t0.start_pc = t0.pc = resume ? resume->state.pc : prog.entry;
    tree.resetWith(0);

    // Architectural initial register values are exact thread inputs.
    ArchState init;
    if (resume)
        init = resume->state;
    else
        init.reset(prog);
    for (int r = 0; r < kNumLogRegs; ++r) {
        IoInput &in = t0.io.in[static_cast<size_t>(r)];
        in.valid = true;
        in.value = init.regs[static_cast<size_t>(r)];
        in.valid_at_spawn = true;
        in.finalized = true;
        retire_regs[static_cast<size_t>(r)] =
            init.regs[static_cast<size_t>(r)];
    }
    head_validated = true;

    emitTrace(TraceStage::Thread, TraceEventKind::ThreadSpawn, 0,
              t0.start_pc, static_cast<u64>(static_cast<i64>(kNoThread)),
              0);
}

void
DmtEngine::beginMeasurement()
{
    warmup_pending_ = false;
    // Zero the stat block: measured cycles/retired/speculation counts
    // start at the warmup boundary.  The hierarchy keeps its (warm)
    // state; only the counts accumulated so far are subtracted from
    // the end-of-run snapshot.
    stats_ = DmtStats{};
    meas_il_miss_base_ = hier.l1i().misses();
    meas_il_hit_base_ = hier.l1i().hits();
    meas_dl_miss_base_ = hier.l1d().misses();
    meas_dl_hit_base_ = hier.l1d().hits();
}

void
DmtEngine::traceSampleTick()
{
    TraceSample s;
    s.cycle = now_;
    s.retired = stats_.retired.value();
    s.early_retired = stats_.early_retired.value();
    s.dispatched = stats_.dispatched.value();
    s.issued = stats_.issued.value();
    s.threads_spawned = stats_.threads_spawned.value();
    s.threads_squashed = stats_.threads_squashed.value();
    s.recoveries = stats_.recoveries.value();
    s.recovery_dispatches = stats_.recovery_dispatches.value();
    s.lsq_violations = stats_.lsq_violations.value();
    s.active_threads = tree.size();
    s.window_used = window_used;
    tracer_.sample(s);
}

ThreadContext &
DmtEngine::ctx(ThreadId tid)
{
    DMT_ASSERT(tid >= 0 && tid < cfg.max_threads, "bad tid %d", tid);
    return *threads[static_cast<size_t>(tid)];
}

const ThreadContext &
DmtEngine::ctx(ThreadId tid) const
{
    DMT_ASSERT(tid >= 0 && tid < cfg.max_threads, "bad tid %d", tid);
    return *threads[static_cast<size_t>(tid)];
}

ThreadContext *
DmtEngine::get(ThreadId tid, u32 gen)
{
    if (tid < 0 || tid >= cfg.max_threads)
        return nullptr;
    ThreadContext &t = *threads[static_cast<size_t>(tid)];
    return t.active && t.gen == gen ? &t : nullptr;
}

bool
DmtEngine::isHead(const ThreadContext &t) const
{
    return tree.head() == t.id;
}

PhysReg
DmtEngine::allocPhys()
{
    const PhysReg p = prf.alloc();
    DMT_ASSERT(p != kNoPhysReg,
               "physical register file exhausted (%d regs)", prf.count());
    // Any subscriptions left over from the previous incarnation of this
    // register are stale by construction (see engine.hh ownership
    // rules); drop them so the lists cannot grow without bound.
    psubs[static_cast<size_t>(p)].waiters.clear();
    psubs[static_cast<size_t>(p)].io_subs.clear();
    return p;
}

bool
DmtEngine::memdepConservative(Addr pc) const
{
    return memdep[(pc >> 2) & (kMemdepEntries - 1)] >= 2;
}

void
DmtEngine::memdepTrain(Addr pc, bool violated)
{
    u8 &c = memdep[(pc >> 2) & (kMemdepEntries - 1)];
    if (violated)
        c = static_cast<u8>(std::min<int>(c + 2, 3));
    else if (c > 0)
        --c;
}

bool
DmtEngine::memBefore(ThreadId tid_a, u64 tb_a, ThreadId tid_b,
                     u64 tb_b) const
{
    if (tid_a == tid_b)
        return tb_a < tb_b;
    return tree.before(tid_a, tid_b);
}

bool
DmtEngine::goldenOk() const
{
    return !checker || checker->ok();
}

std::string
DmtEngine::goldenError() const
{
    return checker ? checker->error() : std::string();
}

void
DmtEngine::step()
{
    DMT_ASSERT(!done_, "step() after completion");

    fus.newCycle(now_);

    doWriteback();
    doRecovery();
    doDispatch();
    doIssue();
    doFetch();
    doEarlyRetire();
    doStoreDrain();
    doFinalRetire();
    checkThreadMispredictions();

    stats_.active_threads.sample(static_cast<double>(tree.size()));

    if (tracer_.sampleDue(now_))
        traceSampleTick();

    // Prune lookahead episodes that can no longer match: any retiring
    // instruction was fetched at most a full pipeline lifetime ago.
    if ((now_ & 0x3FF) == 0) {
        const Cycle horizon = now_ > 100000 ? now_ - 100000 : 0;
        branch_eps.prune(horizon);
        imiss_eps.prune(horizon);
    }

    // Statistics warmup boundary: once enough instructions have finally
    // retired, restart measurement with warm caches/predictors.
    if (warmup_pending_ && retired_total >= cfg.warmup_retired)
        beginMeasurement();

    ++now_;
    ++stats_.cycles;

    // Invariant audit between cycles (zero cost when off: one compare).
    if (cfg.audit_period > 0
        && now_ % static_cast<Cycle>(cfg.audit_period) == 0) {
        InvariantAuditor::check(*this);
    }

    if (cfg.max_retired > 0 && retired_total >= cfg.max_retired)
        done_ = true;
    if (cfg.max_cycles > 0 && now_ >= cfg.max_cycles)
        done_ = true;
}

void
DmtEngine::run()
{
    u64 last_retired = 0;
    Cycle last_progress = 0;
    while (!done_) {
        step();
        if (retired_total != last_retired) {
            last_retired = retired_total;
            last_progress = now_;
        } else if (cfg.watchdog_cycles > 0
                   && now_ - last_progress > cfg.watchdog_cycles) {
            watchdogExpired();
        }
    }

    // Snapshot cache statistics into the stat block, net of whatever
    // accumulated before the measurement window opened.
    const u64 il_miss = hier.l1i().misses() - meas_il_miss_base_;
    const u64 il_hit = hier.l1i().hits() - meas_il_hit_base_;
    const u64 dl_miss = hier.l1d().misses() - meas_dl_miss_base_;
    const u64 dl_hit = hier.l1d().hits() - meas_dl_hit_base_;
    stats_.icache_misses += il_miss;
    stats_.icache_accesses += il_miss + il_hit;
    stats_.dcache_misses += dl_miss;
    stats_.dcache_accesses += dl_miss + dl_hit;

    tracer_.finish();
}

void
DmtEngine::watchdogExpired()
{
    // Name the context that stopped retiring: final retirement only
    // ever happens from the head thread, so describe its state.
    const ThreadId head = tree.head();
    std::string culprit;
    if (head == kNoThread) {
        culprit = "no active thread holds the retirement token";
    } else {
        const ThreadContext &h = ctx(head);
        const char *recov_state =
            h.recov.state == RecoveryFsm::State::Walk      ? "walking"
            : h.recov.state == RecoveryFsm::State::Latency ? "in latency"
                                                           : "idle";
        culprit = strprintf(
            "head tid %d stopped retiring (pc=0x%x, %d trace-buffer "
            "entries [%llu..%llu), %zu in pipe, %s, recovery %s with "
            "%zu queued, %d threads active)",
            head, h.pc, h.tb.size(),
            static_cast<unsigned long long>(h.tb.firstId()),
            static_cast<unsigned long long>(h.tb.endId()),
            h.pipe.size(), h.stopped ? "stopped" : "fetching",
            recov_state,
            static_cast<size_t>(h.recov.has_pending ? 1 : 0),
            tree.size());
    }
    std::string details = Postmortem::dump(*this, "watchdog", culprit);
    panicWithDetails(std::move(details),
                     "no retirement progress for %llu cycles at cycle "
                     "%llu (retired %llu): %s",
                     static_cast<unsigned long long>(cfg.watchdog_cycles),
                     static_cast<unsigned long long>(now_),
                     static_cast<unsigned long long>(retired_total),
                     culprit.c_str());
}

// ---------------------------------------------------------------------
// Squash machinery
// ---------------------------------------------------------------------

void
DmtEngine::squashDyn(DynInst *d)
{
    if (d->squashed)
        return;
    d->squashed = true;
    ++stats_.squashed_insts;
    if (!d->early_retired) {
        --window_used;
        if (d->dest_phys != kNoPhysReg)
            prf.free(d->dest_phys);
    }
    // The slab slot is released lazily when the pipe FIFO pops it; all
    // other references (ready queue, calendar, waiter lists) check the
    // squashed flag / generation.
}

void
DmtEngine::releaseEntryState(ThreadContext &t, TBEntry &entry,
                             bool squashed)
{
    if (entry.lq_id >= 0) {
        lsq.freeLoad(entry.lq_id);
        entry.lq_id = -1;
    }
    if (squashed && entry.sq_id >= 0) {
        // Scratch reference: fully consumed before the next freeStore.
        const Lsq::FreeStoreResult &result =
            lsq.freeStore(entry.sq_id, true);
        entry.sq_id = -1;
        handleLsqViolations(result.orphaned_loads);
        for (const DynRef &ref : result.stall_waiters) {
            DynInst *d = pool.get(ref);
            if (d && !d->squashed && d->state == DynState::Waiting)
                makeReady(d);
        }
    }
    if (squashed) {
        if (entry.branch_episode)
            branch_eps.drop(entry.branch_episode);
        if (entry.imiss_episode)
            imiss_eps.drop(entry.imiss_episode);
        if (entry.child_tid != kNoThread) {
            ThreadContext *child = get(entry.child_tid, entry.child_gen);
            if (child)
                squashThreadTree(child->id);
            entry.child_tid = kNoThread;
        }
    }
}

void
DmtEngine::inThreadSquash(ThreadContext &t, u64 from_tb_id,
                          Addr new_fetch_pc,
                          const BranchCheckpoint *checkpoint)
{
    if (debug_trace)
        std::fprintf(stderr, "[%llu] inThreadSquash tid=%d from=%llu "
                     "redirect=0x%x\n", (unsigned long long)now_, t.id,
                     (unsigned long long)from_tb_id, new_fetch_pc);
    // Frontend: everything fetched but not dispatched is younger than
    // any dispatched instruction.
    t.fq.clear();
    t.pending_imiss_episode = 0;

    // Squash in-flight incarnations belonging to dying entries.
    for (const DynRef &ref : t.pipe) {
        DynInst *d = pool.get(ref);
        if (d && !d->squashed && d->tb_id >= from_tb_id)
            squashDyn(d);
    }

    // Release per-entry state, newest first (child spawns etc.).
    for (u64 id = t.tb.endId(); id > from_tb_id; --id)
        releaseEntryState(t, t.tb.at(id - 1), true);
    t.tb.truncateFrom(from_tb_id);

    // Restore sequencing state.
    if (checkpoint) {
        t.tb.restoreWriters(checkpoint->writers);
        t.bstate = checkpoint->bstate;
        // loop_spawned is append-only between checkpoint and restore,
        // so truncating to the checkpoint's mark restores the exact
        // set (older checkpoints hold smaller marks, so their prefixes
        // survive this resize).
        DMT_ASSERT(checkpoint->loop_mark <= t.loop_spawned.size(),
                   "loop_spawned shrank below a live checkpoint");
        t.loop_spawned.resize(checkpoint->loop_mark);
    } else {
        // Divergence repair: rebuild the writer table by scanning the
        // surviving entries.
        TraceBuffer::WriterSnapshot snap{};
        snap.has_writer.fill(0);
        for (u64 id = t.tb.firstId(); id < t.tb.endId(); ++id) {
            const TBEntry &e = t.tb.at(id);
            if (e.has_dest) {
                snap.last_writer[e.dest] = id;
                snap.has_writer[e.dest] = 1;
            }
        }
        t.tb.restoreWriters(snap);
        // Writers that already finally retired are gone from the table;
        // for a (head) thread with a retired prefix, registers without
        // a surviving writer must read the architectural values at the
        // current retirement point, not the thread-start inputs.
        if (t.retired_count > 0) {
            for (int ri = 0; ri < kNumLogRegs; ++ri) {
                IoInput &in = t.io.in[static_cast<size_t>(ri)];
                in.valid = true;
                in.value = retire_regs[static_cast<size_t>(ri)];
                in.watch = kNoPhysReg;
            }
        }
    }

    // Discard checkpoints of squashed branches.  This runs before any
    // trace-buffer id is reused, which is what keeps the checkpoint
    // ring's ids strictly increasing.
    t.checkpoints.eraseFrom(from_tb_id);

    // Clamp the recovery FSM: pending work beyond the truncation point
    // is gone (the refetched entries read corrected state directly).
    RecoveryFsm &fsm = t.recov;
    if (fsm.state == RecoveryFsm::State::Walk
        && fsm.walk_pos >= t.tb.endId()) {
        fsm.state = RecoveryFsm::State::Idle;
    }
    if (fsm.state == RecoveryFsm::State::Latency
        && fsm.cur.start_tb_id >= t.tb.endId()) {
        fsm.state = RecoveryFsm::State::Idle;
        fsm.latency_left = 0; // canonical idle state (audited)
    }
    if (fsm.has_pending) {
        RecoveryRequest &r = fsm.pending;
        std::erase_if(r.load_roots,
                      [&](u64 id) { return !t.tb.contains(id); });
        if ((r.reg_mask == 0 && r.load_roots.empty())
            || r.start_tb_id >= t.tb.endId()) {
            r.clear();
            fsm.has_pending = false;
        }
    }

    // Redirect fetch.
    t.pc = new_fetch_pc;
    t.stopped = false;
    t.fetched_halt = false;
}

void
DmtEngine::squashThread(ThreadContext &t)
{
    DMT_ASSERT(t.active, "squashing inactive thread");
    if (debug_trace)
        std::fprintf(stderr, "[%llu] squashThread tid=%d start=0x%x\n",
                     (unsigned long long)now_, t.id, t.start_pc);

    t.fq.clear();
    for (const DynRef &ref : t.pipe) {
        DynInst *d = pool.get(ref);
        if (d && !d->squashed)
            squashDyn(d);
        if (d)
            pool.release(d);
    }
    t.pipe.clear();

    const u64 discarded = t.tb.endId() - t.tb.firstId();
    for (u64 id = t.tb.endId(); id > t.tb.firstId(); --id)
        releaseEntryState(t, t.tb.at(id - 1), true);
    t.tb.truncateFrom(t.tb.firstId());

    spawn_pred.onThreadSquashed(t.start_pc);
    ++stats_.threads_squashed;
    emitTrace(TraceStage::Thread, TraceEventKind::ThreadSquash, t.id,
              t.start_pc, discarded);

    // Resume the predecessor if it had stopped at our start PC.
    const ThreadId pred = tree.predecessor(t.id);
    tree.remove(t.id);
    t.active = false;
    ++t.gen;
    // Per-register clear (not fill({})) keeps each list's capacity.
    for (auto &waiters : io_waiters[static_cast<size_t>(t.id)])
        waiters.clear();

    if (pred != kNoThread) {
        ThreadContext &p = ctx(pred);
        if (p.stopped && !p.fetched_halt)
            p.stopped = false; // re-evaluated against the new successor
    }
}

void
DmtEngine::squashThreadTree(ThreadId tid)
{
    if (!tree.contains(tid))
        return;
    // Member scratch is safe: a nested squashThreadTree (via
    // releaseEntryState on a victim's child-spawning entry) can only
    // target a thread already squashed in this sweep — descendants go
    // first — so it returns on the contains() check above before
    // touching the scratch vectors.
    std::vector<ThreadId> &victims = squash_victims_scratch_;
    tree.subtreeInto(tid, &victims, &squash_stack_scratch_);
    // Squash leaves first so tree.remove never splices live children.
    for (size_t i = victims.size(); i > 0; --i)
        squashThread(ctx(victims[i - 1]));
}

void
DmtEngine::checkRegConservation()
{
    DMT_ASSERT(prf.numFree() == prf.count(),
               "physical register leak: %d of %d free", prf.numFree(),
               prf.count());
}

} // namespace dmt

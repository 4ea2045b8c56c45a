/**
 * @file
 * Hardware thread context: everything duplicated per thread in Figure
 * 1a of the paper — PC, rename tables (normal + recovery), trace
 * buffer, IO register file, branch sequencing state — plus the
 * simulator-side bookkeeping (fetch queue, in-pipeline FIFO, branch
 * checkpoints, recovery FSM).
 */

#ifndef DMT_DMT_THREAD_HH
#define DMT_DMT_THREAD_HH

#include <algorithm>
#include <vector>

#include "branch/predictor.hh"
#include "common/ring_queue.hh"
#include "dmt/checkpoint_ring.hh"
#include "dmt/dataflow_pred.hh"
#include "dmt/dyninst.hh"
#include "dmt/io_regfile.hh"
#include "dmt/recovery.hh"
#include "dmt/trace_buffer.hh"

namespace dmt
{

/**
 * Checkpoint taken at every mispredictable branch dispatch.  There is
 * no separate rename-map snapshot: register renaming is embodied in the
 * trace buffer's last-writer table (the "trace buffer rename unit"),
 * whose snapshot restores the mapping state exactly.
 */
struct BranchCheckpoint
{
    TraceBuffer::WriterSnapshot writers;
    ThreadBranchState bstate;
    /**
     * loop_spawned length at checkpoint time.  The spawned-loop set is
     * append-only between a checkpoint and its restore, so the prefix
     * of that length IS the checkpointed set — no copy needed (the old
     * code deep-copied a std::set into every checkpoint).
     */
    size_t loop_mark = 0;
};

/** An instruction in flight between fetch and dispatch. */
struct FetchedInst
{
    Instruction inst;
    Addr pc = 0;
    Cycle ready_cycle = 0; ///< earliest dispatch (frontend depth)
    Cycle fetch_cycle = 0;
    BranchPrediction pred;
    /** ICache-miss episode to attach at dispatch (0 = none). */
    u64 imiss_episode = 0;
    /** Sequencing state before this (control) instruction's own
     *  speculative updates — used for exact repair on misprediction and
     *  as the child's context at spawn points. */
    ThreadBranchState bstate_before;
    bool has_bstate = false;
};

/** Dataflow-prediction watch for one of this thread's inputs. */
struct DfWatch
{
    LogReg reg = 0;
    u16 modpc_lo = 0;
};

/** One hardware thread context. */
struct ThreadContext
{
    ThreadId id = kNoThread;
    u32 gen = 0;
    bool active = false;

    // Program position.
    Addr start_pc = 0;
    Addr pc = 0;
    /** PC of the spawning instruction (call / backward branch). */
    Addr spawn_point_pc = 0;
    /** True for after-loop threads (vs after-call). */
    bool is_loop_thread = false;

    // Fetch state.
    bool stopped = false;  ///< reached successor start / HALT / squarantine
    bool fetched_halt = false;
    Cycle fetch_ready = 0; ///< ICache miss stall release
    RingQueue<FetchedInst> fq;
    u64 pending_imiss_episode = 0;

    // Rename and speculative state.
    TraceBuffer tb;
    ThreadBranchState bstate;
    IoRegFile io;
    RecoveryFsm recov;

    /** Dispatched, not-yet-early-retired instructions in order. */
    RingQueue<DynRef> pipe;

    /** Checkpoints of mispredictable branches, keyed by TB id. */
    CheckpointRing<BranchCheckpoint> checkpoints;

    /** Backward-branch PCs that already spawned a fall-through thread
     *  (paper: an inner loop spawns its after-loop thread only once).
     *  Append-only flat set; a checkpoint restore truncates back to
     *  the checkpoint's loop_mark (see BranchCheckpoint). */
    std::vector<Addr> loop_spawned;

    bool
    loopSpawnedContains(Addr branch_pc) const
    {
        return std::find(loop_spawned.begin(), loop_spawned.end(),
                         branch_pc) != loop_spawned.end();
    }

    void
    loopSpawnedInsert(Addr branch_pc)
    {
        if (!loopSpawnedContains(branch_pc))
            loop_spawned.push_back(branch_pc);
    }

    /** Dataflow-prediction watches for this thread's inputs. */
    std::vector<DfWatch> df_watch;

    // Squash detection: trace-buffer append count when the current
    // successor was spawned; if the thread appends a full buffer worth
    // without joining, the successor was mispredicted.
    u64 successor_watch_base = 0;
    bool successor_watch_armed = false;
    u32 watched_succ_key = 0;

    // Statistics.
    bool was_spawned = false; ///< false only for the initial thread
    u64 retired_count = 0;
    u64 exec_while_spec = 0;
    u64 exec_total = 0;
    u32 divergence_repairs = 0;
    u32 recoveries_started = 0;

    /** Is this thread fetch-capable this cycle?  @p recovery_stall is
     *  the configured policy (see SimConfig::recovery_fetch_stall). */
    bool
    canFetch(Cycle now, int recovery_stall) const
    {
        if (!active || stopped || fetched_halt || now < fetch_ready)
            return false;
        if (recovery_stall >= 2 && recov.busy())
            return false;
        if (recovery_stall == 1 && recov.walking())
            return false;
        return true;
    }

    void
    resetFor(ThreadId tid, int tb_capacity)
    {
        id = tid;
        ++gen;
        active = true;
        start_pc = pc = spawn_point_pc = 0;
        is_loop_thread = false;
        stopped = false;
        fetched_halt = false;
        fetch_ready = 0;
        fq.clear();
        pending_imiss_episode = 0;
        tb.reset(tb_capacity);
        bstate = ThreadBranchState{};
        io.reset();
        recov.reset();
        pipe.clear();
        checkpoints.clear();
        loop_spawned.clear();
        df_watch.clear();
        successor_watch_base = 0;
        successor_watch_armed = false;
        watched_succ_key = 0;
        was_spawned = false;
        retired_count = 0;
        exec_while_spec = 0;
        exec_total = 0;
        divergence_repairs = 0;
        recoveries_started = 0;
    }
};

} // namespace dmt

#endif // DMT_DMT_THREAD_HH

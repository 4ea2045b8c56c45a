/**
 * @file
 * The DMT processor engine: a cycle-level simultaneous-multithreading
 * out-of-order core executing a single program as hardware-spawned
 * speculative threads (Akkary & Driscoll, MICRO-31 1998).
 *
 * One engine class covers both machines of the paper: with
 * max_threads == 1 and spawning off it is the baseline superscalar
 * (same pipeline, one retire stage in effect, no data speculation on
 * thread inputs); with more contexts it is the DMT processor.
 *
 * Pipeline stages evaluated per cycle (see step()):
 *   writeback -> recovery walk -> dispatch/rename -> issue -> fetch ->
 *   early retire -> store drain -> final retire
 *
 * Key invariant: the finally-retired instruction stream is verified
 * against an independent sequential execution by a GoldenChecker.
 */

#ifndef DMT_DMT_ENGINE_HH
#define DMT_DMT_ENGINE_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "casm/program.hh"
#include "common/ring_queue.hh"
#include "dmt/dataflow_pred.hh"
#include "dmt/dyninst.hh"
#include "dmt/lookahead.hh"
#include "dmt/lsq.hh"
#include "dmt/order_tree.hh"
#include "dmt/ready_queue.hh"
#include "dmt/spawn_pred.hh"
#include "dmt/stats.hh"
#include "dmt/thread.hh"
#include "fault/injector.hh"
#include "memory/hierarchy.hh"
#include "sim/checker.hh"
#include "sim/mainmem.hh"
#include "trace/tracer.hh"
#include "uarch/fu.hh"
#include "uarch/physregs.hh"

namespace dmt
{

struct Checkpoint;

/** The DMT / baseline-superscalar cycle simulator. */
class DmtEngine : public OrderOracle
{
  public:
    /**
     * The engine reads no environment: @p cfg is its whole
     * configuration (harnesses apply the DMT_* run-control knobs with
     * withEnvKnobs() in exp/runner.hh).
     *
     * @param resume optional architectural checkpoint to start from:
     *        mid-stream PC, registers and memory replace the program's
     *        entry conditions, and the golden checker is forked from
     *        the same snapshot.  The checkpoint must not be halted.
     *        Microarchitectural state (caches, predictors, spawn
     *        tables) starts cold — pair with cfg.warmup_retired so
     *        measurement begins warm.
     */
    DmtEngine(const SimConfig &cfg, const Program &prog,
              const Checkpoint *resume = nullptr);

    /** Run until HALT retires or a configured limit triggers. */
    void run();

    /** Advance one cycle (exposed for tests). */
    void step();

    /** True when the program's HALT has finally retired, or a
     *  configured retirement/cycle limit has been reached. */
    bool done() const { return done_; }

    /** True specifically when HALT retired (program completed). */
    bool programCompleted() const { return program_done; }

    /** Instructions finally retired since construction — includes any
     *  warmup window the stat block has already detached from. */
    u64 retiredTotal() const { return retired_total; }

    Cycle now() const { return now_; }

    const DmtStats &stats() const { return stats_; }
    const SimConfig &config() const { return cfg; }

    /** False while a cfg.warmup_retired window is still detaching the
     *  stat block; true once measurement has begun (always true when
     *  no warmup window is configured). */
    bool measurementActive() const { return !warmup_pending_; }

    /** Values emitted by retired OUT instructions, in order. */
    const std::vector<u32> &outputStream() const { return out_stream; }

    /** Golden-checker status. */
    bool goldenOk() const;
    std::string goldenError() const;

    /** Architectural (retired) register value. */
    u32 retiredReg(LogReg r) const { return retire_regs[r]; }

    /** Architectural memory image.  Stores reach it only at final
     *  retirement and loads never allocate pages, so after a completed
     *  run it must equal a functional execution's memory sparse-page
     *  exactly (the conformance harness relies on this). */
    const MainMemory &memory() const { return mem; }

    /** Cache hierarchy (for cache statistics). */
    const MemHierarchy &hierarchy() const { return hier; }

    /** Number of currently active thread contexts. */
    int activeThreads() const { return tree.size(); }

    /** Telemetry front door (sink injection, ring readback). */
    Tracer &tracer() { return tracer_; }

    /** Fault injector (configured from cfg.fault). */
    const FaultInjector &faults() const { return injector_; }

    // OrderOracle: program order of two dynamic memory operations.
    bool memBefore(ThreadId tid_a, u64 tb_a, ThreadId tid_b,
                   u64 tb_b) const override;

    /** Observation hook invoked for every finally-retired entry (after
     *  its effects committed).  Used by tests and trace tooling. */
    std::function<void(const TBEntry &, ThreadId)> retire_hook;

  private:
    friend class EngineInspector;   // white-box testing hook
    friend class InvariantAuditor;  // structural invariant sweeps
    friend class Postmortem;        // crash-dump state snapshotter

    // ---- pipeline stages (one file each) --------------------------------
    void doWriteback();
    void doRecovery();
    void doDispatch();
    void doIssue();
    void doFetch();
    void doEarlyRetire();
    void doStoreDrain();
    void doFinalRetire();

    // ---- fetch helpers (engine_fetch.cc) ---------------------------------
    void fetchForThread(ThreadContext &t, int max_insts);
    Addr successorStartPc(const ThreadContext &t) const;
    void checkThreadMispredictions();

    // ---- dispatch helpers (engine_rename.cc) -----------------------------
    bool dispatchOne(ThreadContext &t, const FetchedInst &fi);
    void trySpawn(ThreadContext &parent, TBEntry &entry,
                  const ThreadBranchState &spawn_bstate);
    ThreadId allocateContext(ThreadContext &parent);
    void spawnThread(ThreadContext &parent, TBEntry &entry,
                     Addr start_pc, bool is_loop,
                     const ThreadBranchState &spawn_bstate);
    void resolveOperand(ThreadContext &t, const TBEntry &entry, int i,
                        DynInst *d);
    void subscribePhys(PhysReg p, DynInst *d, int op);
    void armDataflowWatches(ThreadContext &t);
    void matchDataflowWatches(ThreadContext &producer, DynInst *d,
                              const TBEntry &entry);

    // ---- execute/writeback helpers (engine_execute.cc) -------------------
    void issueDyn(DynInst *d);
    void executeDyn(DynInst *d);
    void executeMem(DynInst *d, TBEntry &entry);
    void scheduleCompletion(DynInst *d, Cycle latency);
    void completeDyn(DynInst *d);
    void resolveControl(DynInst *d, TBEntry &entry);
    void deliverPhys(PhysReg p, u32 value);
    void deliverInput(ThreadContext &t, LogReg r, u32 value,
                      bool from_dataflow);
    void wakeOperand(DynInst *d, int op, u32 value);
    void makeReady(DynInst *d);
    void recoveryStepThread(ThreadContext &t, int &dispatch_budget);
    void noteRecoveryDone(ThreadContext &t);
    bool redispatchEntry(ThreadContext &t, TBEntry &entry);
    void requestRecovery(ThreadContext &t, const RecoveryRequest &req);
    void handleLsqViolations(const std::vector<i32> &lq_ids);

    // ---- retire helpers (engine_retire.cc) --------------------------------
    void earlyRetireThread(ThreadContext &t, int width);
    void finalRetireHead();
    bool finalRetireEntry(ThreadContext &t, TBEntry &entry);
    void lateDivergenceFlush(ThreadContext &t, const TBEntry &entry);
    void headSwitch(ThreadContext &t);
    void fullyRetireThread(ThreadContext &t);
    void noteRetiredForPredictors(const TBEntry &entry);

    // ---- squash machinery (engine.cc) --------------------------------------
    void squashDyn(DynInst *d);
    void inThreadSquash(ThreadContext &t, u64 from_tb_id,
                        Addr new_fetch_pc,
                        const BranchCheckpoint *checkpoint);
    void releaseEntryState(ThreadContext &t, TBEntry &entry,
                           bool squashed);
    void squashThreadTree(ThreadId tid);
    void squashThread(ThreadContext &t);

    // ---- misc helpers -------------------------------------------------------
    ThreadContext &ctx(ThreadId tid);
    const ThreadContext &ctx(ThreadId tid) const;
    ThreadContext *get(ThreadId tid, u32 gen);
    bool isHead(const ThreadContext &t) const;
    PhysReg allocPhys();
    void checkRegConservation();
    [[noreturn]] void watchdogExpired();
    void beginMeasurement();

    // ---- configuration and substrate -------------------------------------
    SimConfig cfg;
    /** Owned copy: the engine outlives any caller temporary. */
    const Program prog;
    MainMemory mem;
    MemHierarchy hier;
    BranchPredictorUnit bpu;
    PhysRegFile prf;
    DynPool pool;
    Lsq lsq;
    OrderTree tree;
    SpawnPredictor spawn_pred;
    DataflowPredictor df_pred;
    FuPool fus;
    std::unique_ptr<GoldenChecker> checker;

    // ---- machine state ------------------------------------------------------
    std::vector<std::unique_ptr<ThreadContext>> threads;
    Cycle now_ = 0;
    u64 next_seq = 1;
    int window_used = 0;
    bool done_ = false;
    bool program_done = false;
    bool head_validated = false; ///< current head passed input check
    bool head_drain_ok = false;  ///< prior threads' stores drained

    // Ready queue (age-indexed min-heap) and completion calendar.
    ReadyQueue ready_q;
    static constexpr int kCalendarSlots = 256;
    std::array<std::vector<DynRef>, kCalendarSlots> calendar;

    // Physical-register subscriptions.
    struct PhysWaiter
    {
        DynRef dyn;
        u8 op;
    };
    struct IoSub
    {
        ThreadId tid;
        u32 tgen;
        LogReg reg;
    };
    struct PhysSubs
    {
        std::vector<PhysWaiter> waiters;
        std::vector<IoSub> io_subs;
    };
    std::vector<PhysSubs> psubs;

    // Thread-input waiters, per thread per logical register.
    struct IoWaiter
    {
        DynRef dyn;
        u8 op;
    };
    std::vector<std::array<std::vector<IoWaiter>, kNumLogRegs>> io_waiters;

    // Architectural retirement state.
    std::array<u32, kNumLogRegs> retire_regs{};
    std::array<Addr, kNumLogRegs> last_mod_pc{};
    u64 retired_total = 0;
    std::vector<u32> out_stream;

    // Statistics warmup (cfg.warmup_retired): the stat block detaches
    // until the warmup boundary retires, and the cache-hierarchy
    // snapshot in run() subtracts the counts accumulated before it.
    bool warmup_pending_ = false;
    u64 meas_il_miss_base_ = 0;
    u64 meas_il_hit_base_ = 0;
    u64 meas_dl_miss_base_ = 0;
    u64 meas_dl_hit_base_ = 0;

    // Store drain queue (program order).
    RingQueue<i32> drain_q;

    // Lookahead accounting.
    EpisodeTracker branch_eps;
    EpisodeTracker imiss_eps;

    // Loop-exit learning: active loops observed in the retirement
    // stream, waiting for control to leave the loop body.
    struct LoopWatch
    {
        Addr branch_pc;
        Addr body_lo;
        Addr body_hi;
        int call_depth; ///< procedure nesting relative to the loop
    };
    std::vector<LoopWatch> loop_watches;

    // Round-robin cursor over speculative threads for fetch.
    int fetch_rr = 0;

    // Memory-dependence throttle: 2-bit counters indexed by load PC.
    static constexpr u32 kMemdepEntries = 4096;
    std::vector<u8> memdep;
    bool memdepConservative(Addr pc) const;
    void memdepTrain(Addr pc, bool violated);

    /** Telemetry hook: stamps events with the current cycle.  Inlined
     *  one-branch no-op while tracing is disabled. */
    void
    emitTrace(TraceStage stage, TraceEventKind kind, ThreadId tid,
              Addr pc = 0, u64 a = 0, u64 b = 0)
    {
        tracer_.emit(now_, tid, stage, kind, pc, a, b);
    }
    void traceSampleTick();

    // ---- hot-loop scratch buffers ----------------------------------------
    // Reused cycle to cycle so steady-state step() performs no heap
    // allocation (see DESIGN.md section 11).  Each buffer is owned by
    // exactly one non-reentrant routine.
    std::vector<ReadyQueue::Item> issue_retry_scratch_; // doIssue
    std::vector<DynRef> wb_scratch_;                    // doWriteback
    std::vector<ThreadId> dispatch_order_scratch_;      // doDispatch
    std::vector<ThreadId> fetch_spec_scratch_;          // doFetch
    std::vector<DfItem> head_mispred_scratch_;          // headSwitch
    RecoveryRequest recov_req_scratch_;  // single-event requests
    std::vector<ThreadId> squash_victims_scratch_;      // squashThreadTree
    std::vector<ThreadId> squash_stack_scratch_;        // squashThreadTree

    DmtStats stats_;
    Tracer tracer_;
    FaultInjector injector_;
};

} // namespace dmt

#endif // DMT_DMT_ENGINE_HH

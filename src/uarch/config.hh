/**
 * @file
 * Full machine configuration for the DMT engine.  A max_threads == 1
 * configuration with spawning disabled *is* the paper's baseline
 * superscalar: same pipeline, one retire stage (early retirement and
 * final retirement coincide because nothing is value-speculated).
 */

#ifndef DMT_UARCH_CONFIG_HH
#define DMT_UARCH_CONFIG_HH

#include <string>

#include "branch/predictor.hh"
#include "fault/options.hh"
#include "memory/hierarchy.hh"
#include "trace/options.hh"

namespace dmt
{

class JsonWriter;

/** Execution resource counts for the realistic configuration. */
struct FuParams
{
    /** Total ALUs; address calculations of issued memory ops use them. */
    int alu = 4;
    /** Multiply/divide units (divide is unpipelined). */
    int muldiv = 1;
    /** Loads+stores issued to the DCache per cycle. */
    int mem_ports = 2;
};

/** Complete machine description. */
struct SimConfig
{
    // ---- threading ----------------------------------------------------
    /** Hardware thread contexts; 1 disables DMT entirely. */
    int max_threads = 1;
    /** Spawn at procedure calls (after-return threads). */
    bool spawn_on_call = true;
    /** Spawn at backward branches (after-loop threads). */
    bool spawn_on_loop = true;
    /** Predict thread inputs as the parent context (always on in the
     *  paper; exposed for ablation). */
    bool value_prediction = true;
    /** Last-modifier dataflow prediction (paper Section 3.4). */
    bool dataflow_prediction = true;
    /** When a dataflow watch is armed for an input (history says it
     *  will be rewritten by the predecessor), make consumers wait for
     *  the predicted modifier's writeback instead of speculating on a
     *  value known to be stale.  Extension over the paper's
     *  update-and-recover behaviour. */
    bool dataflow_sync = false;
    /** log2 of the thread-selection counter table. */
    int spawn_table_bits = 12;
    /** Threads below this retired size reset their selection counter. */
    int min_thread_size = 12;
    /** Minimum speculative-overlap fraction before counter reset. */
    double min_overlap_frac = 0.10;
    /** Memory dependence throttle (store-set flavoured extension; the
     *  paper speculates all loads aggressively): loads whose PC keeps
     *  getting violated wait until all earlier stores have executed. */
    bool memdep_sync = true;

    // ---- fetch --------------------------------------------------------
    int fetch_ports = 1;
    /** Instructions per fetch block (per port per cycle). */
    int fetch_block = 4;

    // ---- pipeline -----------------------------------------------------
    /** Active instructions in the execution pipeline (level-1 window). */
    int window_size = 128;
    /** Cycles from fetch to dispatch (decode+rename depth). */
    int frontend_depth = 3;
    /** Early/final retirement width (per cycle). */
    int retire_width = 4;
    /** Unlimited execution units (Figures 4 and 5). */
    bool unlimited_fus = true;
    FuParams fus;
    /** Physical registers; 0 derives a generous default. */
    int phys_regs = 0;

    // ---- latencies ----------------------------------------------------
    int lat_alu = 1;
    int lat_mul = 3;
    int lat_div = 20;
    /** Load-to-use latency including address calculation (DCache hit). */
    int lat_mem = 3;
    /** Extra latency for cross-thread store-to-load forwarding. */
    int lat_xthread_forward = 2;

    // ---- trace buffer ---------------------------------------------------
    /** Trace buffer capacity per thread (instructions). */
    int tb_size = 500;
    /** Recovery pipeline startup latency (trace buffer access). */
    int tb_latency = 4;
    /** Instructions read per cycle during recovery walk; 0 = ideal. */
    int tb_read_block = 4;
    /** Recovery re-dispatch width into the rename unit (per thread —
     *  each trace buffer has its own recovery pipe). */
    int recovery_dispatch_width = 4;
    /** 0: fetch never stalls for recovery; 1: stalls during an active
     *  walk; 2: stalls whenever recovery work is queued. */
    int recovery_fetch_stall = 0;
    /** Same policy levels for dispatch (trace-buffer write port). */
    int recovery_dispatch_stall = 0;
    /**
     * When a branch re-executed by recovery changes direction, repair
     * the thread's trace immediately (true) instead of deferring the
     * flush to the branch's final retirement as the paper describes
     * (false).  Early repair redirects the thread onto the corrected
     * path while it is still speculative.
     */
    bool early_divergence_repair = true;

    // ---- load/store queues --------------------------------------------
    /** Per-thread load queue entries; 0 derives tb_size/4 (paper). */
    int lq_size = 0;
    /** Per-thread store queue entries; 0 derives tb_size/4 (paper). */
    int sq_size = 0;

    // ---- memory & prediction --------------------------------------------
    HierarchyParams mem;
    PredictorParams bpred;

    // ---- run control ------------------------------------------------------
    /** Stop after this many finally-retired instructions (0 = none). */
    u64 max_retired = 0;
    /**
     * Statistics warmup window for checkpoint-resumed runs: the stat
     * block (and the cache-hierarchy snapshot baseline) is zeroed once
     * this many instructions have finally retired, so caches,
     * predictors and spawn tables warm up before measurement begins.
     * The boundary is evaluated between cycles, so up to
     * retire_width-1 instructions of the crossing cycle count toward
     * warmup rather than measurement.  0 measures from cycle zero (the
     * full-run behaviour).
     */
    u64 warmup_retired = 0;
    /** Hard cycle bound (0 = none); exceeding it is a fatal error. */
    u64 max_cycles = 0;
    /** Verify every retired instruction against the golden model. */
    bool check_golden = true;
    /** Deadlock watchdog: panic (SimError + post-mortem) when no
     *  instruction finally retires for this many cycles (0 = off). */
    u64 watchdog_cycles = 500000;

    // ---- robustness --------------------------------------------------------
    /** Run the invariant auditor every this many cycles (0 = off). */
    int audit_period = 0;
    /** Where watchdog/audit failures write their JSON post-mortem
     *  (empty = no file). */
    std::string crash_file = "dmt_crash.json";
    /** Fault injection configuration (see fault/options.hh). */
    FaultOptions fault;

    // ---- telemetry ---------------------------------------------------------
    /** Trace subsystem configuration (see trace/options.hh). */
    TraceOptions trace;

    /** True when this machine runs DMT (more than one context). */
    bool isDmt() const { return max_threads > 1; }

    /** Effective physical register count. */
    int physRegCount() const;

    /** Effective per-thread load queue capacity. */
    int lqSize() const;

    /** Effective per-thread store queue capacity. */
    int sqSize() const;

    /** Validate invariants; fatal()s on nonsense. */
    void validate() const;

    /** The paper's baseline: 4-wide superscalar, 128-entry window. */
    static SimConfig baseline();

    /** DMT machine with @p threads contexts and @p ports fetch ports. */
    static SimConfig dmt(int threads, int ports);

    /** Human-readable one-line summary. */
    std::string summary() const;

    /** Serialize the headline knobs as a JSON object. */
    void jsonOn(JsonWriter &w) const;
};

} // namespace dmt

#endif // DMT_UARCH_CONFIG_HH

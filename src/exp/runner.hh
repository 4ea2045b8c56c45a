/**
 * @file
 * Experiment runner: executes a workload on a configured machine and
 * returns the statistics needed by the figure benches.  All benches
 * funnel through here so run length and verification policy are
 * uniform.
 */

#ifndef DMT_EXP_RUNNER_HH
#define DMT_EXP_RUNNER_HH

#include <string>
#include <vector>

#include "dmt/stats.hh"
#include "uarch/config.hh"

namespace dmt
{

class JsonWriter;

/** One measured window of a phase-sampled run. */
struct SampleInterval
{
    /** Retired-instruction position where the detailed window began
     *  (start of warmup, i.e. the checkpoint's resume position). */
    u64 pos = 0;
    u64 cycles = 0;  ///< measured (post-warmup) cycles
    u64 retired = 0; ///< measured (post-warmup) retired instructions
    u64 spawned = 0;
    u64 squashed = 0;
    u64 recoveries = 0;
};

/** One phase of a phase-sampled run: the cluster's identity/weight
 *  from the BBV analysis plus the measured window at its
 *  representative. */
struct PhaseCpi
{
    u32 id = 0;          ///< dense phase id (rep-ascending order)
    u64 rep = 0;         ///< representative interval index
    u64 pos = 0;         ///< rep * interval_len (window start)
    u64 members = 0;     ///< intervals assigned to the phase
    double weight = 0.0; ///< instruction-count share of the stream
    bool measured = false; ///< window detached stats and retired > 0
    u64 cycles = 0;
    u64 retired = 0;
    double cpi = 0.0;
};

/** Sampling metadata attached to a RunResult in sampled mode. */
struct SampleSummary
{
    bool enabled = false;
    u64 warm = 0;    ///< detailed warmup instructions (stats detached)
    u64 measure = 0; ///< detailed measured instructions
    u64 intervals = 0; ///< measured windows completed
    /** Phase-analysis identity + outcome. */
    u64 phase_interval = 0;  ///< BBV interval length
    u64 phase_max_k = 0;     ///< cluster bound requested
    u64 phase_dims = 0;      ///< projection dimensions
    u64 phase_seed = 0;
    u64 phase_k = 0;         ///< phases found
    u64 phase_intervals = 0; ///< intervals profiled
    std::vector<PhaseCpi> phases;
    /** Stream positions traversed in total (functional + detailed);
     *  equals program length when the run reached HALT. */
    u64 covered = 0;
    /** Instructions covered by functional fast-forward alone. */
    u64 functional_instr = 0;
    /** Host seconds this run spent looking up its sample plan, which
     *  covers the whole build when the run built it (excluded from the
     *  canonical JSON, like all host timing). */
    double func_wall_s = 0.0;
    /** Translation-cache counters of the plan's forward walk, when
     *  this run built the plan.  Host-side diagnostics: excluded from the
     *  canonical JSON, which depends only on the architectural stream
     *  and not on translation-cache state. */
    u64 ff_blocks_translated = 0;
    u64 ff_chain_hits = 0;
    /** Instructions the plan's forward walk executed (the profile
     *  pass excluded) and the anchor checkpoints the profile left it,
     *  when this run built the plan; 0 when it was cached.  Host-side
     *  work, excluded from the canonical JSON like the counters
     *  above. */
    u64 ff_instr = 0;
    u64 ff_anchors = 0;
    /** Phase-weighted CPI over the measured phases; sd is their
     *  weighted spread and ci95 = 1.96 * sd / sqrt(n). */
    double cpi_mean = 0.0;
    double cpi_sd = 0.0;
    double cpi_ci95 = 0.0;
    std::vector<SampleInterval> records;

    void jsonOn(JsonWriter &w, bool include_timing) const;
};

/** Outcome of one simulation run. */
struct RunResult
{
    std::string workload;
    u64 cycles = 0;
    u64 retired = 0;
    bool completed = false; ///< program HALTed before the cap
    double ipc = 0.0;
    /** Host wall clock for the run (same accounting as SweepStats). */
    double wall_s = 0.0;
    /** Host throughput: retired Minstr per wall second. */
    double minstr_per_s = 0.0;
    DmtStats stats;
    /** Phase-sampling summary; enabled only in sampled mode, where
     *  cycles/retired/stats cover the measured windows only. */
    SampleSummary sampling;

    /** Serialize (headline numbers plus the full stat block).  Host
     *  timing fields are emitted only with @p include_timing: they are
     *  nondeterministic, so the canonical form leaves them out. */
    void jsonOn(JsonWriter &w, bool include_timing = true) const;

    /** The jsonOn() document as a string — the canonical form for
     *  bit-identity comparisons between serial and pooled runs.
     *  Excludes host-timing fields (wall_s, minstr_per_s). */
    std::string jsonString() const;
};

/**
 * Number of instructions each benchmark run retires, overridable with
 * the DMT_BENCH_INSTR environment variable (the paper runs 300M; the
 * default here keeps a full figure under a minute).
 */
u64 benchRunLength();

/**
 * @p cfg with the run-control knobs applied: DMT_FAULT (parseFaultSpec()),
 * DMT_TRACE (parseTraceSpec()), DMT_WATCHDOG, DMT_AUDIT and
 * DMT_CRASH_FILE.  The only place they are read; engines read no
 * environment.  Unset or empty knobs leave @p cfg alone (an empty
 * DMT_CRASH_FILE turns the post-mortem file off); a malformed value is
 * fatal(), naming the variable.
 */
SimConfig withEnvKnobs(SimConfig cfg);

/**
 * Simulate @p workload (a suite name from workloadSuite()) on @p cfg,
 * retiring at most @p max_retired instructions (0 = benchRunLength();
 * for a sampled run, 0 profiles DMT_BENCH_INSTR instructions if set,
 * else the whole program).
 * Golden checking stays enabled: a bench producing wrong execution
 * aborts rather than reporting garbage.
 *
 * The config passes through withEnvKnobs() first.  When DMT_SAMPLE
 * is set ("phase:interval:warm:measure[:maxk[:dims[:seed]]]") the run
 * is routed through runWorkloadSampled() instead: detailed simulation
 * covers one window per phase representative and checkpointed
 * functional fast-forward covers the rest, so every bench and sweep
 * built on this funnel gains paper-scale coverage without code
 * changes.
 */
RunResult runWorkload(const SimConfig &cfg, const std::string &workload,
                      u64 max_retired = 0);

struct SampleParams;

/**
 * runWorkload() with the config used as given, the sampling decision
 * passed explicitly instead of read from DMT_SAMPLE and @p max_retired
 * = 0 meaning the whole program, for callers that must not depend on
 * the environment.  runWorkload() itself delegates here.
 */
RunResult runWorkloadJob(const SimConfig &cfg,
                         const std::string &workload, u64 max_retired,
                         const SampleParams &sample);

/** Percentage speedup of @p test over @p base for identical work. */
double speedupPct(const RunResult &base, const RunResult &test);

} // namespace dmt

#endif // DMT_EXP_RUNNER_HH

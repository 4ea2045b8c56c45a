/**
 * @file
 * Interval-sampled simulation (SMARTS-style): alternate checkpointed
 * functional fast-forward with short detailed measurement windows so a
 * paper-scale instruction stream costs close to functional-sim speed.
 *
 * Each period is skip + warm + measure instructions.  The skip portion
 * is covered by FunctionalCore fast-forward (via a process-wide
 * checkpoint cache, so N sweep cells over the same workload pay for the
 * prefix once); the warm portion runs detailed with statistics
 * detached (cfg.warmup_retired) so caches, predictors and spawn tables
 * recover from the cold start; the measure portion accumulates into
 * the RunResult.  Per-interval CPI feeds a mean +- 95% confidence
 * interval so the aggregate comes with an error bar.
 *
 * Configuration comes from DMT_SAMPLE="skip:warm:measure[:intervals]"
 * (instruction counts; intervals bounds the number of measured windows,
 * 0 or omitted = run to program end / budget).  DMT_CKPT_DIR names a
 * directory where checkpoints persist across invocations.
 *
 * DMT_SAMPLE="phase:interval:warm:measure[:maxk[:dims[:seed]]]"
 * selects phase-aware placement instead (exp/phase.hh): a BBV profile
 * over fixed `interval`-length slices is clustered into phases, one
 * warm+measure window runs at each phase representative, and CPI
 * aggregates by phase weight.  Omitted trailing fields default from
 * DMT_PHASE_K / DMT_PHASE_DIMS / DMT_PHASE_SEED (env consulted only by
 * fromEnv(); parse() stays hermetic).
 */

#ifndef DMT_EXP_SAMPLED_HH
#define DMT_EXP_SAMPLED_HH

#include <string>

#include "exp/phase.hh"
#include "exp/runner.hh"

namespace dmt
{

/** Parsed DMT_SAMPLE knob. */
struct SampleParams
{
    /** Window-placement policy. */
    enum class Mode : u8
    {
        Uniform, ///< fixed-stride intervals (SMARTS-style)
        Phase,   ///< one window per BBV-clustered phase representative
    };

    Mode mode = Mode::Uniform;
    u64 skip = 0;    ///< uniform: functional fast-forward per interval
    u64 warm = 0;    ///< detailed instructions with stats detached
    u64 measure = 0; ///< detailed instructions measured
    u64 max_intervals = 0; ///< uniform: 0 = unbounded
    /** Phase-mode knobs (interval length, cluster bound, projection
     *  dims, seed); interval > 0 iff mode == Phase. */
    PhaseParams phase;

    /** Sampling is active when a measurement window is configured. */
    bool enabled() const { return measure > 0; }

    bool phaseMode() const { return mode == Mode::Phase; }

    /**
     * Canonical spec string: "skip:warm:measure:intervals" (uniform),
     * "phase:interval:warm:measure:maxk:dims:seed" (phase, every field
     * explicit), or "off" when disabled.  Benches and run_workload
     * print it to name a sampled run, so it must render identically
     * for parameter sets that behave identically.
     */
    std::string canonicalSpec() const;

    /**
     * Parse "skip:warm:measure[:intervals]" or
     * "phase:interval:warm:measure[:maxk[:dims[:seed]]]" without
     * touching the process: on garbage, returns false and describes
     * the problem in @p err (job-spec parsing needs an error reply,
     * not an exit).  An empty string parses as disabled.
     */
    static bool parse(std::string_view spec, SampleParams *out,
                      std::string *err);

    /** Parse DMT_SAMPLE; garbage is fatal() like every other DMT_*
     *  knob.  Unset => disabled.  For phase specs, trailing fields the
     *  spec omitted default from DMT_PHASE_K / DMT_PHASE_DIMS /
     *  DMT_PHASE_SEED (explicit spec fields always win). */
    static SampleParams fromEnv();
};

/**
 * Run @p workload on @p cfg under interval sampling.  @p budget bounds
 * the stream positions traversed (0 = DMT_BENCH_INSTR if set, else the
 * whole program); sampling stops at HALT, the budget, or
 * @p params.max_intervals, whichever comes first.
 *
 * The returned RunResult's cycles/retired/stats cover the measured
 * windows only (summed across intervals); result.sampling carries the
 * coverage bookkeeping and the CPI confidence interval.  Golden
 * checking stays enabled inside every detailed window.
 */
RunResult runWorkloadSampled(const SimConfig &cfg,
                             const std::string &workload,
                             const SampleParams &params, u64 budget = 0);

/**
 * Drop every in-memory checkpoint (test hook; on-disk DMT_CKPT_DIR
 * files are left alone so persistence can be exercised separately).
 * Also zeroes the cache counters below.
 */
void clearCheckpointCache();

/**
 * Process-lifetime accounting for the shared checkpoint cache.  A
 * sampled window first looks for its start checkpoint in memory
 * (mem_hits), then on disk under DMT_CKPT_DIR (disk_hits), and only
 * then pays for functional fast-forward to build one (builds).  The
 * harness mains print them in their stderr summaries, so warm-cache
 * behaviour is visible.
 */
struct CheckpointCacheCounters
{
    u64 mem_hits = 0;
    u64 disk_hits = 0;
    u64 builds = 0;
};

/** Snapshot of the shared checkpoint-cache counters. */
CheckpointCacheCounters checkpointCacheCounters();

} // namespace dmt

#endif // DMT_EXP_SAMPLED_HH

/**
 * @file
 * Phase-sampled simulation: a paper-scale instruction stream at close
 * to functional-sim speed, with a CPI confidence interval.
 *
 * DMT_SAMPLE="phase:interval:warm:measure[:maxk[:dims[:seed]]]"
 * names the run.  A BBV profile over fixed `interval`-length slices is
 * clustered into phases (exp/phase.hh); one detailed window runs at
 * each phase representative, resumed from a checkpoint in a
 * process-wide in-memory cache, so N sweep cells over the same
 * workload pay for the profile and the checkpoints once.  Each window
 * warms for `warm` instructions with statistics detached
 * (cfg.warmup_retired), measures `measure` more, and CPI aggregates by
 * phase weight.  Omitted trailing fields take the PhaseParams
 * defaults; the spec is the only sampling input.
 */

#ifndef DMT_EXP_SAMPLED_HH
#define DMT_EXP_SAMPLED_HH

#include <memory>
#include <string>

#include "exp/phase.hh"
#include "exp/runner.hh"

namespace dmt
{

/** Parsed DMT_SAMPLE knob. */
struct SampleParams
{
    u64 warm = 0;    ///< detailed instructions with stats detached
    u64 measure = 0; ///< detailed instructions measured
    /** Phase-analysis knobs (interval length, cluster bound,
     *  projection dims, seed); interval > 0 whenever enabled(). */
    PhaseParams phase;

    /** Sampling is active when a measurement window is configured. */
    bool enabled() const { return measure > 0; }

    /**
     * Canonical spec string: "phase:interval:warm:measure:maxk:dims:
     * seed" with every field explicit, or "off" when disabled.
     * Benches and run_workload print it to name a sampled run, so it
     * must render identically for parameter sets that behave
     * identically.
     */
    std::string canonicalSpec() const;

    /**
     * Parse "phase:interval:warm:measure[:maxk[:dims[:seed]]]" without
     * touching the process: on garbage, returns false and describes
     * the problem in @p err (callers that branch need an error, not an
     * exit).  An empty string parses as disabled.
     */
    static bool parse(std::string_view spec, SampleParams *out,
                      std::string *err);

    /** Parse DMT_SAMPLE; garbage is fatal() like every other DMT_*
     *  knob.  Unset => disabled. */
    static SampleParams fromEnv();
};

/**
 * Run @p workload on @p cfg under phase sampling.  @p budget bounds
 * the profiled stream (0 = DMT_BENCH_INSTR if set, else the whole
 * program).
 *
 * The returned RunResult's cycles/retired/stats cover the measured
 * windows only (summed across phases); its ipc is the inverse of the
 * phase-weighted CPI, and result.sampling carries the coverage
 * bookkeeping, the per-phase rows and the CPI confidence interval.
 * Golden checking stays enabled inside every detailed window.
 */
RunResult runWorkloadSampled(const SimConfig &cfg,
                             const std::string &workload,
                             const SampleParams &params, u64 budget = 0);

/** Drop every cached checkpoint and zero the cache counters below
 *  (test hook). */
void clearCheckpointCache();

/** The in-memory checkpoint of @p workload at @p pos, or nullptr when
 *  none is cached (test hook). */
std::shared_ptr<const Checkpoint>
cachedCheckpoint(const std::string &workload, u64 pos);

/**
 * Process-lifetime accounting for the shared checkpoint cache.  A
 * sampled window reuses its start checkpoint when the cache holds one
 * (mem_hits) and otherwise pays for functional fast-forward to build
 * it (builds).  The harness mains print them in their stderr
 * summaries, so warm-cache behaviour is visible.
 */
struct CheckpointCacheCounters
{
    u64 mem_hits = 0;
    /** Always 0: there is no on-disk tier.  Kept only because
     *  perfbench/workloads.cc reads it (see the shims in
     *  exp/phase.hh); nothing else may use it. */
    u64 disk_hits = 0;
    u64 builds = 0;
};

/** Snapshot of the shared checkpoint-cache counters. */
CheckpointCacheCounters checkpointCacheCounters();

} // namespace dmt

#endif // DMT_EXP_SAMPLED_HH

/**
 * @file
 * Phase-sampled simulation: a paper-scale instruction stream at close
 * to functional-sim speed, with a CPI confidence interval.
 *
 * DMT_SAMPLE="phase:interval:warm:measure[:maxk[:dims[:seed]]]"
 * names the run.  A BBV profile over fixed `interval`-length slices is
 * clustered into phases (exp/phase.hh), and one forward walk captures
 * a checkpoint at each phase representative.  The program, the phases
 * and the checkpoints form the run's SamplePlan, kept in one
 * process-wide cache so N sweep cells over the same workload pay for
 * the profile and the checkpoints once.  One detailed window runs from
 * each checkpoint: it warms for `warm` instructions with statistics
 * detached (cfg.warmup_retired), measures `measure` more, and CPI
 * aggregates by phase weight.  Omitted trailing fields take the
 * PhaseParams defaults; the spec is the only sampling input.
 */

#ifndef DMT_EXP_SAMPLED_HH
#define DMT_EXP_SAMPLED_HH

#include <memory>
#include <string>
#include <vector>

#include "casm/program.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "sim/checkpoint.hh"
#include "sim/translated_core.hh"

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
 * Everything a sampled run needs before its detailed windows, for one
 * (workload, phase params, budget).  Immutable once built and shared
 * by every run that asks for it.
 */
struct SamplePlan
{
    Program prog;
    PhaseAnalysis pa;
    /** ckpts[i] starts pa.phases[i]'s window at rep * interval retired
     *  instructions; null when the program HALTs at or before it. */
    std::vector<std::shared_ptr<const Checkpoint>> ckpts;

    // Host work of the build (timing-only telemetry).
    u64 ff_instr = 0;   ///< instructions the forward walk executed
    u64 ff_anchors = 0; ///< anchor checkpoints the profile left
    TranslationStats ff_xlat; ///< the forward walk's translation work
};

/**
 * The cached plan for @p workload (any spelling; keyed by its
 * canonical name) over @p params, profiling at most @p budget stream
 * instructions (0 = to HALT).  The first caller builds it: profile
 * with anchors (collectBbvsAnchored()), cluster, then one
 * FunctionalCore walks the representatives in ascending position,
 * restoring from the latest anchor at or before each one whenever
 * that anchor is ahead of it, and captures each checkpoint.  Anchors
 * and core are freed afterwards.  Concurrent callers for the same key
 * wait for that one build; callers for other keys do not.
 * @p built_out (optional) says whether this call built the plan.
 */
std::shared_ptr<const SamplePlan>
samplePlanFor(const std::string &workload, const PhaseParams &params,
              u64 budget, bool *built_out = nullptr);

/**
 * Run @p workload on @p cfg under phase sampling.  @p budget bounds
 * the profiled stream (0 = the whole program).
 *
 * The returned RunResult's cycles/retired/stats cover the measured
 * windows only (summed across phases); its ipc is the inverse of the
 * phase-weighted CPI, and result.sampling carries the coverage
 * bookkeeping, the per-phase rows and the CPI confidence interval.
 * Its fast-forward telemetry (func_wall_s, ff_*) reports the plan's
 * build in the run that built it; a run that found the plan cached
 * reports only its lookup time.  Golden checking stays enabled inside
 * every detailed window.
 */
RunResult runWorkloadSampled(const SimConfig &cfg,
                             const std::string &workload,
                             const SampleParams &params, u64 budget = 0);

/** Drop every cached sample plan and zero both counter sets below. */
void clearCheckpointCache();

/**
 * Process-lifetime accounting for the sample-plan cache: checkpoints
 * captured by plan builds (builds), and non-null checkpoints a cached
 * plan served to a later run (mem_hits).  The harness mains print them
 * in their stderr summaries, so warm-cache behaviour is visible.
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

/** Snapshot of the checkpoint counters. */
CheckpointCacheCounters checkpointCacheCounters();

/** Plan lookups: builds, and hits that found the plan cached. */
struct PhaseCacheCounters
{
    u64 hits = 0;
    u64 builds = 0;
};

/** Snapshot of the plan-lookup counters. */
PhaseCacheCounters phaseCacheCounters();

} // namespace dmt

#endif // DMT_EXP_SAMPLED_HH

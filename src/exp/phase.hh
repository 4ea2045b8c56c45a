/**
 * @file
 * SimPoint-style phase analysis over fast-forward BBVs.
 *
 * The uniform sampler (exp/sampled.hh) spends its detailed-simulation
 * budget re-measuring the same program phase over and over.  This
 * module finds the phases instead: a functional fast-forward pass
 * collects one basic-block vector per fixed-length instruction
 * interval (sim/bbv.hh), the vectors are random-projected to a small
 * fixed dimension, clustered with a deterministic seeded k-means++,
 * and a BIC-style score picks k.  Each cluster contributes one
 * representative interval and an instruction-count weight; the phase
 * sampling mode (DMT_SAMPLE=phase:...) then runs one warm+measure
 * window per representative and aggregates CPI by weight.
 *
 * Determinism contract: every stage is bit-identical across reruns,
 * platforms and DMT_JOBS settings.  The BBVs are a pure function of
 * the architectural instruction stream (sim/bbv.hh); projection
 * directions and every k-means tie-break come from splitmix64 streams
 * keyed only by (seed, block, dim) or broken by lowest index; no
 * floating-point reduction depends on traversal order beyond the fixed
 * interval order.
 */

#ifndef DMT_EXP_PHASE_HH
#define DMT_EXP_PHASE_HH

#include <memory>
#include <string>
#include <vector>

#include "casm/program.hh"
#include "sim/bbv.hh"
#include "sim/checkpoint.hh"

namespace dmt
{

/** Phase-analysis knobs (the phase:... part of a sample spec). */
struct PhaseParams
{
    u64 interval = 0; ///< BBV interval length (instructions, > 0)
    u64 max_k = 8;    ///< k-means cluster bound (1..64)
    u64 dims = 16;    ///< random-projection dimensions (1..256)
    u64 seed = 42;    ///< projection + k-means seed

    bool operator==(const PhaseParams &o) const
    {
        return interval == o.interval && max_k == o.max_k
            && dims == o.dims && seed == o.seed;
    }
};

/** One phase of a clustered run. */
struct PhaseInfo
{
    u32 id = 0;           ///< dense id, ordered by rep ascending
    u64 rep = 0;          ///< representative interval index
    u64 members = 0;      ///< intervals assigned to this phase
    double weight = 0.0;  ///< instruction-count share (sums to 1)
};

/** Result of clustering one workload's interval BBVs. */
struct PhaseAnalysis
{
    u64 interval_len = 0;
    u64 covered = 0;   ///< instructions profiled (stream positions)
    bool completed = false; ///< profiling reached HALT within budget
    u32 k = 0;         ///< phases found (<= max_k, 0 only if no BBVs)
    std::vector<u32> assignment; ///< interval index -> phase id
    std::vector<PhaseInfo> phases; ///< phases[i].id == i
};

/**
 * Collect interval BBVs by fast-forwarding @p prog from its entry;
 * stops at HALT or after @p budget instructions (0 = run to HALT).
 * @p covered_out / @p completed_out report how far the profile
 * reached.  The result is a pure function of the architectural stream
 * (the sim/bbv.hh contract).
 */
std::vector<IntervalBbv> collectBbvs(const Program &prog,
                                     u64 interval_len, u64 budget,
                                     u64 *covered_out = nullptr,
                                     bool *completed_out = nullptr);

/** Instructions per profile chunk; anchors sit at chunk multiples. */
constexpr u64 kProfileChunk = u64{1} << 22;

/** Bound on the memory-page bytes one profile's live anchors hold
 *  (each anchor charged at least one page). */
constexpr u64 kAnchorPageBudget = u64{2} << 20;

/**
 * collectBbvs() that also leaves anchor checkpoints in @p anchors
 * (replaced; ascending position), so a later checkpoint chain can
 * start from the nearest earlier anchor instead of the entry.  One
 * anchor is taken every `stride` chunk ends, stride starting at 1;
 * whenever the anchors' pages would exceed kAnchorPageBudget, every
 * other anchor is dropped and the stride doubles.  No anchor is taken
 * at HALT, at the budget, in a program shorter than one chunk, or
 * where the memory alone exceeds the budget.  The BBVs are identical
 * to collectBbvs()'s.
 */
std::vector<IntervalBbv> collectBbvsAnchored(
    const Program &prog, u64 interval_len, u64 budget,
    std::vector<Checkpoint> *anchors, u64 *covered_out = nullptr,
    bool *completed_out = nullptr);

/**
 * Source-compatibility shims for perfbench/workloads.cc, whose
 * collectBbvs() call still names a fast-forward engine.  There is one
 * engine; the mode is ignored and no environment variable is read.
 * Nothing else may use these.
 */
enum class FfMode : u8
{
    Translated,
};

inline FfMode
ffModeFromEnv()
{
    return FfMode::Translated;
}

inline std::vector<IntervalBbv>
collectBbvs(const Program &prog, u64 interval_len, u64 budget, FfMode,
            u64 *covered_out, bool *completed_out)
{
    return collectBbvs(prog, interval_len, budget, covered_out,
                       completed_out);
}

/**
 * Project + cluster @p bbvs under @p params.  interval_len, covered
 * and completed in the result are left for the caller; assignment and
 * phases are fully populated.  Degenerate inputs stay well-defined:
 * k never exceeds the interval count, all-identical vectors collapse
 * to one phase, and an empty input yields k = 0.
 */
PhaseAnalysis clusterPhases(const std::vector<IntervalBbv> &bbvs,
                            const PhaseParams &params);

/**
 * Cached end-to-end analysis for @p workload (a canonical suite /
 * gen: name) bounded by @p budget stream instructions (0 = to HALT).
 * Results are process-wide shared (immutable) and keyed by (workload,
 * params, budget), so sweep cells over the same workload pay for
 * profiling once — mirroring the sampled checkpoint cache.
 *
 * When this call builds the profile, @p anchors_out (optional)
 * receives its anchors (collectBbvsAnchored()); on a cache hit it is
 * left empty.  Anchors are never cached.
 */
std::shared_ptr<const PhaseAnalysis>
phaseAnalysisFor(const std::string &workload, const PhaseParams &params,
                 u64 budget,
                 std::vector<Checkpoint> *anchors_out = nullptr);

/** Drop every cached phase analysis and zero the counters (test hook,
 *  companion to clearCheckpointCache()). */
void clearPhaseCache();

/** Process-lifetime accounting for the shared phase-analysis cache. */
struct PhaseCacheCounters
{
    u64 hits = 0;
    u64 builds = 0;
};

PhaseCacheCounters phaseCacheCounters();

} // namespace dmt

#endif // DMT_EXP_PHASE_HH

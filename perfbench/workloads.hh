/**
 * @file
 * The benchmark's workloads and the passes that run them.
 *
 * A pass runs every program of a workload once, the way a user of the
 * simulator would: untraced passes go through the public entry points
 * (runWorkload, runWorkloadSampled, SweepRunner) and time the whole;
 * traced passes replay the same work through the layers' public calls
 * with a span around each, and check that every simulated result
 * equals the untraced one.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dmt/stats.hh"
#include "spans.hh"
#include "uarch/config.hh"

namespace perfbench
{

using dmt::u64;

/** The sampling spec of every sampled run (the BENCH_phase.json one). */
inline constexpr const char *kPhaseSpec = "phase:20000:4000:4000:8:16:42";

/** One input program: a stable label for metric names (seed-free) and
 *  the canonical workload spec the simulator builds. */
struct BenchProgram
{
    std::string label;
    std::string spec;
};

struct Machine
{
    std::string name;
    dmt::SimConfig cfg;
};

enum class Kind
{
    Detail,      ///< full-detail runs plus a sampled estimate each
    SampledLong, ///< phase-sampled paper-scale programs to HALT
    Figure,      ///< the Fig 4 grid through SweepRunner
};

struct Workload
{
    Kind kind = Kind::Detail;
    std::string name;
    std::vector<BenchProgram> programs;
    std::vector<Machine> machines;
};

/** The workload called @p name with its generated programs seeded by
 *  @p seed; false for an unknown name. */
bool makeWorkload(const std::string &name, u64 seed, Workload *out);

/** Simulated counts compared between runs (identical for identical
 *  simulations; a simulator-speed change must leave them unchanged). */
struct Counts
{
    u64 cycles = 0;
    u64 retired = 0;
    u64 dispatched = 0;
    u64 threads_spawned = 0;
    u64 squashed_insts = 0;
    u64 recoveries = 0;
    u64 lsq_violations = 0;
    u64 cond_mispredicts = 0;
    u64 indirect_mispredicts = 0;
    u64 icache_misses = 0;
    u64 dcache_misses = 0;

    static Counts of(const dmt::DmtStats &s);
    Counts &operator+=(const Counts &o);
    bool operator==(const Counts &o) const = default;
};

/** Deterministic outcome of one program run: the CPI it reports
 *  (full-detail CPI, or the weighted sampled estimate) and its counts
 *  (whole run, or the measured windows). */
struct RunOutput
{
    double cpi = 0.0;
    Counts counts;
    bool operator==(const RunOutput &o) const = default;
};

/** Detailed instructions retired and host seconds spent on them. */
struct Throughput
{
    u64 instr = 0;
    double seconds = 0.0;
};

/** What one pass measured. */
struct PassResult
{
    double wall_s = 0.0;
    u64 covered = 0; ///< stream instructions whose CPI the pass produced
    std::map<std::string, Throughput> detailed; ///< by machine name
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> errors;
    /** Keyed "<program>/<machine>/<full|sampled>". */
    std::map<std::string, RunOutput> outputs;
    /** detail: per-program (sampled - full) / full * 100, dmt6. */
    std::map<std::string, double> signed_err_pct;
    u64 ckpt_hits = 0, ckpt_builds = 0;
    u64 phase_hits = 0, phase_builds = 0;
    /** Per-layer numbers (traced passes only). */
    std::map<std::string, double> layer;
    /** The traced pass's spans, for the Chrome trace and checks. */
    SpanRecorder spans;
};

/** One untraced pass through the public entry points. */
PassResult runUntraced(const Workload &w);

/**
 * One traced pass.  Runs whose untraced counterpart in @p ref failed
 * are skipped; every other output must equal @p ref's bit for bit, or
 * the run counts as failed.
 */
PassResult runTraced(const Workload &w, const PassResult &ref);

/** Build every program of @p w once: the set-up a run pays before
 *  it simulates (the workloads layer). */
void setUp(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

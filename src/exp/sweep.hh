/**
 * @file
 * Parallel experiment scheduler.  The paper's evaluation is a grid of
 * machine-configuration x benchmark simulations; every cell is an
 * independent, deterministic, single-threaded runWorkload() call, so a
 * sweep parallelizes perfectly.  SweepRunner fans queued jobs out over
 * a fixed pool of worker threads (DMT_JOBS, default the host's
 * hardware concurrency) and hands the results back in submission
 * order, so callers see exactly the serial semantics — including
 * bit-identical RunResults — regardless of completion order.
 *
 * Error model: a job whose simulation throws SimError (watchdog,
 * invariant audit, golden mismatch) becomes a failed cell carrying the
 * message; the rest of the sweep keeps going.  This preserves the
 * keep-going contract the serial benches had.
 *
 * Determinism contract (see DESIGN.md section 10): workers share no
 * mutable simulator state — each job builds its own Program and
 * DmtEngine — so results depend only on (config, workload, budget),
 * never on pool width or scheduling.
 */

#ifndef DMT_EXP_SWEEP_HH
#define DMT_EXP_SWEEP_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "exp/runner.hh"
#include "uarch/config.hh"

namespace dmt
{

class JsonWriter;

/** One queued (machine, workload) simulation. */
struct SweepJob
{
    std::string label;    ///< diagnostics/progress, e.g. "go/6T"
    std::string workload; ///< suite name for runWorkload()
    SimConfig cfg;
    u64 max_retired = 0;  ///< 0 = runWorkload()'s default
};

/** Outcome of one job; failed cells carry the SimError message. */
struct SweepCell
{
    bool ok = false;
    RunResult result;
    std::string error;
    double wall_seconds = 0.0;
};

/** Aggregate timing/throughput accounting for one sweep. */
struct SweepStats
{
    int pool_width = 1;      ///< worker threads actually used
    u64 jobs_total = 0;
    u64 jobs_failed = 0;
    u64 retired_total = 0;   ///< instructions retired across all jobs
    double wall_seconds = 0.0; ///< whole-sweep wall clock
    double busy_seconds = 0.0; ///< sum of per-job wall clocks

    /** Simulated instructions retired per wall-clock second. */
    double
    throughput() const
    {
        return wall_seconds > 0.0
            ? static_cast<double>(retired_total) / wall_seconds
            : 0.0;
    }

    /** Effective parallelism: busy time over wall time. */
    double
    parallelism() const
    {
        return wall_seconds > 0.0 ? busy_seconds / wall_seconds : 0.0;
    }

    void jsonOn(JsonWriter &w) const;
};

/**
 * Pool width for sweeps: DMT_JOBS when set (>= 1), otherwise the
 * host's hardware concurrency (>= 1).
 */
int sweepJobs();

/** Fixed-pool scheduler over independent simulation jobs. */
class SweepRunner
{
  public:
    /** Called after each job completes — in *completion* order, under
     *  an internal lock (safe to print from). */
    using Progress = std::function<void(const SweepJob &job,
                                        const SweepCell &cell,
                                        size_t done, size_t total)>;

    /** @param pool worker count; <= 0 means sweepJobs(). */
    explicit SweepRunner(int pool = 0);

    /** Queue a job; returns its index (== its cell's index). */
    size_t add(SweepJob job);

    /** Convenience: queue a (cfg, workload) pair. */
    size_t add(const SimConfig &cfg, const std::string &workload,
               u64 max_retired = 0, std::string label = "");

    size_t size() const { return jobs_.size(); }

    /** The pool width run() will use (after clamping). */
    int poolWidth() const { return pool_; }

    /**
     * Execute every queued job and return the cells in add() order.
     * May be called once; file-writing trace sinks (chrome/counters)
     * force the pool serial to keep their single-file contract.
     */
    const std::vector<SweepCell> &run(const Progress &progress = {});

    const std::vector<SweepCell> &cells() const { return cells_; }
    const SweepStats &stats() const { return stats_; }

  private:
    int pool_;
    bool ran_ = false;
    std::vector<SweepJob> jobs_;
    std::vector<SweepCell> cells_;
    SweepStats stats_;
};

} // namespace dmt

#endif // DMT_EXP_SWEEP_HH

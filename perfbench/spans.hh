/**
 * @file
 * In-memory span recorder for the benchmark's traced invocation.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public functions; nothing inside the simulator is
 * instrumented.  Each span has a name, the layer it times, a start and
 * end on one steady clock, the span that caused it and the program run
 * it belongs to.  The recorder keeps everything in memory and writes a
 * Chrome-trace JSON document on request, so recording costs one clock
 * read and one vector append per boundary.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One recorded interval. */
struct Span
{
    std::string name;
    std::string layer;
    double start = 0.0; ///< seconds since the recorder's origin
    double end = 0.0;
    int parent = -1;    ///< index into the span list, -1 = top level
    int run = 0;        ///< program-run id shared by a run's spans;
                        ///< 0 for a span that contains several runs
    int tid = 0;        ///< host thread lane (sweep workers differ)
};

/** Outcome of the structural checks on a span list. */
struct SpanCheck
{
    bool ok = true;
    std::string error;    ///< first violation found
    double coverage = 0.0; ///< top-level union / window length
};

class SpanRecorder
{
  public:
    SpanRecorder() : origin_(Clock::now()) {}

    /** Seconds since the origin for @p t. */
    double at(Clock::time_point t) const
    {
        return secondsBetween(origin_, t);
    }
    double now() const { return at(Clock::now()); }

    /** Open a span under the innermost open one (or at top level);
     *  returns its index. */
    int open(std::string name, std::string layer, int run);
    void close(int id);

    /** Record a finished span measured elsewhere.  Sweep cells run on
     *  worker threads and are added from SweepRunner's progress
     *  callback, which the runner serializes while the thread that
     *  owns the recorder is blocked in SweepRunner::run(). */
    int add(Span s);

    /** Index of the innermost open span, -1 when none. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration minus the union of the children's intervals. */
    std::vector<double> selfTimes() const;

    /** Sum of self times per layer. */
    std::map<std::string, double> selfByLayer() const;

    double duration(int id) const
    {
        const Span &s = spans_[static_cast<size_t>(id)];
        return s.end - s.start;
    }

    /** Sum of durations of spans with @p name. */
    double total(const std::string &name) const;

    /**
     * Children lie inside their parent and share its run id, every
     * self time is >= 0, and the top-level spans cover at least
     * @p min_coverage of [@p window_start, @p window_end].
     */
    SpanCheck check(double window_start, double window_end,
                    double min_coverage) const;

    /** Chrome trace-event JSON ("X" events, microseconds). */
    std::string chromeJson() const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Scoped span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string layer,
               int run)
        : rec_(rec), id_(rec.open(std::move(name), std::move(layer), run))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    int id() const { return id_; }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

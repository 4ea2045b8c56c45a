/**
 * @file
 * Tracer: the engine-facing front door of the telemetry subsystem.
 * The engine owns one Tracer, calls configure() once with the run's
 * TraceOptions, and then reports events through emit().  The Tracer
 * fans each event out to the configured sinks and, every
 * sample_period cycles, delivers a TraceSample counters snapshot.
 *
 * The disabled path is dead cheap: emit() is inline and returns after
 * a single predictable branch on a bool, so pipeline stages can hook
 * unconditionally without measurable cost when tracing is off.
 */

#ifndef DMT_TRACE_TRACER_HH
#define DMT_TRACE_TRACER_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/options.hh"
#include "trace/sink.hh"

namespace dmt
{

class RingSink;

/** Dispatches TraceEvents/TraceSamples to the configured sinks. */
class Tracer
{
  public:
    Tracer() = default;
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Build sinks from @p opts.  If tracing is enabled but no sink is
     * selected, a RingSink is attached so events are observable.
     * Replaces any previously configured sinks.
     */
    void configure(const TraceOptions &opts);

    /** Attach an externally built sink and enable tracing (tests). */
    void addSink(std::unique_ptr<TraceSink> sink);

    /** Force tracing on/off without touching the sink set. */
    void setEnabled(bool on) { enabled_ = on && !sinks_.empty(); }

    bool enabled() const { return enabled_; }

    /** Report one event.  No-op (one branch) when disabled. */
    void
    emit(Cycle cycle, ThreadId tid, TraceStage stage,
         TraceEventKind kind, Addr pc = 0, u64 a = 0, u64 b = 0)
    {
        if (!enabled_)
            return;
        TraceEvent e;
        e.cycle = cycle;
        e.tid = tid;
        e.stage = stage;
        e.kind = kind;
        e.pc = pc;
        e.a = a;
        e.b = b;
        for (auto &s : sinks_)
            s->event(e);
    }

    /** True when a counters sample is due this cycle. */
    bool
    sampleDue(Cycle now) const
    {
        return enabled_ && sample_period_ > 0
            && now % static_cast<Cycle>(sample_period_) == 0;
    }

    /** Deliver a counters snapshot to every sink. */
    void sample(const TraceSample &s);

    /** Flush all sinks.  Idempotent; also run by the destructor. */
    void finish();

    /** The ring sink, when one is configured (else nullptr). */
    RingSink *ring() const { return ring_; }

  private:
    bool enabled_ = false;
    bool finished_ = false;
    int sample_period_ = 0;
    RingSink *ring_ = nullptr; ///< borrowed from sinks_
    std::vector<std::unique_ptr<TraceSink>> sinks_;
};

/**
 * Parse a trace spec "sinks[:file=P][:counters_file=P][:sample=N]
 * [:ring=N]" on top of @p out.
 *
 *  - sinks: comma-separated list of "chrome", "ring", "counters" and
 *    "insts"; "on" (also "1") keeps the configured selection (default:
 *    the ring sink); "off" (also "0") disables tracing.
 *  - file / counters_file: Chrome trace / counters sink output paths.
 *  - sample: cycles between counter samples, in [1, 2^30].
 *  - ring: ring sink capacity in [1, 2^30]; selects the ring sink.
 *
 * @retval false with a message in @p err (when non-null) on an unknown
 *         sink or field, a bad number, or a path containing ':';
 *         @p out is then unchanged.
 */
bool parseTraceSpec(std::string_view spec, TraceOptions *out,
                    std::string *err);

} // namespace dmt

#endif // DMT_TRACE_TRACER_HH

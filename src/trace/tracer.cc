#include "trace/tracer.hh"

#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "trace/chrome_sink.hh"
#include "trace/counters_sink.hh"
#include "trace/ring_sink.hh"

namespace dmt
{

Tracer::~Tracer()
{
    finish();
}

void
Tracer::configure(const TraceOptions &opts)
{
    sinks_.clear();
    ring_ = nullptr;
    enabled_ = false;
    finished_ = false;
    sample_period_ = opts.sample_period;

    if (!opts.enabled)
        return;

    bool any_selected = opts.ring || opts.chrome || opts.counters;
    if (opts.ring || !any_selected) {
        auto ring = std::make_unique<RingSink>(
            opts.ring_capacity > 0
                ? static_cast<size_t>(opts.ring_capacity) : 1);
        ring_ = ring.get();
        sinks_.push_back(std::move(ring));
    }
    if (opts.chrome) {
        sinks_.push_back(std::make_unique<ChromeSink>(opts.chrome_file,
                                                      opts.insts));
    }
    if (opts.counters) {
        sinks_.push_back(std::make_unique<CountersSink>(
            opts.counters_file, opts.sample_period));
    }
    enabled_ = !sinks_.empty();
}

void
Tracer::addSink(std::unique_ptr<TraceSink> sink)
{
    DMT_ASSERT(sink != nullptr, "addSink needs a sink");
    if (!ring_)
        ring_ = dynamic_cast<RingSink *>(sink.get());
    sinks_.push_back(std::move(sink));
    enabled_ = true;
    finished_ = false;
}

void
Tracer::sample(const TraceSample &s)
{
    if (!enabled_)
        return;
    for (auto &snk : sinks_)
        snk->sample(s);
}

void
Tracer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    for (auto &snk : sinks_)
        snk->finish();
}

bool
parseTraceSpec(std::string_view spec, TraceOptions *out, std::string *err)
{
    const std::vector<std::string> fields = splitExact(trim(spec), ':');
    TraceOptions o = *out;
    for (size_t i = 1; i < fields.size(); ++i) {
        const std::string &f = fields[i];
        const size_t eq = f.find('=');
        if (eq == std::string::npos || eq + 1 == f.size())
            return specError(err, "trace field '" + f + "' is not "
                                  "key=value (file paths may not "
                                  "contain ':')");
        const std::string key = f.substr(0, eq);
        const std::string val = f.substr(eq + 1);
        u64 n = 0;
        if (key == "file") {
            o.chrome_file = val;
        } else if (key == "counters_file") {
            o.counters_file = val;
        } else if (key != "sample" && key != "ring") {
            return specError(err, "unknown trace field '" + key
                                      + "' (expected file, "
                                        "counters_file, sample or ring)");
        } else if (!parseU64(val, &n) || n < 1 || n > (1u << 30)) {
            return specError(err, "trace " + key + " must be an integer "
                                  "in [1, 2^30], got '" + val + "'");
        } else if (key == "sample") {
            o.sample_period = static_cast<int>(n);
        } else {
            o.ring = true;
            o.ring_capacity = static_cast<int>(n);
        }
    }

    const std::string &sinks = fields[0];
    o.enabled = !(sinks == "off" || sinks == "0");
    for (const std::string &tok :
         o.enabled ? splitExact(sinks, ',') : std::vector<std::string>{}) {
        // "1"/"on" keep the configured selection (default: ring).
        if (tok == "ring")
            o.ring = true;
        else if (tok == "chrome")
            o.chrome = true;
        else if (tok == "counters")
            o.counters = true;
        else if (tok == "insts")
            o.insts = true;
        else if (tok != "1" && tok != "on")
            return specError(err, "unknown trace sink '" + tok
                                      + "' (sinks: ring, chrome, "
                                        "counters, insts, on, off)");
    }
    *out = o;
    return true;
}

} // namespace dmt

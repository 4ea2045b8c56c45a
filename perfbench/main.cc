/**
 * @file
 * Benchmark entry point: perfbench --workload <name> --seed <n>
 *     --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * --trace 0 runs untraced passes for about --seconds, with rounds of
 * set-up (program builds) around them, and prints the end-to-end
 * metrics (medians over passes and set-ups).  --trace 1 alternates an
 * untraced pass with a traced one for about --seconds, prints the
 * per-layer metrics (medians over traced passes) and writes the last
 * traced pass as a Chrome trace.  Either way the last stdout line is
 * one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> v = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"peak_rss_mib", "MiB"},
        {"covered_minstr_s", "Minstr/s"},
        {"dmt6_minstr_s", "Minstr/s"},
        {"baseline_minstr_s", "Minstr/s"},
    };
    return v;
}

/** Labels of the detail programs, for the per-program error metrics. */
std::vector<std::string>
detailLabels()
{
    Workload w;
    makeWorkload("detail", 1, &w);
    std::vector<std::string> v;
    for (const BenchProgram &p : w.programs)
        v.push_back(p.label);
    return v;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> v = [] {
        std::vector<MetricDef> m = {
            {"workloads.build_s", "s"},
            {"functional.run_s", "s"},
            {"functional.instr", "count"},
            {"functional.ns_per_instr", "ns"},
            {"functional.passes", "ratio"},
            {"functional.chain_hit_ratio", "ratio"},
            {"functional.blocks_translated", "count"},
            {"phase.profile_s", "s"},
            {"phase.cluster_s", "s"},
            {"phase.intervals", "count"},
            {"phase.k", "count"},
            {"checkpoint.capture_s", "s"},
            {"checkpoint.count", "count"},
            {"checkpoint.bytes", "bytes"},
            {"ckpt_cache.hits", "count"},
            {"ckpt_cache.builds", "count"},
            {"phase_cache.hits", "count"},
            {"phase_cache.builds", "count"},
            {"engine.construct_s", "s"},
            {"engine.windows", "count"},
            {"engine.warm_s", "s"},
            {"engine.measure_s", "s"},
        };
        const char *machines[] = {"baseline", "dmt6"};
        for (const char *mc : machines) {
            const std::string s = mc;
            m.push_back({"engine.run_s." + s, "s"});
            m.push_back({"engine.ns_per_cycle." + s, "ns"});
            m.push_back({"engine.ns_per_retired." + s, "ns"});
        }
        const MetricDef counts[] = {
            {"dmt.cycles", "count"},
            {"dmt.retired", "count"},
            {"dmt.useful_ratio", "ratio"},
            {"dmt.threads_spawned", "count"},
            {"dmt.squashed_insts", "count"},
            {"dmt.recoveries", "count"},
            {"dmt.lsq_violations", "count"},
            {"branch.cond_mispredicts", "count"},
            {"branch.indirect_mispredicts", "count"},
            {"memory.icache_misses", "count"},
            {"memory.dcache_misses", "count"},
        };
        for (const char *kind : {"full", "window"})
            for (const char *mc : machines)
                for (const MetricDef &c : counts)
                    m.push_back({std::string(kind) + "." + mc + "." + c.name,
                                 c.unit});
        const std::vector<MetricDef> rest = {
            {"sweep.busy_s", "s"},
            {"sweep.parallelism", "ratio"},
            {"sweep.cell_p50_s", "s"},
            {"sweep.cell_p75_s", "s"},
            {"sweep.tail_s", "s"},
            {"bench.self_s", "s"},
            {"workloads.self_s", "s"},
            {"sim.self_s", "s"},
            {"phase.self_s", "s"},
            {"checkpoint.self_s", "s"},
            {"engine.self_s", "s"},
            {"sweep.self_s", "s"},
            {"trace.wall_s", "s"},
            {"trace.overhead_s", "s"},
            {"trace.spans", "count"},
            {"trace.coverage", "ratio"},
            {"accuracy.sampled_cpi_abs_err_pct", "%"},
            {"accuracy.sampled_cpi_abs_bias_pct", "%"},
        };
        m.insert(m.end(), rest.begin(), rest.end());
        for (const std::string &l : detailLabels())
            m.push_back({"accuracy.signed_err_pct." + l, "%"});
        return m;
    }();
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Number formatted with every digit, for the result line. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    dmt::JsonWriter w;
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").beginObject();
    for (const MetricDef &d : defs) {
        const auto it = values.find(d.name);
        w.key(d.name).beginObject();
        w.key("value").rawValue(num(it != values.end() ? it->second : 0.0));
        w.key("unit").value(std::string_view(d.unit));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::fflush(stderr);
    std::printf("%s\n", w.str().c_str());
}

/** Every pass of a run must produce the same simulated results. */
void
checkRepeat(PassResult &p, const PassResult &first)
{
    if (p.outputs != first.outputs
        || p.signed_err_pct != first.signed_err_pct) {
        ++p.failed;
        p.errors.push_back("simulated results differ between passes");
    }
}

void
reportErrors(const PassResult &p)
{
    for (const std::string &e : p.errors)
        std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
}

/** Keeps starting passes while the next one, as long as the last,
 *  would still end within @p seconds (at least one pass). */
bool
another(Clock::time_point start, double seconds, double last)
{
    return secondsBetween(start, Clock::now()) + last <= seconds;
}

int
runPlain(const Workload &w, double seconds)
{
    // Set-up: build every program repeatedly, in rounds before every
    // pass and after the last, so the median (setup_s) samples the host
    // over the whole run like the pass metrics do.
    std::vector<double> setups;
    auto setupRound = [&w, &setups] {
        const auto r0 = Clock::now();
        for (int n = 0; n < 5 || secondsBetween(r0, Clock::now()) < 0.1;
             ++n) {
            const auto t = Clock::now();
            setUp(w);
            setups.push_back(secondsBetween(t, Clock::now()));
        }
    };

    std::vector<PassResult> passes;
    std::vector<double> wall, covered, dmt6, base;
    u64 attempted = 0, failed = 0;
    const auto start = Clock::now();
    do {
        setupRound();
        passes.push_back(runUntraced(w));
        PassResult &p = passes.back();
        if (passes.size() > 1)
            checkRepeat(p, passes.front());
        reportErrors(p);
        attempted += p.attempted;
        failed += p.failed;
        wall.push_back(p.wall_s);
        covered.push_back(static_cast<double>(p.covered) / p.wall_s / 1e6);
        auto rate = [&p](const char *m) {
            const Throughput &t = p.detailed[m];
            return t.seconds > 0.0
                ? static_cast<double>(t.instr) / t.seconds / 1e6 : 0.0;
        };
        dmt6.push_back(rate("dmt6"));
        base.push_back(rate("baseline"));
        std::fprintf(stderr,
                     "perfbench: %s pass %zu: wall %.3f s, covered %.1f "
                     "Minstr/s, dmt6 %.3f Minstr/s, baseline %.3f "
                     "Minstr/s, %llu/%llu failed\n",
                     w.name.c_str(), passes.size(), wall.back(),
                     covered.back(), dmt6.back(), base.back(),
                     static_cast<unsigned long long>(p.failed),
                     static_cast<unsigned long long>(p.attempted));
    } while (another(start, seconds, wall.back()));
    setupRound();

    const PassResult &first = passes.front();
    for (const auto &[label, err] : first.signed_err_pct)
        std::fprintf(stderr, "perfbench: sampled CPI error %-14s %+8.3f %%\n",
                     label.c_str(), err);
    std::fprintf(stderr, "perfbench: failed_ratio %.4f (%llu of %llu runs)\n",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));

    const std::map<std::string, double> values = {
        {"setup_s", median(setups)},
        {"wall_s", median(wall)},
        {"peak_rss_mib", peakRssMib()},
        {"covered_minstr_s", median(covered)},
        {"dmt6_minstr_s", median(dmt6)},
        {"baseline_minstr_s", median(base)},
    };
    printResult(failed == 0, attempted, failed, endToEndMetrics(), values);
    return 0;
}

void
accuracyMetrics(const PassResult &u, std::map<std::string, double> &out)
{
    double abs_sum = 0.0, signed_sum = 0.0;
    for (const auto &[label, err] : u.signed_err_pct) {
        out["accuracy.signed_err_pct." + label] = err;
        abs_sum += std::fabs(err);
        signed_sum += err;
    }
    const double n = static_cast<double>(u.signed_err_pct.size());
    if (n > 0) {
        out["accuracy.sampled_cpi_abs_err_pct"] = abs_sum / n;
        out["accuracy.sampled_cpi_abs_bias_pct"] = std::fabs(signed_sum / n);
    }
}

int
runTracedMode(const Workload &w, double seconds, const std::string &trace_out)
{
    std::vector<PassResult> untraced, traced;
    u64 attempted = 0, failed = 0;
    const auto start = Clock::now();
    double last = 0.0;
    do {
        const auto t = Clock::now();
        untraced.push_back(runUntraced(w));
        if (untraced.size() > 1)
            checkRepeat(untraced.back(), untraced.front());
        traced.push_back(runTraced(w, untraced.back()));
        for (PassResult *p : {&untraced.back(), &traced.back()}) {
            reportErrors(*p);
            attempted += p->attempted;
            failed += p->failed;
        }
        last = secondsBetween(t, Clock::now());
        std::fprintf(stderr,
                     "perfbench: %s traced pair %zu: untraced %.3f s, "
                     "traced %.3f s\n",
                     w.name.c_str(), traced.size(), untraced.back().wall_s,
                     traced.back().wall_s);
    } while (another(start, seconds, last));

    // Times: median over traced passes.  Counts repeat exactly.
    std::map<std::string, double> values;
    for (const MetricDef &d : perLayerMetrics()) {
        std::vector<double> v;
        for (const PassResult &p : traced) {
            const auto it = p.layer.find(d.name);
            if (it != p.layer.end())
                v.push_back(it->second);
        }
        if (!v.empty())
            values[d.name] = median(v);
    }
    const PassResult &u = untraced.front();
    values["ckpt_cache.hits"] = static_cast<double>(u.ckpt_hits);
    values["ckpt_cache.builds"] = static_cast<double>(u.ckpt_builds);
    values["phase_cache.hits"] = static_cast<double>(u.phase_hits);
    values["phase_cache.builds"] = static_cast<double>(u.phase_builds);
    accuracyMetrics(u, values);

    if (!trace_out.empty()) {
        std::FILE *f = std::fopen(trace_out.c_str(), "w");
        if (f) {
            const std::string doc = traced.back().spans.chromeJson();
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
            std::fprintf(stderr, "perfbench: chrome trace written to %s\n",
                         trace_out.c_str());
        } else {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_out.c_str());
        }
    }
    for (const auto &[layer, self] : traced.back().spans.selfByLayer())
        std::fprintf(stderr, "perfbench: self time %-11s %9.4f s\n",
                     layer.c_str(), self);
    printResult(failed == 0, attempted, failed, perLayerMetrics(), values);
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "detail|sampled-long|figure --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    u64 seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
            have_seed = *v && *end == '\0';
            if (!have_seed)
                usage("bad --seed");
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
            if (!*v || *end != '\0' || !(seconds > 0.0))
                usage("bad --seconds");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("bad --trace");
            trace = v[0] - '0';
        } else if (a == "--trace-out") {
            trace_out = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_seed || seconds <= 0.0 || trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");

    Workload w;
    if (!makeWorkload(workload, seed, &w))
        usage(("unknown workload " + workload).c_str());
    dmt::setLogQuiet(true);
    try {
        return trace ? runTracedMode(w, seconds, trace_out)
                     : runPlain(w, seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

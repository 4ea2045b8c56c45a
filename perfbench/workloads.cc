#include "workloads.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "common/strutil.hh"
#include "dmt/engine.hh"
#include "exp/experiments.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "exp/sweep.hh"
#include "sim/checkpoint.hh"
#include "sim/functional_core.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using dmt::Program;
using dmt::SimConfig;

namespace
{

/** Full-detail runs go to HALT; this cap lies beyond every program. */
constexpr u64 kWholeProgram = u64{1} << 40;

/** Fig 4 runs its grid on two workers: enough for contention and
 *  stragglers to show, half the cores of a small host. */
constexpr int kFigureWorkers = 2;

/** Traced top-level spans must cover this share of the traced wall. */
constexpr double kMinCoverage = 0.99;

dmt::SampleParams
phaseParams()
{
    dmt::SampleParams p;
    std::string err;
    if (!dmt::SampleParams::parse(kPhaseSpec, &p, &err))
        dmt::panic("sample spec %s: %s", kPhaseSpec, err.c_str());
    return p;
}

std::string
gen(const std::string &family, u64 seed, const std::string &knobs)
{
    return dmt::canonicalWorkloadName(dmt::strprintf(
        "gen:%s:%llu:%s", family.c_str(),
        static_cast<unsigned long long>(seed), knobs.c_str()));
}

std::vector<BenchProgram>
suitePrograms()
{
    std::vector<BenchProgram> v;
    for (const dmt::WorkloadInfo &info : dmt::workloadSuite())
        v.push_back({info.name, info.name});
    return v;
}

std::string
key(const std::string &program, const std::string &machine,
    bool sampled)
{
    return program + "/" + machine + (sampled ? "/sampled" : "/full");
}

struct PhaseRow
{
    double weight = 0.0;
    bool measured = false;
    double cpi = 0.0;
};

/** Phase-weighted CPI over the measured phases, computed in the same
 *  order and with the same operations as runWorkloadSampled's phase
 *  aggregate, so the two agree bit for bit. */
double
weightedCpi(const std::vector<PhaseRow> &rows)
{
    double wsum = 0.0;
    size_t measured = 0;
    for (const PhaseRow &r : rows) {
        if (r.measured) {
            wsum += r.weight;
            ++measured;
        }
    }
    if (measured == 0 || wsum <= 0.0)
        return 0.0;
    double mean = 0.0;
    for (const PhaseRow &r : rows)
        if (r.measured)
            mean += (r.weight / wsum) * r.cpi;
    return mean;
}

/** Failure bookkeeping shared by both pass kinds. */
void
fail(PassResult &p, const std::string &what)
{
    ++p.failed;
    if (p.errors.size() < 20)
        p.errors.push_back(what);
}

void
addCacheCounters(PassResult &p)
{
    const dmt::CheckpointCacheCounters c = dmt::checkpointCacheCounters();
    const dmt::PhaseCacheCounters ph = dmt::phaseCacheCounters();
    p.ckpt_hits += c.mem_hits + c.disk_hits;
    p.ckpt_builds += c.builds;
    p.phase_hits += ph.hits;
    p.phase_builds += ph.builds;
}

void
clearCaches()
{
    dmt::clearCheckpointCache();
    dmt::clearPhaseCache();
}

/** Detailed instructions of a sampled run and the host time spent on
 *  everything but fast-forward and profiling (engine windows, plus
 *  checkpoint capture, which the run does not time apart). */
void
addWindowThroughput(PassResult &p, const std::string &machine,
                    const dmt::RunResult &r)
{
    Throughput &t = p.detailed[machine];
    t.instr += r.sampling.covered - r.sampling.functional_instr;
    t.seconds += r.wall_s - r.sampling.func_wall_s;
}

RunOutput
sampledOutput(const dmt::RunResult &r)
{
    return {r.sampling.cpi_mean, Counts::of(r.stats)};
}

// ---- untraced passes ---------------------------------------------------

void
untracedDetail(const Workload &w, PassResult &p)
{
    const dmt::SampleParams params = phaseParams();
    const Machine &dmt6 = w.machines.back();
    for (const BenchProgram &prog : w.programs) {
        double full_cpi = 0.0;
        for (const Machine &m : w.machines) {
            ++p.attempted;
            try {
                const dmt::RunResult r =
                    dmt::runWorkload(m.cfg, prog.spec, kWholeProgram);
                if (!r.completed) {
                    fail(p, key(prog.label, m.name, false)
                                + ": did not reach HALT");
                    continue;
                }
                const RunOutput out{static_cast<double>(r.cycles)
                                        / static_cast<double>(r.retired),
                                    Counts::of(r.stats)};
                p.outputs[key(prog.label, m.name, false)] = out;
                p.covered += r.retired;
                p.detailed[m.name].instr += r.retired;
                p.detailed[m.name].seconds += r.wall_s;
                if (&m == &dmt6)
                    full_cpi = out.cpi;
            } catch (const std::exception &e) {
                fail(p, key(prog.label, m.name, false) + ": " + e.what());
            }
        }

        // Cold-cache phase-sampled estimate on dmt6, scored against
        // the full-detail CPI just measured.
        ++p.attempted;
        try {
            clearCaches();
            const dmt::RunResult r =
                dmt::runWorkloadSampled(dmt6.cfg, prog.spec, params, 0);
            addCacheCounters(p);
            p.outputs[key(prog.label, dmt6.name, true)] = sampledOutput(r);
            p.covered += r.sampling.covered;
            if (full_cpi > 0.0) {
                p.signed_err_pct[prog.label] =
                    (r.sampling.cpi_mean - full_cpi) / full_cpi * 100.0;
            }
        } catch (const std::exception &e) {
            fail(p, key(prog.label, dmt6.name, true) + ": " + e.what());
        }
    }
}

void
untracedSampledLong(const Workload &w, PassResult &p)
{
    const dmt::SampleParams params = phaseParams();
    for (const BenchProgram &prog : w.programs) {
        for (const Machine &m : w.machines) {
            ++p.attempted;
            try {
                clearCaches();
                const dmt::RunResult r = dmt::runWorkloadSampled(
                    m.cfg, prog.spec, params, 0);
                addCacheCounters(p);
                if (!r.completed) {
                    fail(p, key(prog.label, m.name, true)
                                + ": did not reach HALT");
                    continue;
                }
                p.outputs[key(prog.label, m.name, true)] = sampledOutput(r);
                p.covered += r.sampling.covered;
                addWindowThroughput(p, m.name, r);
            } catch (const std::exception &e) {
                fail(p, key(prog.label, m.name, true) + ": " + e.what());
            }
        }
    }
}

/** Cell start/end (recorder seconds) and worker lane, from the
 *  SweepRunner progress callback. */
struct CellTiming
{
    double start = 0.0, end = 0.0;
    int lane = 0;
};

/**
 * The Fig 4 grid through SweepRunner, phase-sampled via DMT_SAMPLE
 * (the runner's only sampling input), caches cleared once.  With
 * @p rec set, each cell becomes a span under one "SweepRunner::run"
 * span and the sweep's per-layer numbers land in p.layer.
 */
void
sweepFigure(const Workload &w, PassResult &p, SpanRecorder *rec)
{
    ::setenv("DMT_SAMPLE", kPhaseSpec, 1);
    clearCaches();
    dmt::SweepRunner runner(kFigureWorkers);
    std::vector<std::string> labels;
    for (const BenchProgram &prog : w.programs) {
        for (const Machine &m : w.machines) {
            labels.push_back(key(prog.label, m.name, true));
            runner.add(m.cfg, prog.spec, 0, labels.back());
        }
    }

    std::vector<CellTiming> timing(runner.size());
    std::map<std::thread::id, int> lanes;
    dmt::SweepRunner::Progress progress;
    int sweep_span = -1;
    if (rec) {
        sweep_span = rec->open("SweepRunner::run", "sweep", 0);
        progress = [&](const dmt::SweepJob &job, const dmt::SweepCell &cell,
                       size_t, size_t) {
            const double end = rec->now();
            const auto lane = lanes.emplace(std::this_thread::get_id(),
                                            static_cast<int>(lanes.size()));
            const size_t i = static_cast<size_t>(
                std::find(labels.begin(), labels.end(), job.label)
                - labels.begin());
            timing[i] = {end - cell.wall_seconds, end, lane.first->second};
        };
    }

    const auto t0 = Clock::now();
    const std::vector<dmt::SweepCell> &cells = runner.run(progress);
    p.wall_s = secondsBetween(t0, Clock::now());
    addCacheCounters(p);
    ::unsetenv("DMT_SAMPLE");

    for (size_t i = 0; i < cells.size(); ++i) {
        const dmt::SweepCell &cell = cells[i];
        ++p.attempted;
        if (!cell.ok) {
            fail(p, labels[i] + ": " + cell.error);
        } else {
            p.outputs[labels[i]] = sampledOutput(cell.result);
            p.covered += cell.result.sampling.covered;
            addWindowThroughput(p, w.machines[i % w.machines.size()].name,
                                cell.result);
        }
        if (rec) {
            Span s;
            s.name = "SweepCell " + labels[i];
            s.layer = "sweep";
            s.start = timing[i].start;
            s.end = timing[i].end;
            s.parent = sweep_span;
            s.run = static_cast<int>(i) + 1;
            s.tid = timing[i].lane;
            rec->add(std::move(s));
        }
    }
    if (!rec)
        return;
    rec->close(sweep_span);

    const dmt::SweepStats &st = runner.stats();
    std::vector<double> walls;
    for (const dmt::SweepCell &cell : cells)
        walls.push_back(cell.wall_seconds);
    std::sort(walls.begin(), walls.end());
    auto quantile = [&walls](double q) {
        const double pos = q * static_cast<double>(walls.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const size_t hi = std::min(lo + 1, walls.size() - 1);
        return walls[lo] + (walls[hi] - walls[lo])
            * (pos - static_cast<double>(lo));
    };

    // Time inside the sweep with fewer cells running than workers.
    const Span &sw = rec->spans()[static_cast<size_t>(sweep_span)];
    std::vector<std::pair<double, int>> edges;
    for (const CellTiming &t : timing) {
        edges.emplace_back(t.start, +1);
        edges.emplace_back(t.end, -1);
    }
    std::sort(edges.begin(), edges.end());
    double tail = 0.0, last = sw.start;
    int running = 0;
    for (const auto &[t, d] : edges) {
        if (running < st.pool_width)
            tail += t - last;
        last = t;
        running += d;
    }
    tail += sw.end - last;

    p.layer["sweep.busy_s"] = st.busy_seconds;
    p.layer["sweep.parallelism"] = st.parallelism();
    p.layer["sweep.cell_p50_s"] = quantile(0.50);
    p.layer["sweep.cell_p75_s"] = quantile(0.75);
    p.layer["sweep.tail_s"] = tail;
}

// ---- traced replay -----------------------------------------------------

/** Accumulates the per-layer numbers of one traced pass. */
struct LayerTotals
{
    u64 functional_instr = 0;
    u64 profile_covered = 0;
    dmt::TranslationStats ff;
    u64 phase_intervals = 0, phase_k = 0;
    u64 ckpt_count = 0, ckpt_bytes = 0;
    u64 windows = 0;
    std::map<std::string, Counts> full, window;
    std::map<std::string, double> step_s;
    std::map<std::string, u64> sim_cycles, sim_retired;
};

/** The phase pipeline up to the detailed windows: profile, cluster,
 *  and one checkpoint per representative, in rep order. */
struct PhasePlan
{
    dmt::PhaseAnalysis pa;
    std::vector<std::unique_ptr<dmt::Checkpoint>> ckpts; ///< null past HALT
};

PhasePlan
planPhases(const Program &prog, const dmt::SampleParams &params,
           SpanRecorder &rec, int run, LayerTotals &lt)
{
    PhasePlan plan;
    u64 covered = 0;
    bool completed = false;
    std::vector<dmt::IntervalBbv> bbvs;
    {
        ScopedSpan s(rec, "collectBbvs", "phase", run);
        bbvs = dmt::collectBbvs(prog, params.phase.interval, 0,
                                dmt::ffModeFromEnv(), &covered,
                                &completed);
    }
    {
        ScopedSpan s(rec, "clusterPhases", "phase", run);
        plan.pa = dmt::clusterPhases(bbvs, params.phase);
    }
    plan.pa.covered = covered;
    plan.pa.completed = completed;
    lt.profile_covered += covered;
    lt.functional_instr += covered;
    lt.phase_intervals += plan.pa.assignment.size();
    lt.phase_k += plan.pa.k;

    dmt::FunctionalCore core(prog);
    for (const dmt::PhaseInfo &ph : plan.pa.phases) {
        const u64 pos = ph.rep * params.phase.interval;
        {
            ScopedSpan s(rec, "FunctionalCore::run", "sim", run);
            while (core.instrCount() < pos && !core.halted())
                core.run(pos - core.instrCount());
        }
        if (core.halted()) {
            plan.ckpts.emplace_back();
            continue;
        }
        ScopedSpan s(rec, "Checkpoint::capture", "checkpoint", run);
        plan.ckpts.push_back(std::make_unique<dmt::Checkpoint>(
            dmt::Checkpoint::capture(core)));
        ++lt.ckpt_count;
        lt.ckpt_bytes +=
            plan.ckpts.back()->mem.numPages() * dmt::MainMemory::kPageSize;
    }
    lt.functional_instr += core.instrCount();
    lt.ff += core.translationStats();
    return plan;
}

/** Run @p e to completion in one span (the measured part of a run).
 *  @return the span's seconds. */
double
finishEngine(dmt::DmtEngine &e, SpanRecorder &rec, int run,
             const char *name)
{
    int id = -1;
    {
        ScopedSpan s(rec, name, "engine", run);
        id = s.id();
        e.run();
    }
    return rec.duration(id);
}

/** Host seconds in @p e's step loops and the simulated work they did. */
void
noteEngine(LayerTotals &lt, const std::string &machine,
           const dmt::DmtEngine &e, double step_s)
{
    lt.step_s[machine] += step_s;
    lt.sim_cycles[machine] += e.now();
    lt.sim_retired[machine] += e.retiredTotal();
}

/** The detailed windows of a phase-sampled run on one machine. */
RunOutput
runWindows(const Machine &m, const Program &prog, const PhasePlan &plan,
           const dmt::SampleParams &params, SpanRecorder &rec, int run,
           LayerTotals &lt)
{
    RunOutput out;
    std::vector<PhaseRow> rows;
    for (size_t i = 0; i < plan.pa.phases.size(); ++i) {
        PhaseRow row;
        row.weight = plan.pa.phases[i].weight;
        const dmt::Checkpoint *ck = plan.ckpts[i].get();
        if (ck) {
            ScopedSpan win(rec, "window", "engine", run);
            SimConfig wcfg = m.cfg;
            wcfg.warmup_retired = params.warm;
            wcfg.max_retired = params.warm + params.measure;
            std::unique_ptr<dmt::DmtEngine> e;
            {
                ScopedSpan s(rec, "DmtEngine::DmtEngine", "engine", run);
                e = std::make_unique<dmt::DmtEngine>(wcfg, prog, ck);
            }
            int warm = -1;
            {
                ScopedSpan s(rec, "warm", "engine", run);
                warm = s.id();
                while (!e->done() && !e->measurementActive())
                    e->step();
            }
            const double measure_s = finishEngine(*e, rec, run, "measure");
            ++lt.windows;
            noteEngine(lt, m.name, *e, rec.duration(warm) + measure_s);
            if (!e->goldenOk())
                dmt::panic("golden mismatch: %s", e->goldenError().c_str());
            if (e->measurementActive() && e->stats().retired.value() > 0) {
                const dmt::DmtStats &ws = e->stats();
                row.measured = true;
                row.cpi = static_cast<double>(ws.cycles.value())
                    / static_cast<double>(ws.retired.value());
                out.counts += Counts::of(ws);
            }
        }
        rows.push_back(row);
    }
    out.cpi = weightedCpi(rows);
    lt.window[m.name] += out.counts;
    return out;
}

/** Compare a traced output with the untraced pass's; a mismatch or a
 *  missing reference fails the run.  The first output per key is kept
 *  (the figure's traced sweep, ahead of its replay). */
void
expectSame(PassResult &p, const PassResult &ref, const std::string &k,
           const RunOutput &got)
{
    p.outputs.emplace(k, got);
    const auto it = ref.outputs.find(k);
    if (it == ref.outputs.end())
        fail(p, k + ": no untraced result to compare with");
    else if (!(it->second == got))
        fail(p, k + ": traced result differs from untraced");
}

Program
build(const std::string &spec, SpanRecorder &rec, int run)
{
    ScopedSpan s(rec, "buildWorkload", "workloads", run);
    return dmt::buildWorkload(spec);
}

/** One cold-cache phase-sampled run of @p prog on @p m, replayed. */
void
replaySampled(const BenchProgram &prog, const Machine &m,
              const PassResult &ref, PassResult &p, int &run,
              LayerTotals &lt)
{
    const std::string k = key(prog.label, m.name, true);
    if (!ref.outputs.count(k))
        return;
    ++run;
    ++p.attempted;
    SpanRecorder &rec = p.spans;
    ScopedSpan root(rec, "run " + k, "bench", run);
    try {
        const dmt::SampleParams params = phaseParams();
        const Program pr = build(prog.spec, rec, run);
        const PhasePlan plan = planPhases(pr, params, rec, run, lt);
        expectSame(p, ref, k, runWindows(m, pr, plan, params, rec, run, lt));
    } catch (const std::exception &e) {
        fail(p, k + ": " + e.what());
    }
}

/** One full-detail run of @p prog on @p m, replayed. */
void
replayFull(const BenchProgram &prog, const Machine &m, const PassResult &ref,
           PassResult &p, int &run, LayerTotals &lt)
{
    const std::string k = key(prog.label, m.name, false);
    if (!ref.outputs.count(k))
        return;
    ++run;
    ++p.attempted;
    SpanRecorder &rec = p.spans;
    ScopedSpan root(rec, "run " + k, "bench", run);
    try {
        const Program pr = build(prog.spec, rec, run);
        SimConfig cfg = m.cfg;
        cfg.max_retired = kWholeProgram;
        std::unique_ptr<dmt::DmtEngine> e;
        {
            ScopedSpan s(rec, "DmtEngine::DmtEngine", "engine", run);
            e = std::make_unique<dmt::DmtEngine>(cfg, pr);
        }
        noteEngine(lt, m.name, *e,
                   finishEngine(*e, rec, run, "DmtEngine::run"));
        if (!e->goldenOk())
            dmt::panic("golden mismatch: %s", e->goldenError().c_str());
        const dmt::DmtStats &st = e->stats();
        const RunOutput out{static_cast<double>(st.cycles.value())
                                / static_cast<double>(st.retired.value()),
                            Counts::of(st)};
        lt.full[m.name] += out.counts;
        expectSame(p, ref, k, out);
    } catch (const std::exception &e) {
        fail(p, k + ": " + e.what());
    }
}

/** Serial replay of the Fig 4 grid with the shared caches' reuse: one
 *  profile and checkpoint chain per kernel (paid by its first cell),
 *  reused by the other machines' windows. */
void
replayFigure(const Workload &w, const PassResult &ref, PassResult &p,
             LayerTotals &lt)
{
    const dmt::SampleParams params = phaseParams();
    SpanRecorder &rec = p.spans;
    int run = static_cast<int>(w.programs.size() * w.machines.size());
    for (const BenchProgram &prog : w.programs) {
        std::unique_ptr<Program> pr;
        std::unique_ptr<PhasePlan> plan;
        for (const Machine &m : w.machines) {
            const std::string k = key(prog.label, m.name, true);
            if (!ref.outputs.count(k))
                continue;
            ++run;
            ++p.attempted;
            ScopedSpan root(rec, "replay " + k, "bench", run);
            try {
                if (!plan) {
                    pr = std::make_unique<Program>(
                        build(prog.spec, rec, run));
                    plan = std::make_unique<PhasePlan>(
                        planPhases(*pr, params, rec, run, lt));
                }
                expectSame(p, ref, k,
                           runWindows(m, *pr, *plan, params, rec, run, lt));
            } catch (const std::exception &e) {
                fail(p, k + ": " + e.what());
            }
        }
    }
}

void
putCounts(PassResult &p, const std::string &prefix, const Counts &c)
{
    auto put = [&](const char *name, double v) { p.layer[prefix + name] = v; };
    put("dmt.cycles", static_cast<double>(c.cycles));
    put("dmt.retired", static_cast<double>(c.retired));
    put("dmt.useful_ratio",
        c.dispatched ? static_cast<double>(c.retired)
                / static_cast<double>(c.dispatched)
                     : 0.0);
    put("dmt.threads_spawned", static_cast<double>(c.threads_spawned));
    put("dmt.squashed_insts", static_cast<double>(c.squashed_insts));
    put("dmt.recoveries", static_cast<double>(c.recoveries));
    put("dmt.lsq_violations", static_cast<double>(c.lsq_violations));
    put("branch.cond_mispredicts", static_cast<double>(c.cond_mispredicts));
    put("branch.indirect_mispredicts",
        static_cast<double>(c.indirect_mispredicts));
    put("memory.icache_misses", static_cast<double>(c.icache_misses));
    put("memory.dcache_misses", static_cast<double>(c.dcache_misses));
}

/** Turn the spans and totals of a traced pass into per-layer numbers. */
void
layerMetrics(PassResult &p, const LayerTotals &lt)
{
    const SpanRecorder &rec = p.spans;
    auto &L = p.layer;
    L["workloads.build_s"] = rec.total("buildWorkload");

    const double profile_s = rec.total("collectBbvs");
    const double ff_s = rec.total("FunctionalCore::run");
    L["functional.run_s"] = profile_s + ff_s;
    L["functional.instr"] = static_cast<double>(lt.functional_instr);
    L["functional.ns_per_instr"] = lt.functional_instr
        ? (profile_s + ff_s) * 1e9 / static_cast<double>(lt.functional_instr)
        : 0.0;
    L["functional.passes"] = lt.profile_covered
        ? static_cast<double>(lt.functional_instr)
            / static_cast<double>(lt.profile_covered)
        : 0.0;
    const u64 chain = lt.ff.chain_hits + lt.ff.chain_misses;
    L["functional.chain_hit_ratio"] = chain
        ? static_cast<double>(lt.ff.chain_hits) / static_cast<double>(chain)
        : 0.0;
    L["functional.blocks_translated"] =
        static_cast<double>(lt.ff.blocks_translated);

    L["phase.profile_s"] = profile_s;
    L["phase.cluster_s"] = rec.total("clusterPhases");
    L["phase.intervals"] = static_cast<double>(lt.phase_intervals);
    L["phase.k"] = static_cast<double>(lt.phase_k);

    L["checkpoint.capture_s"] = rec.total("Checkpoint::capture");
    L["checkpoint.count"] = static_cast<double>(lt.ckpt_count);
    L["checkpoint.bytes"] = static_cast<double>(lt.ckpt_bytes);

    L["engine.construct_s"] = rec.total("DmtEngine::DmtEngine");
    L["engine.windows"] = static_cast<double>(lt.windows);
    L["engine.warm_s"] = rec.total("warm");
    L["engine.measure_s"] = rec.total("measure");

    for (const char *m : {"baseline", "dmt6"}) {
        const auto st = lt.step_s.find(m);
        const double run_s = st != lt.step_s.end() ? st->second : 0.0;
        const auto cyc = lt.sim_cycles.find(m);
        const auto ret = lt.sim_retired.find(m);
        L[std::string("engine.run_s.") + m] = run_s;
        L[std::string("engine.ns_per_cycle.") + m] =
            cyc != lt.sim_cycles.end() && cyc->second
            ? run_s * 1e9 / static_cast<double>(cyc->second) : 0.0;
        L[std::string("engine.ns_per_retired.") + m] =
            ret != lt.sim_retired.end() && ret->second
            ? run_s * 1e9 / static_cast<double>(ret->second) : 0.0;
        const auto f = lt.full.find(m);
        putCounts(p, std::string("full.") + m + ".",
                  f != lt.full.end() ? f->second : Counts{});
        const auto wv = lt.window.find(m);
        putCounts(p, std::string("window.") + m + ".",
                  wv != lt.window.end() ? wv->second : Counts{});
    }

    for (const auto &[layer, self] : rec.selfByLayer())
        L[layer + ".self_s"] = self;
}

} // namespace

Counts
Counts::of(const dmt::DmtStats &s)
{
    Counts c;
    c.cycles = s.cycles.value();
    c.retired = s.retired.value();
    c.dispatched = s.dispatched.value();
    c.threads_spawned = s.threads_spawned.value();
    c.squashed_insts = s.squashed_insts.value();
    c.recoveries = s.recoveries.value();
    c.lsq_violations = s.lsq_violations.value();
    c.cond_mispredicts = s.cond_mispredicts.value();
    c.indirect_mispredicts = s.indirect_mispredicts.value();
    c.icache_misses = s.icache_misses.value();
    c.dcache_misses = s.dcache_misses.value();
    return c;
}

Counts &
Counts::operator+=(const Counts &o)
{
    cycles += o.cycles;
    retired += o.retired;
    dispatched += o.dispatched;
    threads_spawned += o.threads_spawned;
    squashed_insts += o.squashed_insts;
    recoveries += o.recoveries;
    lsq_violations += o.lsq_violations;
    cond_mispredicts += o.cond_mispredicts;
    indirect_mispredicts += o.indirect_mispredicts;
    icache_misses += o.icache_misses;
    dcache_misses += o.dcache_misses;
    return *this;
}

bool
makeWorkload(const std::string &name, u64 seed, Workload *out)
{
    Workload w;
    w.name = name;
    if (name == "detail") {
        w.kind = Kind::Detail;
        w.programs = suitePrograms();
        w.programs.push_back(
            {"gen_evloop", gen("evloop", seed, "units=65536")});
        w.programs.push_back(
            {"gen_ptrchase",
             gen("ptrchase", seed, "trips=100000:units=4096")});
        // dmt6 last: the sampled estimate follows its full run.
        w.machines = {{"baseline", dmt::exp::baseline()},
                      {"dmt6", SimConfig::dmt(6, 2)}};
    } else if (name == "sampled-long") {
        w.kind = Kind::SampledLong;
        w.programs = {
            {"gen_loopnest",
             gen("loopnest", seed, "trips=100000:units=64")},
            {"gen_calltree", gen("calltree", seed, "depth=8:units=65536")},
            {"gen_branchy", gen("branchy", seed, "trips=100000:units=64")},
        };
        w.machines = {{"dmt6", SimConfig::dmt(6, 2)},
                      {"baseline", dmt::exp::baseline()}};
    } else if (name == "figure") {
        w.kind = Kind::Figure;
        w.programs = suitePrograms();
        w.machines = {{"baseline", dmt::exp::baseline()}};
        for (int t : {2, 4, 6, 8})
            w.machines.push_back({"dmt" + std::to_string(t),
                                  dmt::exp::fig4Dmt(t)});
    } else {
        return false;
    }
    *out = std::move(w);
    return true;
}

void
setUp(const Workload &w)
{
    for (const BenchProgram &prog : w.programs)
        (void)dmt::buildWorkload(prog.spec);
}

PassResult
runUntraced(const Workload &w)
{
    PassResult p;
    const auto t0 = Clock::now();
    switch (w.kind) {
    case Kind::Detail:
        untracedDetail(w, p);
        break;
    case Kind::SampledLong:
        untracedSampledLong(w, p);
        break;
    case Kind::Figure:
        sweepFigure(w, p, nullptr);
        return p; // wall_s is the sweep's own wall clock
    }
    p.wall_s = secondsBetween(t0, Clock::now());
    return p;
}

PassResult
runTraced(const Workload &w, const PassResult &ref)
{
    PassResult p;
    LayerTotals lt;
    SpanRecorder &rec = p.spans;
    const double t0 = rec.now();
    double sweep_wall = 0.0;
    switch (w.kind) {
    case Kind::Detail: {
        int run = 0;
        for (const BenchProgram &prog : w.programs) {
            for (const Machine &m : w.machines)
                replayFull(prog, m, ref, p, run, lt);
            replaySampled(prog, w.machines.back(), ref, p, run, lt);
        }
        break;
    }
    case Kind::SampledLong: {
        int run = 0;
        for (const BenchProgram &prog : w.programs)
            for (const Machine &m : w.machines)
                replaySampled(prog, m, ref, p, run, lt);
        break;
    }
    case Kind::Figure: {
        sweepFigure(w, p, &rec);
        sweep_wall = p.wall_s;
        for (const auto &[k, out] : p.outputs) {
            const auto it = ref.outputs.find(k);
            if (it == ref.outputs.end() || !(it->second == out))
                fail(p, k + ": traced sweep result differs from untraced");
        }
        replayFigure(w, ref, p, lt);
        break;
    }
    }
    const double t1 = rec.now();
    // For the figure, the overhead compares the two sweeps; the serial
    // replay after it exists for attribution and result checks.
    p.wall_s = w.kind == Kind::Figure ? sweep_wall : t1 - t0;
    p.layer["trace.wall_s"] = p.wall_s;
    p.layer["trace.overhead_s"] = p.wall_s - ref.wall_s;
    p.layer["trace.spans"] = static_cast<double>(rec.spans().size());

    const SpanCheck c = rec.check(t0, t1, kMinCoverage);
    p.layer["trace.coverage"] = c.coverage;
    if (!c.ok)
        fail(p, "trace check: " + c.error);
    static const std::vector<std::string> kLayers = {
        "workloads", "sim", "phase", "checkpoint", "engine"};
    std::map<std::string, int> seen;
    for (const Span &s : rec.spans())
        ++seen[s.layer];
    for (const std::string &l : kLayers)
        if (!seen.count(l))
            fail(p, "trace check: no span for layer " + l);
    if (w.kind == Kind::Figure && !seen.count("sweep"))
        fail(p, "trace check: no span for layer sweep");

    layerMetrics(p, lt);
    return p;
}

} // namespace perfbench

/**
 * @file
 * Host simulator throughput (Minstr/s), not simulated IPC: how many
 * simulated instructions per wall-clock second the engine retires on
 * each machine configuration across the whole workload suite.  This is
 * the harness behind any claimed simulator-speed optimization — run it
 * before and after, compare the dmt6 aggregate, and archive the result
 * as BENCH_simspeed.json (see DESIGN.md section 11).
 *
 * Runs are serial (pool width 1) so per-workload wall clocks are not
 * polluted by sibling jobs; each machine's suite sweep is repeated
 * DMT_SIMSPEED_REPS times (default 3) and the best repetition is
 * reported, which filters transient host noise the way best-of-N
 * microbenchmarks do.  DMT_BENCH_INSTR scales the run length.
 */

#include "bench_common.hh"

#include <chrono>

#include "common/env.hh"
#include "sim/bbv.hh"
#include "sim/functional_core.hh"
#include "workloads/generator.hh"

namespace
{

struct MachineSpeed
{
    std::string name;
    dmt::SimConfig cfg;
    double minstr_per_s = 0.0; ///< best-rep suite aggregate
    double wall_s = 0.0;       ///< wall clock of the best rep
    dmt::u64 retired = 0;      ///< suite retirements in one rep
    std::vector<dmt::SweepCell> cells; ///< best rep, suite order
};

/** One serial pass of the whole suite on @p cfg. */
dmt::SweepStats
sweepOnce(const dmt::SimConfig &cfg, std::vector<dmt::SweepCell> *cells)
{
    using namespace dmt;
    SweepRunner pool(1);
    for (const WorkloadInfo &w : workloadSuite())
        pool.add(cfg, w.name, 0, w.name);
    *cells = pool.run();
    for (const SweepCell &cell : *cells) {
        if (!cell.ok)
            panic("simspeed: %s", cell.error.c_str());
    }
    return pool.stats();
}

/** One fast-forward workload's share of a functional sweep. */
struct FuncRow
{
    std::string name;
    dmt::u64 instr = 0;
    double wall_s = 0.0;
};

/** Best-rep fast-forward result over the ff suite. */
struct FuncSpeed
{
    double minstr_per_s = 0.0;
    double wall_s = 0.0;
    dmt::u64 instr = 0;
    dmt::TranslationStats xstats;
    std::vector<FuncRow> rows;
};

/** The fast-forward measurement suite: the 8 microkernels plus one
 *  instance of each generated family, knobs sized so a single program
 *  run is long enough (hundreds of thousands to millions of
 *  instructions) that execution, not program setup, is measured. */
std::vector<std::string>
ffSpecs()
{
    using namespace dmt;
    std::vector<std::string> specs;
    for (const WorkloadInfo &w : workloadSuite())
        specs.emplace_back(w.name);
    specs.emplace_back("gen:calltree:1:units=8192");
    specs.emplace_back("gen:loopnest:1:trips=20000");
    specs.emplace_back("gen:branchy:1:trips=50000");
    specs.emplace_back("gen:alias:1:trips=100000");
    specs.emplace_back("gen:prodcons:1:units=65536");
    specs.emplace_back("gen:ptrchase:1:trips=100000:units=4096");
    specs.emplace_back("gen:evloop:1:units=65536");
    return specs;
}

/** Fast-forward one workload: repeat {reset; run to completion}
 *  until at least @p floor_instr instructions retire, so short kernels
 *  don't reduce the sample to timer noise and the translated engine is
 *  measured at steady state (the translation cache survives reset()).
 *  Times the run() calls only: fast-forward throughput is about
 *  executing instructions, and the sampled-run / checkpoint consumers
 *  pay reset()+loadProgram() once per workload, not once per 8M
 *  instructions. */
FuncRow
runFfRow(const std::string &spec, dmt::u64 floor_instr, bool bbv_on,
         dmt::TranslationStats *xstats)
{
    using namespace dmt;
    const Program prog = buildWorkload(spec);
    FunctionalCore core(prog);
    // Phase profiling attached (bench-scale interval); one collector
    // spans the repeats, exactly like a long profiling pass would.
    BbvCollector bbv(100000, prog.text.size(), prog.entry);
    if (bbv_on)
        core.setBbv(&bbv);
    FuncRow row;
    row.name = canonicalWorkloadName(spec);
    while (row.instr < floor_instr) {
        core.reset();
        const auto t0 = std::chrono::steady_clock::now();
        core.run(~u64{0});
        row.wall_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        row.instr += core.instrCount();
    }
    *xstats += core.translationStats();
    return row;
}

/**
 * One fast-forward repetition, BBV off and on interleaved per
 * workload, so transient host load degrades both numbers alike and
 * the reported profiling overhead is a like-for-like ratio instead of
 * the quotient of two separately-noisy measurements.
 */
void
measureFunctionalRep(const std::vector<std::string> &specs,
                     dmt::u64 floor_instr, FuncSpeed *xlat,
                     FuncSpeed *xlat_bbv)
{
    for (const std::string &spec : specs) {
        xlat->rows.push_back(
            runFfRow(spec, floor_instr, false, &xlat->xstats));
        xlat_bbv->rows.push_back(
            runFfRow(spec, floor_instr, true, &xlat_bbv->xstats));
    }
    for (FuncSpeed *f : {xlat, xlat_bbv}) {
        for (const FuncRow &row : f->rows) {
            f->instr += row.instr;
            f->wall_s += row.wall_s;
        }
        f->minstr_per_s =
            f->wall_s > 0.0 ? f->instr / f->wall_s / 1e6 : 0.0;
    }
}

void
funcJsonOn(dmt::JsonWriter &w, const FuncSpeed &f)
{
    w.key("minstr_per_s").value(f.minstr_per_s);
    w.key("wall_s").value(f.wall_s);
    w.key("instr").value(f.instr);
    w.key("workloads").beginArray();
    for (const FuncRow &row : f.rows) {
        w.beginObject();
        w.key("workload").value(std::string_view(row.name));
        w.key("instr").value(row.instr);
        w.key("wall_s").value(row.wall_s);
        w.key("minstr_per_s")
            .value(row.wall_s > 0.0 ? row.instr / row.wall_s / 1e6
                                    : 0.0);
        w.endObject();
    }
    w.endArray();
}

} // namespace

int
benchMain()
{
    using namespace dmt;

    const u64 reps =
        std::max<u64>(1, parseEnvU64("DMT_SIMSPEED_REPS", 3));
    const u64 budget = benchRunLength();

    std::vector<MachineSpeed> machines(2);
    machines[0].name = "baseline";
    machines[0].cfg = exp::baseline();
    machines[1].name = "dmt6";
    machines[1].cfg = SimConfig::dmt(6, 2);

    for (MachineSpeed &m : machines) {
        for (u64 rep = 0; rep < reps; ++rep) {
            std::vector<SweepCell> cells;
            const SweepStats stats = sweepOnce(m.cfg, &cells);
            const double mips = stats.throughput() / 1e6;
            if (!benchQuiet()) {
                std::fprintf(stderr,
                             "simspeed: %s rep %llu/%llu: %.3f "
                             "Minstr/s (%.2fs wall)\n",
                             m.name.c_str(),
                             static_cast<unsigned long long>(rep + 1),
                             static_cast<unsigned long long>(reps),
                             mips, stats.wall_seconds);
            }
            if (mips > m.minstr_per_s) {
                m.minstr_per_s = mips;
                m.wall_s = stats.wall_seconds;
                m.retired = stats.retired_total;
                m.cells = std::move(cells);
            }
        }
    }

    // Functional fast-forward throughput: repeated full-program
    // FunctionalCore runs — the engine behind the BBV profile and the
    // checkpoint chain in sampled mode (DMT_SAMPLE), so its ratio over
    // dmt6 bounds how much of a sampled run's wall clock fast-forward
    // can cost.  Measured over the 8-kernel suite plus one instance of
    // each generated family, with and without BBV profiling.
    const std::vector<std::string> specs = ffSpecs();
    const u64 ff_floor = std::max<u64>(budget, 8'000'000);
    FuncSpeed xlat, xlat_bbv;
    for (u64 rep = 0; rep < reps; ++rep) {
        FuncSpeed cx, cxb;
        measureFunctionalRep(specs, ff_floor, &cx, &cxb);
        if (!benchQuiet()) {
            std::fprintf(stderr,
                         "simspeed: functional rep %llu/%llu: "
                         "%.3f Minstr/s; with BBV %.3f\n",
                         static_cast<unsigned long long>(rep + 1),
                         static_cast<unsigned long long>(reps),
                         cx.minstr_per_s, cxb.minstr_per_s);
        }
        if (cx.minstr_per_s > xlat.minstr_per_s)
            xlat = std::move(cx);
        if (cxb.minstr_per_s > xlat_bbv.minstr_per_s)
            xlat_bbv = std::move(cxb);
    }
    // Phase-profiling tax: best BBV-on rep over best BBV-off rep.
    const double xlat_bbv_pct = xlat.minstr_per_s > 0.0
        ? (1.0 - xlat_bbv.minstr_per_s / xlat.minstr_per_s) * 100.0
        : 0.0;
    const double ff_ratio = machines[1].minstr_per_s > 0.0
        ? xlat.minstr_per_s / machines[1].minstr_per_s : 0.0;

    if (!benchQuiet()) {
        const TranslationStats &xs = xlat.xstats;
        std::fprintf(
            stderr,
            "translation cache: %llu block(s) translated, %llu chain "
            "hit(s) / %llu miss(es), %llu indirect hit(s) / %llu "
            "miss(es), %llu block(s) executed\n",
            static_cast<unsigned long long>(xs.blocks_translated),
            static_cast<unsigned long long>(xs.chain_hits),
            static_cast<unsigned long long>(xs.chain_misses),
            static_cast<unsigned long long>(xs.indirect_hits),
            static_cast<unsigned long long>(xs.indirect_misses),
            static_cast<unsigned long long>(xs.blocks_executed));
    }

    // Aggregate over machines: total simulated work over total time,
    // each machine contributing its best rep.
    double total_wall = 0.0;
    u64 total_retired = 0;
    for (const MachineSpeed &m : machines) {
        total_wall += m.wall_s;
        total_retired += m.retired;
    }
    const double aggregate =
        total_wall > 0.0 ? total_retired / total_wall / 1e6 : 0.0;

    std::printf("simulator throughput, best of %llu rep(s), "
                "%llu instr/run\n",
                static_cast<unsigned long long>(reps),
                static_cast<unsigned long long>(budget));
    std::printf("%-21s %12s %10s %12s\n", "machine", "Minstr/s",
                "wall_s", "retired");
    for (const MachineSpeed &m : machines) {
        std::printf("%-21s %12.3f %10.2f %12llu\n", m.name.c_str(),
                    m.minstr_per_s, m.wall_s,
                    static_cast<unsigned long long>(m.retired));
    }
    std::printf("%-21s %12.3f %10.2f %12llu\n", "aggregate", aggregate,
                total_wall,
                static_cast<unsigned long long>(total_retired));
    std::printf("%-21s %12.3f %10.2f %12llu  (full programs, "
                "%.0fx dmt6)\n",
                "functional_translated", xlat.minstr_per_s, xlat.wall_s,
                static_cast<unsigned long long>(xlat.instr), ff_ratio);
    std::printf("%-21s %12.3f %10.2f %12llu  (BBV on, %+.1f%%)\n",
                "functional_translated_bbv", xlat_bbv.minstr_per_s,
                xlat_bbv.wall_s,
                static_cast<unsigned long long>(xlat_bbv.instr),
                xlat_bbv_pct);

    JsonWriter w;
    w.beginObject();
    w.key("artifact").value(std::string_view("simspeed"));
    w.key("instr_per_run").value(budget);
    w.key("reps").value(reps);
    w.key("aggregate_minstr_per_s").value(aggregate);
    w.key("functional_translated");
    w.beginObject();
    funcJsonOn(w, xlat);
    w.key("speedup_vs_dmt6").value(ff_ratio);
    w.key("cache");
    w.beginObject();
    w.key("blocks_translated").value(xlat.xstats.blocks_translated);
    w.key("chain_hits").value(xlat.xstats.chain_hits);
    w.key("chain_misses").value(xlat.xstats.chain_misses);
    w.key("indirect_hits").value(xlat.xstats.indirect_hits);
    w.key("indirect_misses").value(xlat.xstats.indirect_misses);
    w.key("blocks_executed").value(xlat.xstats.blocks_executed);
    w.endObject();
    w.endObject();
    w.key("functional_translated_bbv");
    w.beginObject();
    funcJsonOn(w, xlat_bbv);
    w.key("overhead_pct_vs_plain").value(xlat_bbv_pct);
    w.endObject();
    w.key("machines").beginArray();
    for (const MachineSpeed &m : machines) {
        w.beginObject();
        w.key("name").value(std::string_view(m.name));
        w.key("minstr_per_s").value(m.minstr_per_s);
        w.key("wall_s").value(m.wall_s);
        w.key("retired").value(m.retired);
        w.key("config");
        m.cfg.jsonOn(w);
        w.key("workloads").beginArray();
        const auto &suite = workloadSuite();
        for (size_t wi = 0; wi < m.cells.size(); ++wi) {
            const SweepCell &cell = m.cells[wi];
            w.beginObject();
            w.key("workload").value(std::string_view(suite[wi].name));
            w.key("retired").value(cell.result.retired);
            w.key("wall_s").value(cell.wall_seconds);
            w.key("minstr_per_s")
                .value(cell.wall_seconds > 0.0
                           ? cell.result.retired / cell.wall_seconds
                                 / 1e6
                           : 0.0);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();

    const std::string path = "BENCH_simspeed.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write bench artifact %s", path.c_str());
        return 1;
    }
    const std::string doc = w.str() + "\n";
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    if (!benchQuiet())
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

/**
 * @file
 * Phase-sampled vs full-detail accuracy (DESIGN.md section 17): for
 * every suite kernel plus a spread of generated-family instances, run
 * full-detail simulation as ground truth, then estimate CPI with phase
 * sampling (DMT_SAMPLE=phase:...) from cold caches, so the wall clock
 * includes the profiling and checkpointing it requires.  The table
 * reports per-workload CPI error against full detail, both absolute
 * and signed (a one-signed error is bias, not noise), the
 * confidence-interval width, detailed instructions spent and wall
 * clock; BENCH_phase.json archives everything.
 */

#include "bench_common.hh"

#include <cmath>

#include "exp/phase.hh"
#include "workloads/generator.hh"

namespace
{

/** The phase-sampled estimate for one workload. */
struct PhaseEstimate
{
    double cpi = 0.0;
    double ci95 = 0.0;
    double signed_err_pct = 0.0; ///< (cpi - full) / full * 100
    double err_pct = 0.0;        ///< |signed_err_pct|
    dmt::u64 windows = 0;
    dmt::u64 detailed = 0; ///< detailed (warm + measured) instructions
    dmt::u64 covered = 0;
    double wall_s = 0.0;
    dmt::u64 phase_k = 0;
};

struct WorkloadRow
{
    std::string name;
    double full_cpi = 0.0;
    dmt::u64 full_instr = 0;
    double full_wall_s = 0.0;
    PhaseEstimate phase;
};

/** The comparison suite: all 8 kernels plus one instance per
 *  generated family, knobs sized so the run fills the budget. */
std::vector<std::string>
phaseBenchSpecs()
{
    using namespace dmt;
    std::vector<std::string> specs;
    for (const WorkloadInfo &w : workloadSuite())
        specs.emplace_back(w.name);
    specs.emplace_back("gen:loopnest:21:trips=200:units=48");
    specs.emplace_back("gen:branchy:7:trips=60000");
    specs.emplace_back("gen:alias:3:trips=80000");
    specs.emplace_back("gen:ptrchase:5:trips=50000:units=2048");
    return specs;
}

PhaseEstimate
runPhase(const dmt::SimConfig &cfg, const std::string &workload,
         const dmt::SampleParams &p, dmt::u64 budget, double full_cpi)
{
    using namespace dmt;
    // Cold caches: the wall clock pays for the profile and the
    // checkpoints, the full cost of the estimate.
    clearCheckpointCache();
    const RunResult r = runWorkloadSampled(cfg, workload, p, budget);
    PhaseEstimate m;
    m.cpi = r.sampling.cpi_mean;
    m.ci95 = r.sampling.cpi_ci95;
    m.signed_err_pct = full_cpi > 0.0
        ? (m.cpi - full_cpi) / full_cpi * 100.0 : 0.0;
    m.err_pct = std::fabs(m.signed_err_pct);
    m.windows = r.sampling.intervals;
    m.covered = r.sampling.covered;
    m.detailed = r.sampling.covered - r.sampling.functional_instr;
    m.wall_s = r.wall_s;
    m.phase_k = r.sampling.phase_k;
    return m;
}

void
phaseJsonOn(dmt::JsonWriter &w, const PhaseEstimate &m)
{
    w.beginObject();
    w.key("cpi").value(m.cpi);
    w.key("ci95").value(m.ci95);
    w.key("err_pct").value(m.err_pct);
    w.key("signed_err_pct").value(m.signed_err_pct);
    w.key("windows").value(m.windows);
    w.key("detailed_instr").value(m.detailed);
    w.key("covered").value(m.covered);
    w.key("wall_s").value(m.wall_s);
    w.key("phase_k").value(m.phase_k);
    w.endObject();
}

} // namespace

int
benchMain()
{
    using namespace dmt;

    // Whole programs (capped so gen:branchy stays bounded); the phase
    // estimate pays k windows however long the stream.
    // DMT_BENCH_INSTR can push further.
    const u64 budget = std::max<u64>(benchRunLength(), 2000000);
    const SimConfig cfg = SimConfig::dmt(6, 2);

    SampleParams phase;
    std::string perr;
    if (!SampleParams::parse("phase:20000:4000:4000", &phase, &perr))
        panic("phase spec: %s", perr.c_str());

    std::vector<WorkloadRow> rows;
    for (const std::string &spec : phaseBenchSpecs()) {
        WorkloadRow row;
        row.name = canonicalWorkloadName(spec);

        const RunResult full = runWorkload(cfg, spec, budget);
        row.full_instr = full.retired;
        row.full_wall_s = full.wall_s;
        row.full_cpi = full.retired > 0
            ? static_cast<double>(full.cycles)
                  / static_cast<double>(full.retired)
            : 0.0;

        row.phase = runPhase(cfg, spec, phase, budget, row.full_cpi);

        if (!benchQuiet()) {
            std::fprintf(stderr,
                         "phase bench: %-40s full %.4f  phase %.4f "
                         "(k=%llu, %+.2f%%)\n",
                         row.name.c_str(), row.full_cpi, row.phase.cpi,
                         static_cast<unsigned long long>(
                             row.phase.phase_k),
                         row.phase.signed_err_pct);
        }
        rows.push_back(std::move(row));
    }

    // Aggregates: mean absolute and mean signed CPI error, total
    // detailed instructions.
    double err = 0.0, signed_err = 0.0;
    u64 detailed = 0;
    for (const WorkloadRow &row : rows) {
        err += row.phase.err_pct;
        signed_err += row.phase.signed_err_pct;
        detailed += row.phase.detailed;
    }
    const double n = static_cast<double>(rows.size());
    err /= n;
    signed_err /= n;

    std::printf("phase sampling vs full detail, %llu instr budget, "
                "%zu workloads (spec %s)\n",
                static_cast<unsigned long long>(budget), rows.size(),
                phase.canonicalSpec().c_str());
    std::printf("%-40s %9s %9s %9s %9s %6s\n", "workload", "full_cpi",
                "phase_cpi", "err%", "ci95", "k");
    for (const WorkloadRow &row : rows) {
        std::printf("%-40s %9.4f %9.4f %+9.2f %9.4f %6llu\n",
                    row.name.c_str(), row.full_cpi, row.phase.cpi,
                    row.phase.signed_err_pct, row.phase.ci95,
                    static_cast<unsigned long long>(row.phase.phase_k));
    }
    std::printf("mean |CPI error| %.2f%%, mean signed error %+.2f%%, "
                "%llu detailed instructions\n",
                err, signed_err, static_cast<unsigned long long>(detailed));

    JsonWriter w;
    w.beginObject();
    w.key("artifact").value(std::string_view("phase"));
    w.key("budget").value(budget);
    w.key("phase_spec").value(std::string_view(phase.canonicalSpec()));
    w.key("config");
    cfg.jsonOn(w);
    w.key("workloads").beginArray();
    for (const WorkloadRow &row : rows) {
        w.beginObject();
        w.key("workload").value(std::string_view(row.name));
        w.key("full_cpi").value(row.full_cpi);
        w.key("full_instr").value(row.full_instr);
        w.key("full_wall_s").value(row.full_wall_s);
        w.key("phase");
        phaseJsonOn(w, row.phase);
        w.endObject();
    }
    w.endArray();
    w.key("summary");
    w.beginObject();
    w.key("mean_err_pct_phase").value(err);
    w.key("mean_signed_err_pct_phase").value(signed_err);
    w.key("detailed_instr_phase").value(detailed);
    w.endObject();
    w.endObject();

    const std::string path = "BENCH_phase.json";
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

#include "exp/sampled.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/env.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "dmt/engine.hh"
#include "sim/functional_core.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace
{

/** Bounds on the spec's maxk and dims fields. */
constexpr u64 kPhaseMaxK = 64;
constexpr u64 kPhaseMaxDims = 256;

constexpr const char *kSpecGrammar =
    "sample spec must be phase:interval:warm:measure[:maxk[:dims[:seed]]]";

} // namespace

std::string
SampleParams::canonicalSpec() const
{
    if (!enabled())
        return "off";
    // Every field explicit: two specs that behave identically must
    // render identically, regardless of which trailing fields the user
    // spelled out.
    return strprintf("phase:%llu:%llu:%llu:%llu:%llu:%llu",
                     static_cast<unsigned long long>(phase.interval),
                     static_cast<unsigned long long>(warm),
                     static_cast<unsigned long long>(measure),
                     static_cast<unsigned long long>(phase.max_k),
                     static_cast<unsigned long long>(phase.dims),
                     static_cast<unsigned long long>(phase.seed));
}

bool
SampleParams::parse(std::string_view spec, SampleParams *out,
                    std::string *err)
{
    *out = SampleParams{};
    const std::string_view t = trim(spec);
    if (t.empty())
        return true; // disabled

    const std::vector<std::string> parts = t.rfind("phase:", 0) == 0
        ? splitFields(t.substr(6), ":")
        : std::vector<std::string>{};
    if (parts.size() < 3 || parts.size() > 6)
        return specError(err, kSpecGrammar);
    u64 v[6] = {0, 0, 0, 0, 0, 0};
    for (size_t i = 0; i < parts.size(); ++i) {
        if (!parseU64(parts[i], &v[i]))
            return specError(err,
                             "bad sample spec field \"" + parts[i] + "\"");
    }
    out->phase.interval = v[0];
    out->warm = v[1];
    out->measure = v[2];
    if (parts.size() > 3)
        out->phase.max_k = v[3];
    if (parts.size() > 4)
        out->phase.dims = v[4];
    if (parts.size() > 5)
        out->phase.seed = v[5];
    if (out->phase.interval == 0)
        return specError(err, "phase interval length must be > 0");
    if (out->measure == 0)
        return specError(err, "sample measure window must be > 0");
    if (out->phase.max_k < 1 || out->phase.max_k > kPhaseMaxK)
        return specError(err, strprintf("phase maxk must be 1..%llu",
                                        static_cast<unsigned long long>(
                                            kPhaseMaxK)));
    if (out->phase.dims < 1 || out->phase.dims > kPhaseMaxDims)
        return specError(err, strprintf("phase dims must be 1..%llu",
                                        static_cast<unsigned long long>(
                                            kPhaseMaxDims)));
    return true;
}

SampleParams
SampleParams::fromEnv()
{
    SampleParams p;
    const char *raw = std::getenv("DMT_SAMPLE");
    if (!raw || !*raw)
        return p;
    std::string err;
    if (!SampleParams::parse(raw, &p, &err))
        fatal("DMT_SAMPLE=\"%s\": %s", raw, err.c_str());
    return p;
}

namespace
{

/** One cache key's plan, built at most once under its own lock. */
struct PlanSlot
{
    std::mutex m;
    std::shared_ptr<const SamplePlan> plan;
};

std::mutex g_plans_m; // guards g_plans only, never held for a build
std::map<std::string, std::shared_ptr<PlanSlot>> g_plans;

// Cache accounting (monotonic until clearCheckpointCache()).
std::atomic<u64> g_plan_hits{0};
std::atomic<u64> g_plan_builds{0};
std::atomic<u64> g_ckpt_mem_hits{0};
std::atomic<u64> g_ckpt_builds{0};

std::shared_ptr<const SamplePlan>
buildPlan(const std::string &workload, const PhaseParams &params,
          u64 budget)
{
    auto plan = std::make_shared<SamplePlan>();
    plan->prog = buildWorkload(workload);
    std::vector<Checkpoint> anchors;
    u64 covered = 0;
    bool completed = false;
    const std::vector<IntervalBbv> bbvs =
        collectBbvsAnchored(plan->prog, params.interval, budget,
                            &anchors, &covered, &completed);
    plan->pa = clusterPhases(bbvs, params);
    plan->pa.covered = covered;
    plan->pa.completed = completed;
    plan->ff_anchors = anchors.size();

    // Phase ids ascend with their representatives, so one core walks
    // forward through all of them.
    FunctionalCore core(plan->prog);
    for (const PhaseInfo &ph : plan->pa.phases) {
        const u64 pos = ph.rep * params.interval;
        const auto next = std::partition_point(
            anchors.begin(), anchors.end(),
            [&](const Checkpoint &a) { return a.instr_count <= pos; });
        if (next != anchors.begin()
            && std::prev(next)->instr_count > core.instrCount()) {
            const Checkpoint &a = *std::prev(next);
            core.restore(a.state, a.mem, a.instr_count);
        }
        const u64 resumed_at = core.instrCount();
        while (core.instrCount() < pos && !core.halted())
            core.run(pos - core.instrCount());
        plan->ff_instr += core.instrCount() - resumed_at;
        if (core.halted()) {
            plan->ckpts.emplace_back();
            continue;
        }
        plan->ckpts.push_back(
            std::make_shared<const Checkpoint>(Checkpoint::capture(core)));
        g_ckpt_builds.fetch_add(1, std::memory_order_relaxed);
    }
    plan->ff_xlat = core.translationStats();
    return plan;
}

} // namespace

std::shared_ptr<const SamplePlan>
samplePlanFor(const std::string &workload, const PhaseParams &params,
              u64 budget, bool *built_out)
{
    const std::string key = strprintf(
        "%s|%llu|%llu|%llu|%llu|%llu",
        canonicalWorkloadName(workload).c_str(),
        static_cast<unsigned long long>(params.interval),
        static_cast<unsigned long long>(params.max_k),
        static_cast<unsigned long long>(params.dims),
        static_cast<unsigned long long>(params.seed),
        static_cast<unsigned long long>(budget));
    std::shared_ptr<PlanSlot> slot;
    {
        std::lock_guard<std::mutex> lock(g_plans_m);
        std::shared_ptr<PlanSlot> &s = g_plans[key];
        if (!s)
            s = std::make_shared<PlanSlot>();
        slot = s;
    }
    std::lock_guard<std::mutex> lock(slot->m);
    const bool built = !slot->plan;
    if (built) {
        slot->plan = buildPlan(workload, params, budget);
        g_plan_builds.fetch_add(1, std::memory_order_relaxed);
    } else {
        g_plan_hits.fetch_add(1, std::memory_order_relaxed);
        u64 served = 0;
        for (const auto &ck : slot->plan->ckpts)
            served += ck ? 1 : 0;
        g_ckpt_mem_hits.fetch_add(served, std::memory_order_relaxed);
    }
    if (built_out)
        *built_out = built;
    return slot->plan;
}

void
clearCheckpointCache()
{
    std::lock_guard<std::mutex> lock(g_plans_m);
    g_plans.clear();
    g_plan_hits.store(0, std::memory_order_relaxed);
    g_plan_builds.store(0, std::memory_order_relaxed);
    g_ckpt_mem_hits.store(0, std::memory_order_relaxed);
    g_ckpt_builds.store(0, std::memory_order_relaxed);
}

CheckpointCacheCounters
checkpointCacheCounters()
{
    CheckpointCacheCounters c;
    c.mem_hits = g_ckpt_mem_hits.load(std::memory_order_relaxed);
    c.builds = g_ckpt_builds.load(std::memory_order_relaxed);
    return c;
}

PhaseCacheCounters
phaseCacheCounters()
{
    PhaseCacheCounters c;
    c.hits = g_plan_hits.load(std::memory_order_relaxed);
    c.builds = g_plan_builds.load(std::memory_order_relaxed);
    return c;
}

RunResult
runWorkloadSampled(const SimConfig &cfg, const std::string &workload,
                   const SampleParams &params, u64 budget)
{
    DMT_ASSERT(params.enabled(),
               "runWorkloadSampled needs a measure window");
    const auto wall_start = std::chrono::steady_clock::now();

    RunResult r;
    r.workload = workload;
    r.sampling.enabled = true;
    r.sampling.warm = params.warm;
    r.sampling.measure = params.measure;
    r.sampling.phase_interval = params.phase.interval;
    r.sampling.phase_max_k = params.phase.max_k;
    r.sampling.phase_dims = params.phase.dims;
    r.sampling.phase_seed = params.phase.seed;

    // The plan lookup's wall clock (the whole build, when this run
    // builds it) lands in the fast-forward bucket.
    bool built = false;
    const std::shared_ptr<const SamplePlan> plan =
        samplePlanFor(workload, params.phase, budget, &built);
    r.sampling.func_wall_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now()
                                 - wall_start)
                                 .count();
    if (built) {
        r.sampling.ff_instr = plan->ff_instr;
        r.sampling.ff_anchors = plan->ff_anchors;
        r.sampling.ff_blocks_translated = plan->ff_xlat.blocks_translated;
        r.sampling.ff_chain_hits = plan->ff_xlat.chain_hits;
    }

    const PhaseAnalysis &pa = plan->pa;
    r.sampling.phase_k = pa.k;
    r.sampling.phase_intervals = pa.assignment.size();
    bool completed = pa.completed;
    u64 detailed_retired = 0;

    for (size_t i = 0; i < pa.phases.size(); ++i) {
        const PhaseInfo &ph = pa.phases[i];
        const u64 start = ph.rep * params.phase.interval;
        const std::shared_ptr<const Checkpoint> &ck = plan->ckpts[i];

        PhaseCpi row;
        row.id = ph.id;
        row.rep = ph.rep;
        row.pos = start;
        row.weight = ph.weight;
        row.members = ph.members;

        // A representative can sit past HALT only if profiling and the
        // plan's forward walk disagree — which the bit-identity contract
        // rules out — but stay graceful: the phase goes unmeasured and
        // the aggregate renormalizes over the measured ones.
        if (ck) {
            SimConfig wcfg = cfg;
            wcfg.warmup_retired = params.warm;
            wcfg.max_retired = params.warm + params.measure;

            DmtEngine engine(wcfg, plan->prog, ck.get());
            engine.run();
            if (!engine.goldenOk()) {
                panic("golden mismatch on %s (phase window at %llu): %s",
                      workload.c_str(),
                      static_cast<unsigned long long>(start),
                      engine.goldenError().c_str());
            }
            completed = completed || engine.programCompleted();
            const u64 win_retired = engine.retiredTotal();
            detailed_retired += win_retired;

            if (engine.measurementActive()
                && engine.stats().retired.value() > 0) {
                const DmtStats &ws = engine.stats();
                row.measured = true;
                row.cycles = ws.cycles.value();
                row.retired = ws.retired.value();
                row.cpi = static_cast<double>(row.cycles)
                    / static_cast<double>(row.retired);

                SampleInterval iv;
                iv.pos = start;
                iv.cycles = row.cycles;
                iv.retired = row.retired;
                iv.spawned = ws.threads_spawned.value();
                iv.squashed = ws.squashed_insts.value();
                iv.recoveries = ws.recoveries.value();
                r.sampling.records.push_back(iv);
                ++r.sampling.intervals;
                r.cycles += row.cycles;
                r.retired += row.retired;
                r.stats.merge(ws);
            }
        }
        r.sampling.phases.push_back(row);
    }

    // Weighted aggregate over the measured phases, weights
    // renormalized so unmeasured phases (end-of-program windows that
    // never detached their stats) drop out of the estimate instead of
    // deflating it.
    double wsum = 0.0;
    size_t measured = 0;
    for (const PhaseCpi &row : r.sampling.phases) {
        if (row.measured) {
            wsum += row.weight;
            ++measured;
        }
    }
    if (measured > 0 && wsum > 0.0) {
        double mean = 0.0;
        for (const PhaseCpi &row : r.sampling.phases)
            if (row.measured)
                mean += (row.weight / wsum) * row.cpi;
        r.sampling.cpi_mean = mean;
        if (measured > 1) {
            double var = 0.0;
            for (const PhaseCpi &row : r.sampling.phases) {
                if (!row.measured)
                    continue;
                const double d = row.cpi - mean;
                var += (row.weight / wsum) * d * d;
            }
            // Bessel-style correction on the weighted spread: the
            // sample spread of n windows underestimates the population
            // spread, so scale by n/(n-1) as for an unweighted sample.
            const double n = static_cast<double>(measured);
            r.sampling.cpi_sd = std::sqrt(var * n / (n - 1.0));
            r.sampling.cpi_ci95 =
                1.96 * r.sampling.cpi_sd / std::sqrt(n);
        }
    }

    r.sampling.covered = pa.covered;
    // Stream-derived (not host-work-derived) so the canonical JSON is
    // identical whether checkpoints came from cache or fresh runs.
    r.sampling.functional_instr = pa.covered > detailed_retired
        ? pa.covered - detailed_retired
        : 0;
    r.completed = completed;
    // The headline IPC is the weighted estimate — the whole point of
    // phase weighting — not the unweighted window sum.
    r.ipc = r.sampling.cpi_mean > 0.0 ? 1.0 / r.sampling.cpi_mean : 0.0;
    r.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
    r.minstr_per_s = r.wall_s > 0.0
        ? static_cast<double>(pa.covered) / r.wall_s / 1e6
        : 0.0;
    return r;
}

} // namespace dmt

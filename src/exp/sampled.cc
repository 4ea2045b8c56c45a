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
#include "sim/checkpoint.hh"
#include "sim/translated_core.hh"
#include "sim/functional_core.hh"
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
    if (parts.size() < 3 || parts.size() > 6) {
        if (err)
            *err = kSpecGrammar;
        return false;
    }
    u64 v[6] = {0, 0, 0, 0, 0, 0};
    for (size_t i = 0; i < parts.size(); ++i) {
        if (!parseU64(parts[i], &v[i])) {
            if (err)
                *err = "bad sample spec field \"" + parts[i] + "\"";
            return false;
        }
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
    if (out->phase.interval == 0) {
        if (err)
            *err = "phase interval length must be > 0";
        return false;
    }
    if (out->measure == 0) {
        if (err)
            *err = "sample measure window must be > 0";
        return false;
    }
    if (out->phase.max_k < 1 || out->phase.max_k > kPhaseMaxK) {
        if (err)
            *err = strprintf("phase maxk must be 1..%llu",
                             static_cast<unsigned long long>(kPhaseMaxK));
        return false;
    }
    if (out->phase.dims < 1 || out->phase.dims > kPhaseMaxDims) {
        if (err)
            *err = strprintf("phase dims must be 1..%llu",
                             static_cast<unsigned long long>(
                                 kPhaseMaxDims));
        return false;
    }
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

/**
 * Per-workload checkpoint chain.  One functional cursor advances
 * through the program; every sampled position it reaches is captured
 * as a Checkpoint and kept (shared_ptr, immutable) so concurrent sweep
 * cells and later invocations reuse it.  Heap-allocated so the Program
 * the cursor references has a stable address.
 */
struct WorkloadCkpts
{
    std::mutex m;
    Program prog;
    u64 prog_hash = 0;
    std::unique_ptr<FunctionalCore> cursor;
    std::map<u64, std::shared_ptr<const Checkpoint>> by_pos;
    /** Retired position of HALT once the cursor has seen it. */
    u64 halt_pos = ~u64{0};
};

std::mutex g_cache_m;
std::map<std::string, std::unique_ptr<WorkloadCkpts>> g_cache;

// Shared-cache accounting (monotonic until clearCheckpointCache()).
std::atomic<u64> g_ckpt_mem_hits{0};
std::atomic<u64> g_ckpt_builds{0};

WorkloadCkpts &
entryFor(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    std::unique_ptr<WorkloadCkpts> &slot = g_cache[workload];
    if (!slot) {
        slot = std::make_unique<WorkloadCkpts>();
        slot->prog = buildWorkload(workload);
        slot->prog_hash = Checkpoint::programHash(slot->prog);
        slot->cursor = std::make_unique<FunctionalCore>(slot->prog);
    }
    return *slot;
}

/** Host work of one run's checkpoint chain (timing-only telemetry). */
struct ChainWork
{
    double wall_s = 0.0; ///< restoring and fast-forwarding
    u64 instr = 0;       ///< instructions the cursor executed
    TranslationStats xlat;
};

/**
 * Architectural checkpoint at exactly @p pos retired instructions;
 * the caller holds e.m.  A cached checkpoint is reused; otherwise the
 * functional cursor advances from the latest known state at or before
 * @p pos — the cursor itself, a cached checkpoint or one of @p anchors
 * (ascending position), whichever is furthest along, else the program
 * entry.
 *
 * @return nullptr when the program HALTs at or before @p pos.
 *         @p work accumulates the cursor's host time, instructions and
 *         translation-cache activity.
 */
std::shared_ptr<const Checkpoint>
checkpointAt(WorkloadCkpts &e, u64 pos,
             const std::vector<Checkpoint> &anchors, ChainWork *work)
{
    if (pos >= e.halt_pos)
        return nullptr;
    auto it = e.by_pos.find(pos);
    if (it != e.by_pos.end()) {
        g_ckpt_mem_hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    FunctionalCore &core = *e.cursor;
    u64 at = core.instrCount() <= pos ? core.instrCount() : 0;
    const Checkpoint *from = nullptr;
    auto consider = [&](const Checkpoint &ck) {
        if (ck.instr_count > at) { // ties keep the cursor
            at = ck.instr_count;
            from = &ck;
        }
    };
    auto cached = e.by_pos.upper_bound(pos);
    if (cached != e.by_pos.begin())
        consider(*std::prev(cached)->second);
    auto anchor = std::partition_point(
        anchors.begin(), anchors.end(),
        [&](const Checkpoint &a) { return a.instr_count <= pos; });
    if (anchor != anchors.begin())
        consider(*std::prev(anchor));

    const TranslationStats xs_before = core.translationStats();
    const auto t0 = std::chrono::steady_clock::now();
    if (from) {
        DMT_ASSERT(from->prog_hash == e.prog_hash,
                   "checkpoint taken against another program");
        core.restore(from->state, from->mem, from->instr_count);
    } else if (core.instrCount() > pos) {
        core.reset();
    }
    const u64 resumed_at = core.instrCount();
    while (core.instrCount() < pos && !core.halted())
        core.run(pos - core.instrCount());
    work->wall_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    work->instr += core.instrCount() - resumed_at;
    work->xlat += core.translationStats() - xs_before;
    if (core.halted()) {
        e.halt_pos = core.instrCount();
        return nullptr;
    }

    auto ck = std::make_shared<Checkpoint>(Checkpoint::capture(core));
    e.by_pos[pos] = ck;
    g_ckpt_builds.fetch_add(1, std::memory_order_relaxed);
    return ck;
}

/** Copy a run's chain telemetry into its sampling summary. */
void
recordChainWork(const ChainWork &work, SampleSummary *s)
{
    s->func_wall_s = work.wall_s;
    s->ff_instr = work.instr;
    s->ff_blocks_translated = work.xlat.blocks_translated;
    s->ff_retranslations = work.xlat.retranslations;
    s->ff_evictions = work.xlat.evictions;
    s->ff_chain_hits = work.xlat.chain_hits;
}

} // namespace

void
clearCheckpointCache()
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    g_cache.clear();
    g_ckpt_mem_hits.store(0, std::memory_order_relaxed);
    g_ckpt_builds.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const Checkpoint>
cachedCheckpoint(const std::string &workload, u64 pos)
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    const auto slot = g_cache.find(workload);
    if (slot == g_cache.end())
        return nullptr;
    WorkloadCkpts &e = *slot->second;
    std::lock_guard<std::mutex> entry_lock(e.m);
    const auto it = e.by_pos.find(pos);
    return it == e.by_pos.end() ? nullptr : it->second;
}

CheckpointCacheCounters
checkpointCacheCounters()
{
    CheckpointCacheCounters c;
    c.mem_hits = g_ckpt_mem_hits.load(std::memory_order_relaxed);
    c.builds = g_ckpt_builds.load(std::memory_order_relaxed);
    return c;
}

RunResult
runWorkloadSampled(const SimConfig &cfg, const std::string &workload,
                   const SampleParams &params, u64 budget)
{
    DMT_ASSERT(params.enabled(),
               "runWorkloadSampled needs a measure window");
    if (budget == 0)
        budget = parseEnvU64("DMT_BENCH_INSTR", 0); // 0 = whole program

    WorkloadCkpts &e = entryFor(workload);

    const auto wall_start = std::chrono::steady_clock::now();
    ChainWork chain;

    RunResult r;
    r.workload = workload;
    r.sampling.enabled = true;
    r.sampling.warm = params.warm;
    r.sampling.measure = params.measure;
    r.sampling.phase_interval = params.phase.interval;
    r.sampling.phase_max_k = params.phase.max_k;
    r.sampling.phase_dims = params.phase.dims;
    r.sampling.phase_seed = params.phase.seed;

    // The profile pass is cached process-wide (like the checkpoint
    // chain); its wall clock lands in the fast-forward bucket.  A
    // profile built here also leaves anchors, so every
    // representative's checkpoint is built in one locked batch from
    // the nearest earlier anchor, and the anchors are freed before
    // the windows run.
    std::shared_ptr<const PhaseAnalysis> pa;
    std::vector<std::shared_ptr<const Checkpoint>> ckpts;
    {
        const auto prof_start = std::chrono::steady_clock::now();
        std::vector<Checkpoint> anchors;
        pa = phaseAnalysisFor(workload, params.phase, budget, &anchors);
        chain.wall_s += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - prof_start)
                            .count();
        r.sampling.ff_anchors = anchors.size();

        std::lock_guard<std::mutex> lock(e.m);
        for (const PhaseInfo &ph : pa->phases) {
            ckpts.push_back(checkpointAt(
                e, ph.rep * params.phase.interval, anchors, &chain));
        }
    }

    r.sampling.phase_k = pa->k;
    r.sampling.phase_intervals = pa->assignment.size();
    bool completed = pa->completed;
    u64 detailed_retired = 0;

    for (size_t i = 0; i < pa->phases.size(); ++i) {
        const PhaseInfo &ph = pa->phases[i];
        const u64 start = ph.rep * params.phase.interval;
        const std::shared_ptr<const Checkpoint> &ck = ckpts[i];

        PhaseCpi row;
        row.id = ph.id;
        row.rep = ph.rep;
        row.pos = start;
        row.weight = ph.weight;
        row.members = ph.members;

        // A representative can sit past HALT only if profiling and the
        // checkpoint cursor disagree — which the bit-identity contract
        // rules out — but stay graceful: the phase goes unmeasured and
        // the aggregate renormalizes over the measured ones.
        if (ck) {
            SimConfig wcfg = cfg;
            wcfg.warmup_retired = params.warm;
            wcfg.max_retired = params.warm + params.measure;

            DmtEngine engine(wcfg, e.prog, ck.get());
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

    r.sampling.covered = pa->covered;
    // Stream-derived (not host-work-derived) so the canonical JSON is
    // identical whether checkpoints came from cache or fresh runs.
    r.sampling.functional_instr = pa->covered > detailed_retired
        ? pa->covered - detailed_retired
        : 0;
    recordChainWork(chain, &r.sampling);
    r.completed = completed;
    // The headline IPC is the weighted estimate — the whole point of
    // phase weighting — not the unweighted window sum.
    r.ipc = r.sampling.cpi_mean > 0.0 ? 1.0 / r.sampling.cpi_mean : 0.0;
    r.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
    r.minstr_per_s = r.wall_s > 0.0
        ? static_cast<double>(pa->covered) / r.wall_s / 1e6
        : 0.0;
    return r;
}

} // namespace dmt

#include "exp/sampled.hh"

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
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

/** Bounds shared by spec parsing and the DMT_PHASE_* env knobs. */
constexpr u64 kPhaseMaxK = 64;
constexpr u64 kPhaseMaxDims = 256;

} // namespace

std::string
SampleParams::canonicalSpec() const
{
    if (!enabled())
        return "off";
    if (phaseMode()) {
        // Every field explicit: two specs that behave identically must
        // render identically, regardless of which trailing fields the
        // user spelled out.
        return strprintf("phase:%llu:%llu:%llu:%llu:%llu:%llu",
                         static_cast<unsigned long long>(phase.interval),
                         static_cast<unsigned long long>(warm),
                         static_cast<unsigned long long>(measure),
                         static_cast<unsigned long long>(phase.max_k),
                         static_cast<unsigned long long>(phase.dims),
                         static_cast<unsigned long long>(phase.seed));
    }
    return strprintf("%llu:%llu:%llu:%llu",
                     static_cast<unsigned long long>(skip),
                     static_cast<unsigned long long>(warm),
                     static_cast<unsigned long long>(measure),
                     static_cast<unsigned long long>(max_intervals));
}

bool
SampleParams::parse(std::string_view spec, SampleParams *out,
                    std::string *err)
{
    *out = SampleParams{};
    const std::string_view t = trim(spec);
    if (t.empty())
        return true; // disabled

    if (t.rfind("phase:", 0) == 0) {
        const std::vector<std::string> parts =
            splitFields(t.substr(6), ":");
        if (parts.size() < 3 || parts.size() > 6) {
            if (err)
                *err = "phase sample spec must be phase:interval:warm:"
                       "measure[:maxk[:dims[:seed]]]";
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
        out->mode = Mode::Phase;
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
                                 static_cast<unsigned long long>(
                                     kPhaseMaxK));
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

    const std::vector<std::string> parts = splitFields(t, ":");
    if (parts.size() < 3 || parts.size() > 4) {
        if (err)
            *err = "sample spec must be skip:warm:measure[:intervals]";
        return false;
    }
    u64 v[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < parts.size(); ++i) {
        if (!parseU64(parts[i], &v[i])) {
            if (err)
                *err = "bad sample spec field \"" + parts[i] + "\"";
            return false;
        }
    }
    out->skip = v[0];
    out->warm = v[1];
    out->measure = v[2];
    out->max_intervals = parts.size() == 4 ? v[3] : 0;
    if (out->measure == 0) {
        if (err)
            *err = "sample measure window must be > 0";
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
    if (p.phaseMode()) {
        // Env defaults apply only to fields the spec left out; the
        // canonical spec is always fully explicit, so result names and
        // golden identities never depend on the environment.
        const size_t nf = splitFields(raw, ":").size() - 1;
        if (nf < 4)
            p.phase.max_k =
                parseEnvU64("DMT_PHASE_K", p.phase.max_k, 1, kPhaseMaxK);
        if (nf < 5)
            p.phase.dims = parseEnvU64("DMT_PHASE_DIMS", p.phase.dims,
                                       1, kPhaseMaxDims);
        if (nf < 6)
            p.phase.seed = parseEnvU64("DMT_PHASE_SEED", p.phase.seed);
    }
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
std::atomic<u64> g_ckpt_disk_hits{0};
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

std::string
ckptPath(const char *dir, const std::string &workload, u64 pos)
{
    return strprintf("%s/%s-%llu.ckpt", dir, workload.c_str(),
                     static_cast<unsigned long long>(pos));
}

/** The checkpoint directory, created (one level) on first use.
 *  @return nullptr when DMT_CKPT_DIR is unset. */
const char *
ckptDir()
{
    const char *dir = std::getenv("DMT_CKPT_DIR");
    if (!dir || !*dir)
        return nullptr;
    ::mkdir(dir, 0755); // best-effort; EEXIST is the common case
    return dir;
}

/**
 * Architectural checkpoint at exactly @p pos retired instructions.
 * Order of preference: in-memory cache, DMT_CKPT_DIR file, advancing
 * the functional cursor (rewinding it from the nearest earlier
 * checkpoint when a caller asks for a position behind it).
 *
 * @return nullptr when the program HALTs at or before @p pos; then
 *         @p halt_pos_out receives the halt position.  @p ff_wall
 *         accumulates host seconds spent fast-forwarding and
 *         @p ff_stats the translation-cache activity of this call.
 */
std::shared_ptr<const Checkpoint>
checkpointAt(WorkloadCkpts &e, const std::string &workload, u64 pos,
             double *ff_wall, TranslationStats *ff_stats,
             u64 *halt_pos_out)
{
    std::lock_guard<std::mutex> lock(e.m);
    if (pos >= e.halt_pos) {
        *halt_pos_out = e.halt_pos;
        return nullptr;
    }
    auto it = e.by_pos.find(pos);
    if (it != e.by_pos.end()) {
        g_ckpt_mem_hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
    }

    const char *dir = ckptDir();
    if (dir) {
        auto ck = std::make_shared<Checkpoint>();
        std::string err;
        if (Checkpoint::load(ckptPath(dir, workload, pos), e.prog_hash,
                             ck.get(), &err)) {
            DMT_ASSERT(ck->instr_count == pos,
                       "checkpoint file position mismatch");
            e.by_pos[pos] = ck;
            g_ckpt_disk_hits.fetch_add(1, std::memory_order_relaxed);
            return ck;
        }
    }

    FunctionalCore &core = *e.cursor;
    if (core.instrCount() > pos) {
        // The cursor is past the request; restart it from the nearest
        // earlier checkpoint (or the program entry).
        auto best = e.by_pos.upper_bound(pos);
        if (best != e.by_pos.begin()) {
            --best;
            const Checkpoint &from = *best->second;
            core.restore(from.state, from.mem, from.instr_count);
        } else {
            core.reset();
        }
    }
    const TranslationStats xs_before = core.translationStats();
    const auto t0 = std::chrono::steady_clock::now();
    while (core.instrCount() < pos && !core.halted())
        core.run(pos - core.instrCount());
    *ff_wall += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    *ff_stats += core.translationStats() - xs_before;
    if (core.halted()) {
        e.halt_pos = core.instrCount();
        *halt_pos_out = e.halt_pos;
        return nullptr;
    }

    auto ck = std::make_shared<Checkpoint>(Checkpoint::capture(core));
    e.by_pos[pos] = ck;
    g_ckpt_builds.fetch_add(1, std::memory_order_relaxed);
    if (dir)
        ck->save(ckptPath(dir, workload, pos)); // best-effort (warns)
    return ck;
}

} // namespace

void
clearCheckpointCache()
{
    std::lock_guard<std::mutex> lock(g_cache_m);
    g_cache.clear();
    g_ckpt_mem_hits.store(0, std::memory_order_relaxed);
    g_ckpt_disk_hits.store(0, std::memory_order_relaxed);
    g_ckpt_builds.store(0, std::memory_order_relaxed);
}

CheckpointCacheCounters
checkpointCacheCounters()
{
    CheckpointCacheCounters c;
    c.mem_hits = g_ckpt_mem_hits.load(std::memory_order_relaxed);
    c.disk_hits = g_ckpt_disk_hits.load(std::memory_order_relaxed);
    c.builds = g_ckpt_builds.load(std::memory_order_relaxed);
    return c;
}

namespace
{

/**
 * Phase-aware placement: one warm+measure window per phase
 * representative found by the (cached) BBV profile, CPI aggregated by
 * phase weight.  Window execution and checkpoint handling are shared
 * with the uniform path; only the placement and the aggregation
 * differ.
 */
RunResult
runPhaseSampled(const SimConfig &cfg, const std::string &workload,
                const SampleParams &params, u64 budget)
{
    WorkloadCkpts &e = entryFor(workload);

    const auto wall_start = std::chrono::steady_clock::now();
    double ff_wall = 0.0;
    TranslationStats ff_stats;

    RunResult r;
    r.workload = workload;
    r.sampling.enabled = true;
    r.sampling.mode = "phase";
    r.sampling.warm = params.warm;
    r.sampling.measure = params.measure;
    r.sampling.phase_interval = params.phase.interval;
    r.sampling.phase_max_k = params.phase.max_k;
    r.sampling.phase_dims = params.phase.dims;
    r.sampling.phase_seed = params.phase.seed;

    // The profile pass is cached process-wide (like the checkpoint
    // chain); its wall clock lands in the fast-forward bucket.
    const auto prof_start = std::chrono::steady_clock::now();
    const std::shared_ptr<const PhaseAnalysis> pa =
        phaseAnalysisFor(workload, params.phase, budget);
    ff_wall += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - prof_start)
                   .count();

    r.sampling.phase_k = pa->k;
    r.sampling.phase_intervals = pa->assignment.size();
    bool completed = pa->completed;
    u64 detailed_retired = 0;

    for (const PhaseInfo &ph : pa->phases) {
        const u64 start = ph.rep * params.phase.interval;
        u64 halt_pos = 0;
        const std::shared_ptr<const Checkpoint> ck =
            checkpointAt(e, workload, start, &ff_wall, &ff_stats, &halt_pos);

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
            // Bessel-style correction on the weighted spread so the CI
            // matches the uniform sampler's n-1 convention.
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
    r.sampling.func_wall_s = ff_wall;
    r.sampling.ff_blocks_translated = ff_stats.blocks_translated;
    r.sampling.ff_retranslations = ff_stats.retranslations;
    r.sampling.ff_evictions = ff_stats.evictions;
    r.sampling.ff_chain_hits = ff_stats.chain_hits;
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

} // namespace

RunResult
runWorkloadSampled(const SimConfig &cfg, const std::string &workload,
                   const SampleParams &params, u64 budget)
{
    DMT_ASSERT(params.enabled(),
               "runWorkloadSampled needs a measure window");
    if (budget == 0)
        budget = parseEnvU64("DMT_BENCH_INSTR", 0); // 0 = whole program

    if (params.phaseMode())
        return runPhaseSampled(cfg, workload, params, budget);

    WorkloadCkpts &e = entryFor(workload);

    const auto wall_start = std::chrono::steady_clock::now();
    double ff_wall = 0.0;
    TranslationStats ff_stats;

    RunResult r;
    r.workload = workload;
    r.sampling.enabled = true;
    r.sampling.skip = params.skip;
    r.sampling.warm = params.warm;
    r.sampling.measure = params.measure;

    std::vector<double> cpis;
    u64 pos = 0;                    // stream position traversed
    u64 detailed_retired = 0;       // instructions run in detail
    bool completed = false;

    while (true) {
        if (params.max_intervals > 0
            && r.sampling.intervals >= params.max_intervals) {
            break;
        }
        if (budget > 0 && pos >= budget)
            break;

        const u64 start = pos + params.skip;
        u64 halt_pos = 0;
        const std::shared_ptr<const Checkpoint> ck =
            checkpointAt(e, workload, start, &ff_wall, &ff_stats, &halt_pos);
        if (!ck) {
            // Program ends inside this skip: coverage extends to HALT.
            pos = halt_pos;
            completed = true;
            break;
        }

        SimConfig wcfg = cfg;
        wcfg.warmup_retired = params.warm;
        wcfg.max_retired = params.warm + params.measure;

        DmtEngine engine(wcfg, e.prog, ck.get());
        engine.run();
        if (!engine.goldenOk()) {
            panic("golden mismatch on %s (sampled window at %llu): %s",
                  workload.c_str(), static_cast<unsigned long long>(start),
                  engine.goldenError().c_str());
        }

        completed = engine.programCompleted();
        const u64 win_retired = engine.retiredTotal();
        detailed_retired += win_retired;
        pos = start + win_retired;

        // A window the program ended during warmup contributes coverage
        // but no measurement (its stat block never detached).
        if (engine.measurementActive()
            && engine.stats().retired.value() > 0) {
            const DmtStats &ws = engine.stats();
            SampleInterval iv;
            iv.pos = start;
            iv.cycles = ws.cycles.value();
            iv.retired = ws.retired.value();
            iv.spawned = ws.threads_spawned.value();
            iv.squashed = ws.squashed_insts.value();
            iv.recoveries = ws.recoveries.value();
            r.sampling.records.push_back(iv);
            ++r.sampling.intervals;
            r.cycles += iv.cycles;
            r.retired += iv.retired;
            r.stats.merge(ws);
            cpis.push_back(static_cast<double>(iv.cycles)
                           / static_cast<double>(iv.retired));
        }
        if (completed)
            break;
    }

    const size_t n = cpis.size();
    if (n > 0) {
        double sum = 0.0;
        for (double c : cpis)
            sum += c;
        r.sampling.cpi_mean = sum / static_cast<double>(n);
        if (n > 1) {
            double var = 0.0;
            for (double c : cpis) {
                const double d = c - r.sampling.cpi_mean;
                var += d * d;
            }
            r.sampling.cpi_sd =
                std::sqrt(var / static_cast<double>(n - 1));
            r.sampling.cpi_ci95 = 1.96 * r.sampling.cpi_sd
                / std::sqrt(static_cast<double>(n));
        }
    }

    r.sampling.covered = pos;
    r.sampling.functional_instr = pos - detailed_retired;
    r.sampling.func_wall_s = ff_wall;
    r.sampling.ff_blocks_translated = ff_stats.blocks_translated;
    r.sampling.ff_retranslations = ff_stats.retranslations;
    r.sampling.ff_evictions = ff_stats.evictions;
    r.sampling.ff_chain_hits = ff_stats.chain_hits;
    r.completed = completed;
    r.ipc = r.cycles > 0 ? static_cast<double>(r.retired)
                               / static_cast<double>(r.cycles)
                         : 0.0;
    r.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
    // In sampled mode the headline throughput is stream coverage per
    // wall second — the "paper-scale at functional speed" number.
    r.minstr_per_s = r.wall_s > 0.0
        ? static_cast<double>(pos) / r.wall_s / 1e6 : 0.0;
    return r;
}

} // namespace dmt

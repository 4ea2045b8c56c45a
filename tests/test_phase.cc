/**
 * @file
 * Phase-aware sampling: BBV collection must be a pure function of the
 * architectural instruction stream (bit-identical to a functionalStep()
 * reference and across any run() chunking), seeded k-means must be
 * reproducible and well-defined on degenerate inputs, the phase-sampled
 * pipeline must be deterministic across cache states and must agree
 * with full-detail CPI, and a checked-in signature
 * (tests/golden/phase_go.json, regenerated with DMT_UPDATE_GOLDEN=1)
 * pins the whole thing.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "casm/assembler.hh"
#include "common/log.hh"
#include "exp/phase.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "sim/bbv.hh"
#include "sim/functional_core.hh"
#include "step_reference.hh"
#include "uarch/config.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

/** Knobs that would perturb the deterministic runs below (read by
 *  runWorkload() at the harness boundary) must not leak in from the
 *  caller's environment. */
const struct EnvSanitizer
{
    EnvSanitizer()
    {
        for (const char *v :
             {"DMT_FAULT", "DMT_TRACE", "DMT_WATCHDOG", "DMT_AUDIT",
              "DMT_BENCH_INSTR", "DMT_SAMPLE"})
            unsetenv(v);
    }
} env_sanitizer;

/** The phase spec used by the determinism and golden tests. */
SampleParams
phaseParams(const std::string &spec)
{
    SampleParams p;
    std::string err;
    EXPECT_TRUE(SampleParams::parse(spec, &p, &err)) << err;
    return p;
}

// ---- BbvCollector unit contract ----------------------------------------

TEST(BbvCollector, SplitsRegionsAcrossIntervalBoundaries)
{
    // interval 10, text of 100 instructions.  Stream: 4 instructions
    // from entry (key 0), taken transfer to text index 10; 8 more under
    // key 10 (crossing the boundary at position 10); transfer to index
    // 2; 3 trailing instructions flushed at a budget stop.
    BbvCollector bbv(10, 100, Program::kTextBase);
    bbv.transfer(Program::kTextBase + 40, 4);
    bbv.transfer(Program::kTextBase + 8, 8);
    bbv.flush(3);
    bbv.finish();
    EXPECT_EQ(bbv.position(), 15u);

    const auto &ivs = bbv.intervals();
    ASSERT_EQ(ivs.size(), 2u);
    EXPECT_EQ(ivs[0].instrs, 10u);
    const std::vector<std::pair<u32, u64>> want0{{0, 4}, {10, 6}};
    EXPECT_EQ(ivs[0].counts, want0);
    // Trailing partial interval: 2 instructions finishing the key-10
    // region plus the 3 flushed under key 2, sorted by block index.
    EXPECT_EQ(ivs[1].instrs, 5u);
    const std::vector<std::pair<u32, u64>> want1{{2, 3}, {10, 2}};
    EXPECT_EQ(ivs[1].counts, want1);
}

TEST(BbvCollector, OffTextAndMisalignedTargetsShareTheSentinel)
{
    BbvCollector bbv(100, 50, Program::kTextBase);
    bbv.transfer(Program::kTextBase + 2, 5);      // misaligned
    bbv.flush(1);
    bbv.transfer(Program::kTextBase + 4 * 200, 2); // past the text
    bbv.flush(1);
    bbv.finish();

    const auto &ivs = bbv.intervals();
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].instrs, 9u);
    // Both bad targets land in the one sentinel bucket (== text size).
    const std::vector<std::pair<u32, u64>> want{{0, 5}, {50, 4}};
    EXPECT_EQ(ivs[0].counts, want);
}

TEST(BbvCollector, ChunkedReportingIsInvariant)
{
    // The same region reported as one flush or many partial flushes
    // must produce identical vectors — the property that makes run()
    // chunking and budget stops invisible.
    BbvCollector one(7, 20, Program::kTextBase);
    one.transfer(Program::kTextBase + 12, 9);
    one.flush(5);
    one.finish();

    BbvCollector many(7, 20, Program::kTextBase);
    many.transfer(Program::kTextBase + 12, 9);
    many.flush(2);
    many.flush(0);
    many.flush(3);
    many.finish();

    EXPECT_EQ(one.intervals(), many.intervals());
}

// ---- BBV collection on real workloads ----------------------------------

TEST(Bbv, CrossEngineBitIdentity)
{
    const Program prog = buildWorkload("go");
    constexpr u64 kInterval = 10000;
    constexpr u64 kBudget = 200000;

    u64 cov_t = 0;
    bool done_t = false;
    const std::vector<IntervalBbv> t =
        collectBbvs(prog, kInterval, kBudget, &cov_t, &done_t);

    // The same profile from the functionalStep() reference, fed in
    // uneven chunks so budget stops land mid-region.
    StepReference ref(prog);
    BbvCollector bbv(kInterval, prog.text.size(), prog.entry);
    static constexpr u64 kChunks[] = {1, 999, 4096, 17, 65536};
    for (size_t c = 0; ref.instrCount() < kBudget && !ref.halted();
         ++c) {
        const u64 chunk = kChunks[c % (sizeof(kChunks)
                                       / sizeof(kChunks[0]))];
        ref.run(std::min(chunk, kBudget - ref.instrCount()), &bbv);
    }
    bbv.finish();
    const std::vector<IntervalBbv> r = bbv.takeIntervals();

    EXPECT_EQ(cov_t, ref.instrCount());
    EXPECT_EQ(done_t, ref.halted());
    ASSERT_EQ(t.size(), r.size());
    for (size_t n = 0; n < t.size(); ++n)
        EXPECT_TRUE(t[n] == r[n]) << "interval " << n
                                  << " differs from the reference";

    // Reruns are bit-identical too.
    const std::vector<IntervalBbv> t2 =
        collectBbvs(prog, kInterval, kBudget);
    EXPECT_TRUE(t == t2);
}

TEST(Bbv, IntervalsPartitionTheStream)
{
    const Program prog = buildWorkload("go");
    // Deliberately odd interval length and budget: every interval but
    // the last must be exactly full, and the totals must tile the
    // covered stream with no gaps or double counting.
    u64 covered = 0;
    const std::vector<IntervalBbv> bbvs =
        collectBbvs(prog, 7321, 123457, &covered);
    ASSERT_FALSE(bbvs.empty());
    u64 sum = 0;
    for (size_t n = 0; n < bbvs.size(); ++n) {
        if (n + 1 < bbvs.size()) {
            EXPECT_EQ(bbvs[n].instrs, 7321u) << "interval " << n;
        }
        u64 iv_sum = 0;
        for (const auto &[block, count] : bbvs[n].counts) {
            EXPECT_LE(block, prog.text.size());
            EXPECT_GT(count, 0u);
            iv_sum += count;
        }
        EXPECT_EQ(iv_sum, bbvs[n].instrs);
        sum += bbvs[n].instrs;
    }
    EXPECT_EQ(sum, covered);
    EXPECT_EQ(covered, 123457u) << "go runs past this budget";
}

// ---- anchored profile --------------------------------------------------

/** A generated loop nest of 21.76M instructions: five profile chunks,
 *  one memory page. */
const char *const kLongSpec = "gen:loopnest:7:trips=10000:units=64";

/** @p ck must hold exactly the architectural state of @p core. */
void
expectSameState(const Checkpoint &ck, const FunctionalCore &core)
{
    EXPECT_EQ(ck.instr_count, core.instrCount());
    EXPECT_EQ(ck.state.pc, core.state().pc);
    EXPECT_EQ(ck.state.halted, core.state().halted);
    EXPECT_EQ(ck.state.regs, core.state().regs);
    EXPECT_EQ(ck.state.output, core.state().output);
    EXPECT_EQ(ck.state.out_count, core.state().out_count);
    EXPECT_EQ(ck.state.out_hash, core.state().out_hash);
    EXPECT_TRUE(ck.mem == core.memory());
}

/** Advance @p core to @p pos (or HALT). */
void
advanceTo(FunctionalCore &core, u64 pos)
{
    while (core.instrCount() < pos && !core.halted())
        core.run(pos - core.instrCount());
}

/**
 * Anchors must sit at strictly increasing chunk multiples inside the
 * profiled stream, hold at most kAnchorPageBudget (each charged at
 * least one page), and equal a fresh core run from the entry.
 */
void
expectExactAnchors(const Program &prog,
                   const std::vector<Checkpoint> &anchors, u64 covered)
{
    FunctionalCore fresh(prog);
    u64 prev = 0;
    u64 held = 0;
    for (const Checkpoint &a : anchors) {
        EXPECT_GT(a.instr_count, prev);
        EXPECT_EQ(a.instr_count % kProfileChunk, 0u);
        EXPECT_LT(a.instr_count, covered);
        EXPECT_EQ(a.prog_hash, Checkpoint::programHash(prog));
        prev = a.instr_count;
        held += std::max<u64>(a.mem.numPages(), 1)
            * MainMemory::kPageSize;
        advanceTo(fresh, a.instr_count);
        expectSameState(a, fresh);
    }
    EXPECT_LE(held, kAnchorPageBudget);
}

TEST(AnchoredProfile, MatchesThePlainProfileAndTheStream)
{
    const Program prog = buildWorkload(kLongSpec);
    constexpr u64 kInterval = 20000;

    u64 cov = 0, cov_a = 0;
    bool done = false, done_a = false;
    const std::vector<IntervalBbv> plain =
        collectBbvs(prog, kInterval, 0, &cov, &done);
    std::vector<Checkpoint> anchors;
    const std::vector<IntervalBbv> anchored = collectBbvsAnchored(
        prog, kInterval, 0, &anchors, &cov_a, &done_a);

    EXPECT_TRUE(plain == anchored) << "anchors must not perturb the BBVs";
    EXPECT_EQ(cov, cov_a);
    EXPECT_EQ(done, done_a);
    ASSERT_TRUE(done);
    ASSERT_EQ(cov / kProfileChunk, 5u) << "expected a five-chunk program";
    // One page of memory: every chunk end fits the budget.
    EXPECT_EQ(anchors.size(), 5u);
    expectExactAnchors(prog, anchors, cov);

    // A budget on a chunk multiple takes no anchor at the budget.
    const u64 budget = 3 * kProfileChunk;
    const std::vector<IntervalBbv> bounded = collectBbvsAnchored(
        prog, kInterval, budget, &anchors, &cov_a);
    EXPECT_TRUE(bounded == collectBbvs(prog, kInterval, budget));
    EXPECT_EQ(cov_a, budget);
    ASSERT_EQ(anchors.size(), 2u);
    expectExactAnchors(prog, anchors, cov_a);

    // Shorter than one chunk: no anchors.
    collectBbvsAnchored(prog, kInterval, kProfileChunk - 1, &anchors);
    EXPECT_TRUE(anchors.empty());
}

TEST(AnchoredProfile, ThinsToThePageBudget)
{
    // Touches a new 64 KiB page every 2^20 - 10 instructions, so the
    // anchor at chunk c would hold 4c + 1 pages: chunk 4's anchor
    // forces stride 2, chunk 6's stride 4, and chunk 8's 33 pages
    // alone exceed the budget.
    const Program prog = assembleOrDie(R"(
            li   $s0, 0x20000000
            li   $s1, 36
            li   $s2, 0x10000
    outer:  sw   $s1, 0($s0)
            add  $s0, $s0, $s2
            li   $t0, 0x7fffa
    inner:  addi $t0, $t0, -1
            bnez $t0, inner
            addi $s1, $s1, -1
            bnez $s1, outer
            halt
    )");
    u64 cov = 0;
    bool done = false;
    std::vector<Checkpoint> anchors;
    collectBbvsAnchored(prog, 100000, 0, &anchors, &cov, &done);
    ASSERT_TRUE(done);
    ASSERT_EQ(cov / kProfileChunk, 8u);

    ASSERT_EQ(anchors.size(), 1u);
    EXPECT_EQ(anchors[0].instr_count, 4 * kProfileChunk);
    EXPECT_EQ(anchors[0].mem.numPages(), 17u);
    expectExactAnchors(prog, anchors, cov);
}

// ---- seeded clustering -------------------------------------------------

PhaseParams
params(u64 interval, u64 max_k = 8, u64 dims = 16, u64 seed = 42)
{
    PhaseParams p;
    p.interval = interval;
    p.max_k = max_k;
    p.dims = dims;
    p.seed = seed;
    return p;
}

TEST(PhaseCluster, SeededRunsAreReproducible)
{
    const Program prog = buildWorkload("go");
    const std::vector<IntervalBbv> bbvs =
        collectBbvs(prog, 10000, 200000);
    ASSERT_GE(bbvs.size(), 10u);

    const PhaseAnalysis a = clusterPhases(bbvs, params(10000));
    const PhaseAnalysis b = clusterPhases(bbvs, params(10000));
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t n = 0; n < a.phases.size(); ++n) {
        EXPECT_EQ(a.phases[n].rep, b.phases[n].rep);
        EXPECT_EQ(a.phases[n].members, b.phases[n].members);
        EXPECT_DOUBLE_EQ(a.phases[n].weight, b.phases[n].weight);
    }
}

TEST(PhaseCluster, ResultIsWellFormedForAnySeed)
{
    const Program prog = buildWorkload("go");
    const std::vector<IntervalBbv> bbvs =
        collectBbvs(prog, 10000, 200000);

    for (const u64 seed : {u64{7}, u64{42}, u64{12345}}) {
        const PhaseAnalysis pa =
            clusterPhases(bbvs, params(10000, 8, 16, seed));
        ASSERT_GE(pa.k, 1u);
        EXPECT_LE(pa.k, 8u);
        ASSERT_EQ(pa.assignment.size(), bbvs.size());
        ASSERT_EQ(pa.phases.size(), pa.k);
        double weight_sum = 0.0;
        u64 members_sum = 0;
        u64 prev_rep = 0;
        for (size_t n = 0; n < pa.phases.size(); ++n) {
            const PhaseInfo &ph = pa.phases[n];
            EXPECT_EQ(ph.id, n);
            if (n > 0) {
                EXPECT_GT(ph.rep, prev_rep)
                    << "ids must be dense in rep order";
            }
            prev_rep = ph.rep;
            ASSERT_LT(ph.rep, bbvs.size());
            EXPECT_EQ(pa.assignment[ph.rep], ph.id)
                << "a representative belongs to its own phase";
            EXPECT_GT(ph.members, 0u);
            weight_sum += ph.weight;
            members_sum += ph.members;
        }
        EXPECT_NEAR(weight_sum, 1.0, 1e-9);
        EXPECT_EQ(members_sum, bbvs.size());
    }
}

TEST(PhaseCluster, DegenerateInputsStayWellDefined)
{
    // Empty input: no phases at all.
    const PhaseAnalysis empty = clusterPhases({}, params(100));
    EXPECT_EQ(empty.k, 0u);
    EXPECT_TRUE(empty.phases.empty());

    // A single interval: one phase with the whole weight.
    IntervalBbv iv;
    iv.counts = {{0, 60}, {5, 40}};
    iv.instrs = 100;
    const PhaseAnalysis one = clusterPhases({iv}, params(100));
    ASSERT_EQ(one.k, 1u);
    EXPECT_EQ(one.phases[0].rep, 0u);
    EXPECT_EQ(one.phases[0].members, 1u);
    EXPECT_DOUBLE_EQ(one.phases[0].weight, 1.0);

    // All-identical vectors collapse to a single phase even when
    // max_k asks for more.
    const std::vector<IntervalBbv> same(5, iv);
    const PhaseAnalysis collapsed = clusterPhases(same, params(100, 8));
    ASSERT_EQ(collapsed.k, 1u);
    EXPECT_EQ(collapsed.phases[0].members, 5u);
    EXPECT_DOUBLE_EQ(collapsed.phases[0].weight, 1.0);

    // max_k beyond the interval count clamps to n.
    IntervalBbv other;
    other.counts = {{9, 100}};
    other.instrs = 100;
    const PhaseAnalysis few =
        clusterPhases({iv, other, iv}, params(100, 64));
    EXPECT_GE(few.k, 1u);
    EXPECT_LE(few.k, 3u);
}

TEST(PhaseCluster, AnalysisCacheSharesOneBuild)
{
    clearCheckpointCache();
    const PhaseParams p = params(20000);
    bool built_a = false, built_b = true;
    const auto a = samplePlanFor("go", p, 400000, &built_a);
    const auto b = samplePlanFor("go", p, 400000, &built_b);
    EXPECT_EQ(a.get(), b.get()) << "second lookup must share the build";
    EXPECT_TRUE(built_a);
    EXPECT_FALSE(built_b);
    const PhaseCacheCounters c = phaseCacheCounters();
    EXPECT_EQ(c.builds, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(a->ckpts.size(), a->pa.phases.size());
    EXPECT_EQ(checkpointCacheCounters().builds, a->ckpts.size());
    EXPECT_EQ(checkpointCacheCounters().mem_hits, a->ckpts.size());

    // A different parameter set is a different cache cell.
    const auto other = samplePlanFor("go", params(20000, 4), 400000);
    EXPECT_NE(other.get(), a.get());
    EXPECT_EQ(phaseCacheCounters().builds, 2u);

    clearCheckpointCache();
    const PhaseCacheCounters z = phaseCacheCounters();
    EXPECT_EQ(z.builds + z.hits, 0u);
    const CheckpointCacheCounters zc = checkpointCacheCounters();
    EXPECT_EQ(zc.builds + zc.mem_hits, 0u);
}

// ---- the phase-sampled pipeline ----------------------------------------

TEST(PhaseSampled, DeterministicAcrossCacheStatesAndEngines)
{
    const SampleParams p = phaseParams("phase:20000:500:1500");
    const SimConfig cfg = SimConfig::dmt(6, 2);
    constexpr u64 kBudget = 400000;

    clearCheckpointCache();
    const RunResult cold = runWorkloadSampled(cfg, "go", p, kBudget);
    const RunResult warm = runWorkloadSampled(cfg, "go", p, kBudget);
    EXPECT_EQ(cold.jsonString(), warm.jsonString())
        << "warm phase/checkpoint caches must not change a byte";

    EXPECT_GE(cold.sampling.phase_k, 1u);
    EXPECT_EQ(cold.sampling.phases.size(), cold.sampling.phase_k);
    EXPECT_EQ(cold.sampling.phase_intervals, 20u);
    EXPECT_GT(cold.sampling.covered, 0u);
    EXPECT_LT(cold.sampling.functional_instr, cold.sampling.covered);
    clearCheckpointCache();
}

TEST(PhaseSampled, AnchoredChainMatchesTheCursorAndCaches)
{
    const SampleParams p = phaseParams("phase:20000:500:1500");
    const SimConfig cfg = SimConfig::dmt(6, 2);

    clearCheckpointCache();
    const RunResult cold = runWorkloadSampled(cfg, kLongSpec, p);
    ASSERT_TRUE(cold.completed);
    ASSERT_GE(cold.sampling.phases.size(), 2u);
    EXPECT_EQ(cold.sampling.ff_anchors, 5u);

    // Each representative's checkpoint is the state a cursor reaches
    // from the entry, though the plan's walk started from anchors.
    bool built = true;
    const std::shared_ptr<const SamplePlan> plan =
        samplePlanFor(kLongSpec, p.phase, 0, &built);
    EXPECT_FALSE(built) << "the run must have cached its plan";
    ASSERT_EQ(plan->ckpts.size(), cold.sampling.phases.size());
    const Program prog = buildWorkload(kLongSpec);
    FunctionalCore cursor(prog);
    u64 last = 0;
    for (size_t i = 0; i < plan->ckpts.size(); ++i) {
        const u64 pos = cold.sampling.phases[i].pos;
        ASSERT_TRUE(plan->ckpts[i]) << "no checkpoint at " << pos;
        advanceTo(cursor, pos);
        expectSameState(*plan->ckpts[i], cursor);
        last = std::max(last, pos);
    }
    EXPECT_LT(cold.sampling.ff_instr, last)
        << "the walk must not re-run the prefix from the entry";

    const RunResult warm = runWorkloadSampled(cfg, kLongSpec, p);
    EXPECT_EQ(cold.jsonString(), warm.jsonString())
        << "a cached plan must not change a byte";
    EXPECT_EQ(warm.sampling.ff_instr, 0u);
    EXPECT_EQ(warm.sampling.ff_anchors, 0u);
    clearCheckpointCache();
}

TEST(PhaseSampled, ConcurrentColdRunsShareOnePlan)
{
    // Four cells racing on a cold cache: one builds the plan (profile,
    // anchors, every checkpoint), the others wait for it and reuse it.
    const SampleParams p = phaseParams("phase:20000:500:1500");
    const SimConfig cfg = SimConfig::dmt(6, 2);
    constexpr size_t kThreads = 4;

    clearCheckpointCache();
    std::vector<RunResult> runs(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            runs[t] = runWorkloadSampled(cfg, kLongSpec, p);
        });
    }
    for (std::thread &t : threads)
        t.join();

    u64 ff_instr = 0, last = 0;
    for (const RunResult &r : runs) {
        EXPECT_EQ(r.jsonString(), runs[0].jsonString())
            << "every cell must see the same plan";
        ff_instr += r.sampling.ff_instr;
    }
    for (const PhaseCpi &ph : runs[0].sampling.phases)
        last = std::max(last, ph.pos);
    EXPECT_EQ(phaseCacheCounters().builds, 1u);
    EXPECT_EQ(phaseCacheCounters().hits, kThreads - 1);
    EXPECT_EQ(checkpointCacheCounters().builds,
              runs[0].sampling.phases.size());
    EXPECT_LT(ff_instr, last)
        << "no cell may re-run the prefix without anchors";
    clearCheckpointCache();
}

TEST(PhaseSampled, CpiBracketsFullDetail)
{
    // The agreement contract that makes sampled family sweeps
    // trustworthy: on a long generated loop nest, the phase-weighted
    // CPI estimate must agree with the full-detail CPI within its own
    // confidence interval plus a small absolute guard for
    // warmup-boundary bias.
    const std::string spec = "gen:loopnest:21:trips=200:units=48";
    const SimConfig cfg = SimConfig::dmt(6, 2);

    clearCheckpointCache();
    const RunResult full = runWorkload(cfg, spec, 2000000);
    ASSERT_TRUE(full.completed);
    ASSERT_GT(full.retired, 200000u) << "workload too short to sample";
    const double full_cpi = static_cast<double>(full.cycles) /
                            static_cast<double>(full.retired);

    const SampleParams p = phaseParams("phase:20000:500:2000");
    clearCheckpointCache();
    const RunResult s = runWorkloadSampled(cfg, spec, p);
    ASSERT_TRUE(s.completed);
    ASSERT_GE(s.sampling.phase_k, 1u);
    ASSERT_GT(s.sampling.cpi_mean, 0.0);

    EXPECT_NEAR(s.sampling.cpi_mean, full_cpi,
                s.sampling.cpi_ci95 + 0.03)
        << "phase-sampled CPI " << s.sampling.cpi_mean << " +- "
        << s.sampling.cpi_ci95 << " does not bracket full-detail CPI "
        << full_cpi;

    // The economics that motivate the mode: one window per phase means
    // far fewer detailed instructions than one window per interval.
    const u64 detailed = s.sampling.covered - s.sampling.functional_instr;
    EXPECT_LT(detailed * 3, s.sampling.covered)
        << "phase sampling should leave most of the stream functional";
    clearCheckpointCache();
}

std::string
phaseGoldenPath()
{
    return std::string(DMT_GOLDEN_DIR) + "/phase_go.json";
}

bool
updateRequested()
{
    const char *v = std::getenv("DMT_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

TEST(PhaseSampled, GoldenSignature)
{
    // Pin the whole phase pipeline — BBV profile, projection,
    // clustering, representative windows, weighted aggregation — to a
    // checked-in canonical JSON document.  Regenerate with
    // DMT_UPDATE_GOLDEN=1 after intentional behaviour changes.
    const SampleParams p = phaseParams("phase:20000:500:1500");

    clearCheckpointCache();
    const RunResult r =
        runWorkloadSampled(SimConfig::dmt(6, 2), "go", p, 400000);
    clearCheckpointCache();
    const std::string got = r.jsonString() + "\n";

    if (updateRequested()) {
        std::ofstream out(phaseGoldenPath());
        ASSERT_TRUE(out.good()) << phaseGoldenPath();
        out << got;
        GTEST_SKIP() << "phase signature regenerated in "
                     << phaseGoldenPath();
    }

    std::ifstream in(phaseGoldenPath());
    ASSERT_TRUE(in.good()) << phaseGoldenPath()
                           << " missing; regenerate with "
                              "DMT_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), got)
        << "phase-sampled run drifted from tests/golden/phase_go.json; "
           "if intentional, regenerate with DMT_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace dmt

/**
 * @file
 * Differential exactness tests for the superblock-translated
 * fast-forward engine (sim/translated_core.hh).  The contract under
 * test: FunctionalCore produces architectural state bit-identical to
 * stepping functionalStep() — the golden checker's oracle, driven
 * here through the StepReference interpreter (tests/step_reference.hh)
 * — in registers, PC, halt flag, OUT stream (exact vector, count and
 * hash), sparse memory pages and executed-instruction count, for every
 * conformance scenario, for arbitrary mid-block budget stops, across
 * checkpoint capture, and across reruns that reuse the translation
 * cache after reset() and restore().
 *
 * Scenario count mirrors tests/test_conformance.cc: all generator
 * families x DMT_CONF_SEEDS seeds (default 15; CI smoke uses 2).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "casm/builder.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "exp/sampled.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"
#include "sim/functional_core.hh"
#include "sim/translated_core.hh"
#include "step_reference.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

/** Seeds per family (same knob as the conformance sweep). */
int
seedsPerFamily()
{
    static const int n = [] {
        const u64 v = parseEnvU64("DMT_CONF_SEEDS", 0);
        return v > 0 ? static_cast<int>(v) : 15;
    }();
    return n;
}

/** Scenario knobs, identical derivation to test_conformance.cc so the
 *  two sweeps cover the same program population. */
GenParams
scenarioParams(int family_idx, u64 seed)
{
    const GenFamilyInfo &fam =
        genFamilies()[static_cast<size_t>(family_idx)];
    Rng r(seed * 0x9e3779b97f4a7c15ull
          + static_cast<u64>(family_idx) * 0x100000001b3ull);
    GenParams p;
    p.family = fam.name;
    p.seed = seed;
    p.depth = 2 + static_cast<int>(r.below(4));    // 2..5
    p.trips = 4 + static_cast<int>(r.below(24));   // 4..27
    p.entropy = static_cast<int>(r.below(101));
    p.alias = static_cast<int>(r.below(101));
    p.units = 8 + static_cast<int>(r.below(41));   // 8..48
    return p;
}

/** Safety cap: every scenario program retires far less than this. */
constexpr u64 kRunCap = u64{1} << 24;

/** Every observable architectural fact the engine must share with
 *  the functionalStep() reference. */
void
expectSameState(const StepReference &ref, const FunctionalCore &xlat,
                const std::string &ctx)
{
    EXPECT_EQ(ref.instrCount(), xlat.instrCount()) << ctx;
    EXPECT_EQ(ref.state().pc, xlat.state().pc) << ctx;
    EXPECT_EQ(ref.halted(), xlat.halted()) << ctx;
    EXPECT_EQ(ref.state().regs, xlat.state().regs) << ctx;
    EXPECT_EQ(ref.state().output, xlat.state().output) << ctx;
    EXPECT_EQ(ref.state().out_count, xlat.state().out_count) << ctx;
    EXPECT_EQ(ref.state().out_hash, xlat.state().out_hash) << ctx;
    EXPECT_TRUE(ref.memory() == xlat.memory()) << ctx;
}

/** Run @p core (engine or reference) to HALT under the safety cap. */
template <typename Core>
void
runToHalt(Core &core, const std::string &ctx)
{
    u64 total = 0;
    while (!core.halted() && total < kRunCap)
        total += core.run(kRunCap - total);
    ASSERT_TRUE(core.halted()) << ctx << ": no HALT under the cap";
}

// ---- the scenario sweep ------------------------------------------------

class TranslatedConformance : public ::testing::TestWithParam<int>
{
};

// The interpreter is StepReference: functionalStep(), one instruction
// at a time.
TEST_P(TranslatedConformance, BitIdenticalToInterpreter)
{
    const int family_idx = GetParam() / seedsPerFamily();
    const u64 seed =
        static_cast<u64>(GetParam() % seedsPerFamily()) + 1;
    const GenParams p = scenarioParams(family_idx, seed);
    const std::string spec = p.canonicalSpec();
    const Program prog = buildWorkload(spec);

    // Exact OUT vectors (not just the digest): stream_output off.
    StepReference ref(prog);
    FunctionalCore xlat(prog, /*stream_output=*/false);

    // Phase 1: chunked lock-step over a prefix, cycling through chunk
    // sizes (including single-instruction steps) so budget stops land
    // mid-block, mid-loop and on every kind of control transfer.
    static constexpr u64 kChunks[] = {1, 1, 2, 3, 5, 7, 13, 64};
    size_t ci = 0;
    while (!ref.halted() && ref.instrCount() < 1500) {
        const u64 chunk = kChunks[ci++ % (sizeof(kChunks)
                                          / sizeof(kChunks[0]))];
        const u64 dr = ref.run(chunk);
        const u64 dx = xlat.run(chunk);
        ASSERT_EQ(dr, dx) << spec << " @" << ref.instrCount();
        ASSERT_EQ(ref.state().pc, xlat.state().pc)
            << spec << " @" << ref.instrCount();
        if (dr == 0)
            break;
    }
    expectSameState(ref, xlat, spec + " (chunked prefix)");

    // Phase 2: run both to completion and compare the full final state.
    runToHalt(ref, spec);
    runToHalt(xlat, spec);
    expectSameState(ref, xlat, spec + " (completion)");

    // A halted core must stay halted and consume nothing.
    EXPECT_EQ(xlat.run(10), 0u) << spec;

    const TranslationStats xs = xlat.translationStats();
    EXPECT_GT(xs.blocks_translated, 0u) << spec;
    EXPECT_EQ(xs.instrs_executed, xlat.instrCount()) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Families, TranslatedConformance,
    ::testing::Range(0, static_cast<int>(genFamilies().size())
                            * seedsPerFamily()),
    [](const ::testing::TestParamInfo<int> &param_info) {
        const int fam = param_info.param / seedsPerFamily();
        const int seed = param_info.param % seedsPerFamily() + 1;
        return std::string(genFamilies()[static_cast<size_t>(fam)].name)
            + "_s" + std::to_string(seed);
    });

// ---- suite kernels -----------------------------------------------------

TEST(Translated, SuiteKernelsBitIdentical)
{
    // The suite kernels, plus a call-tree and a branchy program with
    // default knobs (many short blocks, returns through JR).
    for (const char *name : {"go", "m88ksim", "compress", "li", "ijpeg",
                             "perl", "vortex", "gcc", "gen:calltree:7",
                             "gen:branchy:3:trips=40"}) {
        const Program prog = buildWorkload(name);
        StepReference ref(prog);
        FunctionalCore xlat(prog, /*stream_output=*/false);
        runToHalt(ref, name);
        runToHalt(xlat, name);
        expectSameState(ref, xlat, name);
    }
}

// ---- translation-cache behaviour --------------------------------------

TEST(Translated, CacheKeepsEveryBlockAcrossResetAndRestore)
{
    // Translations live for the life of the core: a rerun over block
    // starts already seen translates nothing, and the cache never
    // holds more blocks than the text has instructions.
    const Program prog = buildWorkload("gen:calltree:7");
    StepReference ref(prog);
    runToHalt(ref, "calltree reference");

    FunctionalCore xlat(prog, /*stream_output=*/false);
    runToHalt(xlat, "first run");
    expectSameState(ref, xlat, "first run");
    const u64 first = xlat.translationStats().blocks_translated;
    EXPECT_GT(first, 0u);
    EXPECT_LE(first, prog.text.size());

    xlat.reset();
    runToHalt(xlat, "rerun after reset");
    expectSameState(ref, xlat, "rerun after reset");
    EXPECT_EQ(xlat.translationStats().blocks_translated, first);

    // A budget stop inside a block: resuming there enters the block
    // mid-way, a start the first runs never saw.
    FunctionalCore ff(prog, /*stream_output=*/false);
    ASSERT_EQ(ff.run(777), 777u);
    const Checkpoint ck = Checkpoint::capture(ff);
    xlat.restore(ck.state, ck.mem, ck.instr_count);
    runToHalt(xlat, "run after restore");
    expectSameState(ref, xlat, "run after restore");
    const u64 resumed = xlat.translationStats().blocks_translated;
    EXPECT_GT(resumed, first);
    EXPECT_LE(resumed, prog.text.size());

    xlat.restore(ck.state, ck.mem, ck.instr_count);
    runToHalt(xlat, "second run after restore");
    expectSameState(ref, xlat, "second run after restore");
    EXPECT_EQ(xlat.translationStats().blocks_translated, resumed);
}

TEST(Translated, IndirectStressReturnsAndPtrchase)
{
    // Deep call trees return through JR — the inline next-block
    // predictor's hard case (one site, many return targets).
    {
        const Program prog = buildWorkload("gen:calltree:13:depth=5");
        StepReference ref(prog);
        FunctionalCore xlat(prog, /*stream_output=*/false);
        runToHalt(ref, "calltree reference");
        runToHalt(xlat, "calltree translated");
        expectSameState(ref, xlat, "calltree indirect stress");
        const TranslationStats xs = xlat.translationStats();
        EXPECT_GT(xs.indirect_hits + xs.indirect_misses, 0u);
    }
    // Pointer-chase stresses the data side: loads walking sparse pages.
    {
        const Program prog =
            buildWorkload("gen:ptrchase:11:trips=500:units=64");
        StepReference ref(prog);
        FunctionalCore xlat(prog, /*stream_output=*/false);
        runToHalt(ref, "ptrchase reference");
        runToHalt(xlat, "ptrchase translated");
        expectSameState(ref, xlat, "ptrchase data stress");
    }
}

TEST(Translated, HotLoopChainsBlocks)
{
    const Program prog = buildWorkload("gen:loopnest:5:trips=200");
    FunctionalCore xlat(prog, /*stream_output=*/false);
    runToHalt(xlat, "loopnest translated");
    const TranslationStats xs = xlat.translationStats();
    // Steady-state loops must run chained: far more hits than misses
    // (every miss is a one-time chain installation).
    EXPECT_GT(xs.chain_hits, 10 * xs.chain_misses);
    EXPECT_GT(xs.blocks_executed, xs.blocks_translated);
}

// ---- checkpoint pipeline -----------------------------------------------

TEST(Translated, CheckpointBytesIdenticalAcrossEngines)
{
    // A checkpoint captured after a translated run must hold exactly
    // the state of one captured from a core restore()d from the
    // functionalStep() reference at the same position: every
    // architectural field, the sparse page set and its bytes, the
    // position and the program hash.
    const Program prog = buildWorkload("compress");
    const u64 pos = 100000;

    FunctionalCore xlat(prog);
    while (xlat.instrCount() < pos && !xlat.halted())
        xlat.run(pos - xlat.instrCount());
    ASSERT_EQ(xlat.instrCount(), pos);
    const Checkpoint a = Checkpoint::capture(xlat);

    StepReference ref(prog, /*stream_output=*/true);
    ASSERT_EQ(ref.run(pos), pos);
    FunctionalCore restored(prog);
    restored.restore(ref.state(), ref.memory(), ref.instrCount());
    const Checkpoint b = Checkpoint::capture(restored);

    EXPECT_EQ(a.instr_count, b.instr_count);
    EXPECT_EQ(a.prog_hash, b.prog_hash);
    EXPECT_EQ(a.prog_hash, Checkpoint::programHash(prog));
    EXPECT_EQ(a.state.pc, b.state.pc);
    EXPECT_EQ(a.state.halted, b.state.halted);
    EXPECT_EQ(a.state.regs, b.state.regs);
    EXPECT_EQ(a.state.output, b.state.output);
    EXPECT_EQ(a.state.stream_output, b.state.stream_output);
    EXPECT_EQ(a.state.out_count, b.state.out_count);
    EXPECT_EQ(a.state.out_hash, b.state.out_hash);
    EXPECT_TRUE(a.mem == b.mem);
}

TEST(Translated, CheckpointRestoreMidBlockResumesExactly)
{
    // Restore into a fresh core at an arbitrary (mid-block) position
    // and continue translated; the end state must match a straight
    // functionalStep() run.
    const Program prog = buildWorkload("gen:branchy:9:trips=60");
    StepReference ref(prog);
    runToHalt(ref, "branchy reference");

    FunctionalCore ff(prog, /*stream_output=*/false);
    ff.run(777); // deliberately not a block boundary
    FunctionalCore resumed(prog, /*stream_output=*/false);
    resumed.restore(ff.state(), ff.memory(), ff.instrCount());
    runToHalt(resumed, "branchy resumed");
    expectSameState(ref, resumed, "mid-block checkpoint resume");
}

// ---- sampled pipeline --------------------------------------------------

TEST(Translated, SampledRunsByteIdenticalAcrossEngines)
{
    // Sampled fast-forward runs through the translated engine, and the
    // run's telemetry says so.  (Byte identity of the results against
    // the step oracle is the checkpoint test above; the end-to-end
    // bytes are pinned by tests/golden/phase_go.json.)
    SampleParams p;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("phase:20000:400:1200", &p, &err))
        << err;

    clearCheckpointCache();
    clearPhaseCache();
    const RunResult r =
        runWorkloadSampled(SimConfig::dmt(6, 2), "go", p, 200000);
    clearCheckpointCache();
    clearPhaseCache();

    EXPECT_GE(r.sampling.intervals, 1u);
    EXPECT_EQ(r.sampling.phase_intervals, 10u);
    EXPECT_GT(r.sampling.ff_blocks_translated, 0u);
    EXPECT_GT(r.sampling.ff_chain_hits, 0u);
}

// ---- instruction counting ----------------------------------------------

TEST(Translated, FallOffTextCountsLikeTheReference)
{
    // A program with no HALT halts by fetching past its text.  That
    // fetch executes nothing: runFunctional(), the engine and the
    // reference all count exactly the two instructions.
    AsmBuilder b;
    b.addi(reg::t0, reg::zero, 1);
    b.addi(reg::t1, reg::zero, 2);
    const Program prog = b.finish();

    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    EXPECT_EQ(runFunctional(st, mem, prog), 2u);

    FunctionalCore xlat(prog, /*stream_output=*/false);
    EXPECT_EQ(xlat.run(100), 2u);
    EXPECT_TRUE(xlat.halted());
    StepReference ref(prog);
    EXPECT_EQ(ref.run(100), 2u);
    expectSameState(ref, xlat, "fall-off halt");

    // With the budget spent on the last instruction, the halting fetch
    // happens on the next run() and consumes nothing.
    FunctionalCore xlat2(prog, /*stream_output=*/false);
    StepReference ref2(prog);
    EXPECT_EQ(xlat2.run(2), 2u);
    EXPECT_EQ(ref2.run(2), 2u);
    EXPECT_FALSE(xlat2.halted());
    EXPECT_FALSE(ref2.halted());
    EXPECT_EQ(xlat2.run(5), 0u);
    EXPECT_EQ(ref2.run(5), 0u);
    expectSameState(ref2, xlat2, "fall-off halt after a budget stop");
    EXPECT_TRUE(xlat2.halted());
}

} // namespace
} // namespace dmt

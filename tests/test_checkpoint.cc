/**
 * @file
 * Checkpointed fast-forward: the functional core must be
 * instruction-for-instruction equivalent to functionalStep(),
 * checkpoints must capture sparse memory exactly (including pages that
 * exist only because a speculative wild store touched them), a
 * detailed engine resumed from the same checkpoint twice must produce
 * bit-identical results, and a sampled run must cover the whole
 * program.  The phase-sampled pipeline itself is pinned in
 * test_phase.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "common/log.hh"
#include "dmt/engine.hh"
#include "exp/sampled.hh"
#include "sim/checkpoint.hh"
#include "sim/functional.hh"
#include "sim/functional_core.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

TEST(MainMemoryCkpt, SparsePageExactEquality)
{
    MainMemory a;
    a.write32(0x1000, 0xdeadbeef);
    a.write8(0x7fff0001, 0x42);     // wild speculative store, high page
    a.write16(0xfffe0000, 0xbeef);  // near the top of the address space

    MainMemory b = a;
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.numPages(), b.numPages());

    b.write8(0x1000, 0xff);
    EXPECT_FALSE(a == b);

    // An allocated all-zero page is NOT the same as an absent page:
    // the sparse structure itself must round-trip.
    MainMemory c = a;
    c.write8(0x30000000, 0); // allocates a page, leaves it all zero
    EXPECT_FALSE(a == c);
    EXPECT_EQ(c.numPages(), a.numPages() + 1);
}

TEST(FunctionalCoreCkpt, MatchesFunctionalStepExactly)
{
    const Program prog = buildWorkload("go");
    constexpr u64 kSteps = 20000;

    // Reference: the per-step interpreter the golden checker uses.
    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    for (u64 i = 0; i < kSteps && !st.halted; ++i)
        functionalStep(st, mem, prog);

    // Batched core, exact-output mode so the vectors compare too.
    FunctionalCore core(prog, /*stream_output=*/false);
    core.run(kSteps);

    EXPECT_EQ(core.instrCount(), kSteps);
    EXPECT_EQ(core.state().pc, st.pc);
    EXPECT_EQ(core.state().halted, st.halted);
    EXPECT_EQ(core.state().regs, st.regs);
    EXPECT_EQ(core.state().output, st.output);
    EXPECT_EQ(core.state().out_count, st.out_count);
    EXPECT_EQ(core.state().out_hash, st.out_hash);
    EXPECT_TRUE(core.memory() == mem);
}

TEST(FunctionalCoreCkpt, FullProgramMatchesReference)
{
    const Program prog = buildWorkload("compress");

    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    const u64 ref_steps = runFunctional(st, mem, prog);

    FunctionalCore core(prog, /*stream_output=*/false);
    core.run(~u64{0});

    EXPECT_TRUE(core.halted());
    EXPECT_EQ(core.instrCount(), ref_steps);
    EXPECT_EQ(core.state().out_hash, st.out_hash);
    EXPECT_EQ(core.state().output, st.output);
    EXPECT_TRUE(core.memory() == mem);
}

TEST(CheckpointCkpt, RestoredCoreContinuesIdentically)
{
    const Program prog = buildWorkload("go");

    FunctionalCore straight(prog, /*stream_output=*/false);
    straight.run(80000);

    FunctionalCore hopped(prog, /*stream_output=*/false);
    hopped.run(30000);
    const Checkpoint ck = Checkpoint::capture(hopped);
    FunctionalCore resumed(prog, /*stream_output=*/false);
    resumed.restore(ck.state, ck.mem, ck.instr_count);
    resumed.run(50000);

    EXPECT_EQ(resumed.instrCount(), straight.instrCount());
    EXPECT_EQ(resumed.state().pc, straight.state().pc);
    EXPECT_EQ(resumed.state().regs, straight.state().regs);
    EXPECT_EQ(resumed.state().out_hash, straight.state().out_hash);
    EXPECT_TRUE(resumed.memory() == straight.memory());
}

TEST(EngineResume, GoldenCheckedWindowFromCheckpoint)
{
    const Program prog = buildWorkload("go");
    FunctionalCore core(prog);
    core.run(100000);
    ASSERT_FALSE(core.halted());
    const Checkpoint ck = Checkpoint::capture(core);

    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 3000;
    cfg.warmup_retired = 500;
    ASSERT_TRUE(cfg.check_golden);

    DmtEngine engine(cfg, prog, &ck);
    EXPECT_FALSE(engine.measurementActive());
    engine.run();

    // Every retired instruction inside the window was verified against
    // a golden model forked from the same checkpoint.
    EXPECT_TRUE(engine.goldenOk()) << engine.goldenError();
    EXPECT_EQ(engine.retiredTotal(), 3000u);
    EXPECT_TRUE(engine.measurementActive());
    // The stat block detached at the warmup boundary.  The boundary is
    // evaluated between cycles, so up to retire_width-1 instructions of
    // the crossing cycle land on the warmup side.
    EXPECT_LE(engine.stats().retired.value(), 2500u);
    EXPECT_GE(engine.stats().retired.value(),
              2500u - static_cast<u64>(cfg.retire_width) + 1);
    EXPECT_LT(engine.stats().cycles.value(), engine.now());
}

TEST(EngineResume, SameCheckpointTwiceIsBitIdentical)
{
    const Program prog = buildWorkload("m88ksim");
    FunctionalCore core(prog);
    core.run(60000);
    ASSERT_FALSE(core.halted());
    const Checkpoint ck = Checkpoint::capture(core);

    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 4000;
    cfg.warmup_retired = 1000;

    auto signature = [&]() {
        DmtEngine engine(cfg, prog, &ck);
        engine.run();
        EXPECT_TRUE(engine.goldenOk()) << engine.goldenError();
        std::ostringstream os;
        os << engine.stats().cycles.value() << ":"
           << engine.stats().retired.value() << ":"
           << engine.stats().threads_spawned.value() << ":"
           << engine.stats().squashed_insts.value() << ":"
           << engine.stats().recoveries.value() << ":" << engine.now();
        return os.str();
    };
    EXPECT_EQ(signature(), signature());
}

TEST(Sampled, CoversWholeProgramAndStopsAtHalt)
{
    // No budget: the profile runs to HALT, so the run covers exactly
    // the program's length, and the headline IPC is the inverse of the
    // phase-weighted CPI estimate.
    SampleParams p;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("phase:20000:500:1500", &p, &err))
        << err;
    const SimConfig cfg = SimConfig::dmt(6, 2);

    const Program prog = buildWorkload("compress");
    ArchState st;
    MainMemory mem;
    st.reset(prog);
    mem.loadProgram(prog);
    const u64 length = runFunctional(st, mem, prog);

    clearCheckpointCache();
    const RunResult r = runWorkloadSampled(cfg, "compress", p);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.sampling.covered, length);
    EXPECT_EQ(r.sampling.phase_intervals, (length + 19999) / 20000);
    EXPECT_GE(r.sampling.intervals, 2u);
    EXPECT_EQ(r.sampling.intervals, r.sampling.records.size());
    EXPECT_GT(r.sampling.cpi_mean, 0.0);
    EXPECT_DOUBLE_EQ(r.ipc, 1.0 / r.sampling.cpi_mean);
    EXPECT_GE(r.sampling.cpi_ci95, 0.0);
    clearCheckpointCache();
}

TEST(Sampled, EnvKnobParsing)
{
    setenv("DMT_SAMPLE", "phase:1000:200:300", 1);
    SampleParams p = SampleParams::fromEnv();
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.phase.interval, 1000u);
    EXPECT_EQ(p.warm, 200u);
    EXPECT_EQ(p.measure, 300u);
    EXPECT_EQ(p.phase.max_k, PhaseParams{}.max_k);

    setenv("DMT_SAMPLE", "phase:1000:200:300:7", 1);
    p = SampleParams::fromEnv();
    EXPECT_EQ(p.phase.max_k, 7u);

    unsetenv("DMT_SAMPLE");
    EXPECT_FALSE(SampleParams::fromEnv().enabled());
}

} // namespace
} // namespace dmt

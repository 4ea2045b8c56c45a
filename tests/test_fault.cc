/**
 * @file
 * Fault-injection tests: every injection site corrupts *speculative*
 * state only, so a run with injection enabled must still converge to a
 * golden-checker-clean retirement stream purely through the paper's
 * recovery machinery (trace-buffer walks, final checks, join
 * validation, checkpoint restores).  Verified per site and as an
 * all-sites storm over the shared fuzz corpus, with the invariant
 * auditor riding along.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "dmt/engine.hh"
#include "fault/injector.hh"
#include "fuzz_corpus.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

Program
corpusProgram(int seed)
{
    ProgramFuzzer fuzzer(static_cast<u64>(seed) * 7919 + 17);
    return fuzzer.generate();
}

/** Run @p cfg on a corpus program; hard-assert golden cleanliness. */
void
runClean(const SimConfig &cfg, int seed, const char *what)
{
    const Program prog = corpusProgram(seed);
    const std::vector<u32> want = fuzzGolden(prog);
    DmtEngine e(cfg, prog);
    e.run();
    ASSERT_TRUE(e.programCompleted())
        << what << " seed " << seed << ": did not complete";
    ASSERT_TRUE(e.goldenOk())
        << what << " seed " << seed << ": " << e.goldenError();
    EXPECT_EQ(e.outputStream(), want) << what << " seed " << seed;
}

// ---------------------------------------------------------------------
// Per-site: moderate-rate injection at one site over several corpus
// programs must stay golden-clean and must actually fire.
// ---------------------------------------------------------------------

class FaultSiteTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FaultSiteTest, SingleSiteInjectionRetiresGoldenClean)
{
    const auto site = static_cast<FaultSite>(GetParam());
    u64 injected = 0;
    for (int seed = 0; seed < 6; ++seed) {
        const Program prog = corpusProgram(seed);
        const std::vector<u32> want = fuzzGolden(prog);

        SimConfig cfg = SimConfig::dmt(4, 2);
        cfg.fault.enabled = true;
        cfg.fault.seed = 0xF00D + static_cast<u64>(seed);
        cfg.fault.rate[GetParam()] = 0.05;

        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.programCompleted())
            << faultSiteName(site) << " seed " << seed;
        ASSERT_TRUE(e.goldenOk())
            << faultSiteName(site) << " seed " << seed << ": "
            << e.goldenError();
        EXPECT_EQ(e.outputStream(), want)
            << faultSiteName(site) << " seed " << seed;
        injected += e.faults().injected(site);
    }

    // The corpus programs are short; a real workload guarantees every
    // site (dataflow deliveries in particular) sees opportunities.
    {
        const Program prog = buildWorkload("go");
        SimConfig cfg = SimConfig::dmt(6, 2);
        cfg.max_retired = 20000;
        cfg.fault.enabled = true;
        cfg.fault.seed = 0xF00D;
        cfg.fault.rate[GetParam()] = 0.05;
        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.goldenOk())
            << faultSiteName(site) << " on go: " << e.goldenError();
        injected += e.faults().injected(site);
    }

    EXPECT_GT(injected, 0u)
        << faultSiteName(site)
        << ": no injection opportunity fired over the whole corpus";
}

INSTANTIATE_TEST_SUITE_P(
    Sites, FaultSiteTest, ::testing::Range(0, kNumFaultSites),
    [](const ::testing::TestParamInfo<int> &pinfo) {
        std::string n =
            faultSiteName(static_cast<FaultSite>(pinfo.param));
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ---------------------------------------------------------------------
// Storm: all five sites at >= 1%, seeded, over the fuzz corpus.  Must
// be golden-clean, and the repair work must show up as strictly more
// recovery walks than the fault-free runs.
// ---------------------------------------------------------------------

TEST(FaultStorm, AllSitesStormRetiresGoldenCleanViaRecovery)
{
    u64 walks_clean = 0;
    u64 walks_storm = 0;
    u64 injected = 0;

    for (int seed = 0; seed < 8; ++seed) {
        const Program prog = corpusProgram(seed);
        const std::vector<u32> want = fuzzGolden(prog);

        SimConfig cfg = SimConfig::dmt(6, 2);
        {
            DmtEngine e(cfg, prog);
            e.run();
            ASSERT_TRUE(e.goldenOk()) << "clean seed " << seed;
            walks_clean += e.stats().recovery_walk_hist.count();
        }

        // 3% per site: the corpus programs are short, so the 1%-floor
        // storm barely fires on them (the workload-scale 1% storm runs
        // below).
        cfg.fault.enabled = true;
        cfg.fault.seed = 0xBADD + static_cast<u64>(seed);
        cfg.fault.rateAll(0.03);
        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.programCompleted()) << "storm seed " << seed;
        ASSERT_TRUE(e.goldenOk())
            << "storm seed " << seed << ": " << e.goldenError();
        EXPECT_EQ(e.outputStream(), want) << "storm seed " << seed;
        walks_storm += e.stats().recovery_walk_hist.count();
        injected += e.faults().injectedTotal();
    }

    EXPECT_GT(injected, 0u) << "the storm never injected anything";
    EXPECT_GT(walks_storm, walks_clean)
        << "injected corruption must be repaired through recovery "
           "walks, not silently absorbed";
}

// Same all-site storm over the mixed corpus (fuzzCorpusProgram):
// seeded draws alternate between random programs and generated
// workload families, so recovery also faces queues, pointer chases
// and dispatch loops under injection.
TEST(FaultStorm, MixedCorpusStormRetiresGoldenClean)
{
    u64 injected = 0;
    for (int seed = 0; seed < 10; ++seed) {
        const Program prog =
            fuzzCorpusProgram(static_cast<u64>(seed) * 6271 + 5);
        const std::vector<u32> want = fuzzGolden(prog);

        SimConfig cfg = SimConfig::dmt(6, 2);
        cfg.fault.enabled = true;
        cfg.fault.seed = 0xD00D + static_cast<u64>(seed);
        cfg.fault.rateAll(0.03);
        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.programCompleted()) << "storm seed " << seed;
        ASSERT_TRUE(e.goldenOk())
            << "storm seed " << seed << ": " << e.goldenError();
        EXPECT_EQ(e.outputStream(), want) << "storm seed " << seed;
        injected += e.faults().injectedTotal();
    }
    EXPECT_GT(injected, 0u) << "the storm never injected anything";
}

// Workload-scale storm at the 1% floor: thousands of injections across
// every site on a real benchmark must still retire golden-clean.
TEST(FaultStorm, WorkloadStormAtOnePercentIsGoldenClean)
{
    const Program prog = buildWorkload("go");
    SimConfig cfg = SimConfig::dmt(6, 2);
    cfg.max_retired = 30000;
    cfg.fault.enabled = true;
    cfg.fault.seed = 0xC0FFEE;
    cfg.fault.rateAll(0.01);
    DmtEngine e(cfg, prog);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_GT(e.faults().injectedTotal(), 100u);
}

// The invariant auditor sweeps every engine structure each cycle while
// the storm rages: corruption must never produce an *illegal* state,
// only a repairable speculative one.
TEST(FaultStorm, AuditorStaysGreenUnderStorm)
{
    for (int seed = 0; seed < 3; ++seed) {
        SimConfig cfg = SimConfig::dmt(4, 2);
        cfg.fault.enabled = true;
        cfg.fault.seed = 42 + static_cast<u64>(seed);
        cfg.fault.rateAll(0.02);
        cfg.audit_period = 1;
        runClean(cfg, seed, "audited storm");
    }
}

// ---------------------------------------------------------------------
// Determinism: a (seed, rates) pair replays exactly.
// ---------------------------------------------------------------------

TEST(FaultInjector, SeededStormReplaysExactly)
{
    const Program prog = corpusProgram(3);
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.fault.enabled = true;
    cfg.fault.seed = 1234;
    cfg.fault.rateAll(0.02);

    DmtEngine a(cfg, prog);
    a.run();
    DmtEngine b(cfg, prog);
    b.run();

    EXPECT_EQ(a.faults().injectedTotal(), b.faults().injectedTotal());
    for (int s = 0; s < kNumFaultSites; ++s) {
        const auto site = static_cast<FaultSite>(s);
        EXPECT_EQ(a.faults().injected(site), b.faults().injected(site))
            << faultSiteName(site);
        EXPECT_EQ(a.faults().offered(site), b.faults().offered(site))
            << faultSiteName(site);
    }
    EXPECT_EQ(a.stats().cycles.value(), b.stats().cycles.value());
    EXPECT_EQ(a.outputStream(), b.outputStream());
}

TEST(FaultInjector, CorruptValueAlwaysChangesTheValue)
{
    FaultOptions opts;
    opts.enabled = true;
    opts.seed = 7;
    opts.rateAll(1.0);
    FaultInjector inj;
    inj.configure(opts);
    for (int i = 0; i < 1000; ++i) {
        const u32 v = static_cast<u32>(i) * 2654435761u;
        EXPECT_NE(inj.corruptValue(FaultSite::LoadValue, v), v);
    }
}

// ---------------------------------------------------------------------
// Fault specs ("sites[:rate=R][:seed=S]", the DMT_FAULT grammar).
// ---------------------------------------------------------------------

TEST(FaultInjector, EnvKnobsSelectSitesRateAndSeed)
{
    FaultOptions o;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("load-value,branch-prediction:rate=0.25:"
                               "seed=99", &o, &err)) << err;

    EXPECT_TRUE(o.enabled);
    EXPECT_EQ(o.seed, 99u);
    EXPECT_DOUBLE_EQ(
        o.rate[static_cast<int>(FaultSite::LoadValue)], 0.25);
    EXPECT_DOUBLE_EQ(
        o.rate[static_cast<int>(FaultSite::BranchPrediction)], 0.25);
    EXPECT_DOUBLE_EQ(o.rate[static_cast<int>(FaultSite::SpawnInput)],
                     0.0);
    EXPECT_DOUBLE_EQ(
        o.rate[static_cast<int>(FaultSite::DataflowValue)], 0.0);
    EXPECT_DOUBLE_EQ(
        o.rate[static_cast<int>(FaultSite::SpawnDecision)], 0.0);

    // "all" selects every site at the default rate; the seed is kept.
    FaultOptions a;
    a.seed = 5;
    ASSERT_TRUE(parseFaultSpec("all", &a, &err)) << err;
    EXPECT_TRUE(a.enabled);
    EXPECT_EQ(a.seed, 5u);
    for (double r : a.rate)
        EXPECT_DOUBLE_EQ(r, 0.01);
}

TEST(FaultInjector, EnvOffForcesInjectionOff)
{
    FaultOptions base;
    base.enabled = true;
    base.rateAll(0.5);
    std::string err;
    ASSERT_TRUE(parseFaultSpec("off", &base, &err)) << err;
    EXPECT_FALSE(base.enabled);
}

// Disabled injection is the default and must not perturb a run at all.
TEST(FaultInjector, DisabledInjectorIsInert)
{
    const Program prog = corpusProgram(1);
    SimConfig cfg = SimConfig::dmt(4, 2);
    DmtEngine e(cfg, prog);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_FALSE(e.faults().enabled());
    EXPECT_EQ(e.faults().injectedTotal(), 0u);
}

} // namespace
} // namespace dmt

/**
 * @file
 * Differential conformance over the seeded workload generator: every
 * (family, seed) scenario emits a fresh program, runs it through the
 * functional core, the baseline superscalar, the dmt6 machine and a
 * fault-storm dmt6, and demands instruction-exact agreement of the
 * final architectural state (retired count, all registers, OUT
 * stream, memory pages) plus golden-clean recovery.  On top of the
 * state checks: canonical RunResult hashes must be stable across
 * reruns and across spec spellings, and generated programs must
 * survive the ISA encode/decode round trip.
 *
 * Scenario count: all families x DMT_CONF_SEEDS seeds (default 15,
 * i.e. 105 scenarios; CI smoke uses 2).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/env.hh"
#include "common/rng.hh"
#include "exp/conformance.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "isa/encoding.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

/** Seeds per family (strict parse: garbage in the env is fatal). */
int
seedsPerFamily()
{
    static const int n = [] {
        const u64 v = parseEnvU64("DMT_CONF_SEEDS", 0);
        return v > 0 ? static_cast<int>(v) : 15;
    }();
    return n;
}

/**
 * Scenario knobs, derived deterministically from (family, seed) so the
 * sweep covers the knob space instead of pinning defaults.  Bounded so
 * each program retires a few hundred to a few tens of thousands of
 * instructions — long enough to spawn threads, short enough that a
 * hundred scenarios stay fast.
 */
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

// ---- the scenario sweep ------------------------------------------------

class GenConformance : public ::testing::TestWithParam<int>
{
};

TEST_P(GenConformance, FunctionalAndDetailedAgreeExactly)
{
    const int family_idx = GetParam() / seedsPerFamily();
    const u64 seed =
        static_cast<u64>(GetParam() % seedsPerFamily()) + 1;
    const GenParams p = scenarioParams(family_idx, seed);
    const std::string spec = p.canonicalSpec();

    ConformanceOptions opts;
    opts.fault_rate = 0.03;
    opts.fault_seed = 0xF00D + seed;
    const ConformanceReport rep = checkConformance(spec, opts);
    EXPECT_TRUE(rep.ok) << rep.detail;
    EXPECT_GT(rep.functional_steps, 0u) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Families, GenConformance,
    ::testing::Range(0, static_cast<int>(genFamilies().size())
                            * seedsPerFamily()),
    [](const ::testing::TestParamInfo<int> &param_info) {
        const int fam = param_info.param / seedsPerFamily();
        const int seed = param_info.param % seedsPerFamily() + 1;
        return std::string(
                   genFamilies()[static_cast<size_t>(fam)].name)
            + "_s" + std::to_string(seed);
    });

// ---- determinism and identity ------------------------------------------

class GenFamilyCase : public ::testing::TestWithParam<int>
{
  protected:
    GenParams
    params() const
    {
        GenParams p;
        p.family = genFamilies()[static_cast<size_t>(GetParam())].name;
        p.seed = 42;
        return p;
    }
};

TEST_P(GenFamilyCase, ProgramEmissionIsDeterministic)
{
    const GenParams p = params();
    const Program a = buildGenWorkload(p);
    const Program b = buildGenWorkload(p.canonicalSpec());
    ASSERT_EQ(a.text.size(), b.text.size());
    for (size_t i = 0; i < a.text.size(); ++i)
        ASSERT_EQ(a.text[i], b.text[i]) << "instruction " << i;
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.entry, b.entry);
}

TEST_P(GenFamilyCase, ProgramsSurviveEncodeDecodeRoundTrip)
{
    const Program prog = buildGenWorkload(params());
    for (const Instruction &inst : prog.text) {
        u32 word = 0;
        std::string err;
        ASSERT_TRUE(encodeInst(inst, &word, &err)) << err;
        EXPECT_EQ(decodeInst(word), inst);
    }
}

TEST_P(GenFamilyCase, CanonicalHashesAreStableAcrossRerunsAndSpellings)
{
    const GenParams p = params();
    const SimConfig cfg = SimConfig::dmt(4, 2);
    const RunResult a =
        runWorkloadJob(cfg, p.canonicalSpec(), 20000, SampleParams{});
    const RunResult b =
        runWorkloadJob(cfg, p.canonicalSpec(), 20000, SampleParams{});
    EXPECT_EQ(a.jsonString(), b.jsonString());
    EXPECT_EQ(canonicalHash(a), canonicalHash(b));

    // A minimal spelling (defaulted knobs) is the same workload: the
    // runner canonicalizes, so the bytes — including the embedded
    // workload name — must be identical.
    const std::string minimal = "gen:" + p.family + ":42";
    const RunResult c =
        runWorkloadJob(cfg, minimal, 20000, SampleParams{});
    EXPECT_EQ(c.workload, p.canonicalSpec());
    EXPECT_EQ(a.jsonString(), c.jsonString());
}

INSTANTIATE_TEST_SUITE_P(
    Families, GenFamilyCase,
    ::testing::Range(0, static_cast<int>(genFamilies().size())),
    [](const ::testing::TestParamInfo<int> &param_info) {
        return std::string(
            genFamilies()[static_cast<size_t>(param_info.param)].name);
    });

// ---- suite workloads conform too ---------------------------------------

TEST(SuiteConformance, MicrokernelScaleSuiteMembersConform)
{
    // The full suite kernels run millions of instructions; the
    // conformance contract is cheap to prove on the go kernel, whose
    // full run fits the test budget comfortably.
    ConformanceOptions opts;
    opts.max_steps = 20'000'000;
    const ConformanceReport rep = checkConformance("go", opts);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

} // namespace
} // namespace dmt

/**
 * @file
 * Checked environment-knob parsing: the strict numeric parsers behind
 * every DMT_* knob must reject trailing garbage and overflow instead
 * of silently truncating (the old strtoull/atoi behaviour), and the
 * env readers must fatal() on malformed values rather than quietly
 * measuring the wrong configuration.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

TEST(ParseU64, AcceptsPlainDecimal)
{
    u64 v = 0;
    EXPECT_TRUE(parseU64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("60000", &v));
    EXPECT_EQ(v, 60000u);
    EXPECT_TRUE(parseU64("18446744073709551615", &v));
    EXPECT_EQ(v, ~u64{0});
    EXPECT_TRUE(parseU64("  42  ", &v)) << "surrounding whitespace ok";
    EXPECT_EQ(v, 42u);
}

TEST(ParseU64, RejectsTrailingGarbage)
{
    u64 v = 0;
    EXPECT_FALSE(parseU64("60k", &v));
    EXPECT_FALSE(parseU64("60 000", &v));
    EXPECT_FALSE(parseU64("1e6", &v));
    EXPECT_FALSE(parseU64("0x10", &v));
    EXPECT_FALSE(parseU64("12.5", &v));
    EXPECT_FALSE(parseU64("", &v));
    EXPECT_FALSE(parseU64("   ", &v));
    EXPECT_FALSE(parseU64("abc", &v));
}

TEST(ParseU64, RejectsSignAndOverflow)
{
    u64 v = 0;
    EXPECT_FALSE(parseU64("-1", &v));
    EXPECT_FALSE(parseU64("+1", &v));
    // One past 2^64 - 1.
    EXPECT_FALSE(parseU64("18446744073709551616", &v));
    EXPECT_FALSE(parseU64("99999999999999999999999", &v));
}

TEST(ParseF64, AcceptsAndRejects)
{
    double v = 0.0;
    EXPECT_TRUE(parseF64("0.01", &v));
    EXPECT_DOUBLE_EQ(v, 0.01);
    EXPECT_TRUE(parseF64("1e-3", &v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseF64(" 2.5 ", &v));
    EXPECT_FALSE(parseF64("0.01x", &v));
    EXPECT_FALSE(parseF64("", &v));
    EXPECT_FALSE(parseF64("nan", &v)) << "must stay finite";
    EXPECT_FALSE(parseF64("inf", &v));
    EXPECT_FALSE(parseF64("1e999", &v)) << "overflows to inf";
}

TEST(ParseEnv, UnsetAndEmptyYieldDefault)
{
    unsetenv("DMT_TEST_KNOB");
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 123), 123u);
    setenv("DMT_TEST_KNOB", "", 1);
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 123), 123u);
    EXPECT_DOUBLE_EQ(parseEnvF64("DMT_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnv, ReadsValidValues)
{
    setenv("DMT_TEST_KNOB", "777", 1);
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 1), 777u);
    setenv("DMT_TEST_KNOB", "0.25", 1);
    EXPECT_DOUBLE_EQ(parseEnvF64("DMT_TEST_KNOB", 0.0, 0.0, 1.0), 0.25);
    unsetenv("DMT_TEST_KNOB");
}

using ParseEnvDeath = ::testing::Test;

TEST(ParseEnvDeath, GarbageIsFatal)
{
    setenv("DMT_TEST_KNOB", "60k", 1);
    EXPECT_DEATH(parseEnvU64("DMT_TEST_KNOB", 1),
                 "not a valid unsigned integer");
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnvDeath, OverflowIsFatal)
{
    setenv("DMT_TEST_KNOB", "18446744073709551616", 1);
    EXPECT_DEATH(parseEnvU64("DMT_TEST_KNOB", 1),
                 "not a valid unsigned integer");
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnvDeath, RangeIsEnforced)
{
    setenv("DMT_TEST_KNOB", "2000", 1);
    EXPECT_DEATH(parseEnvU64("DMT_TEST_KNOB", 1, 1, 1024),
                 "out of range");
    setenv("DMT_TEST_KNOB", "1.5", 1);
    EXPECT_DEATH(parseEnvF64("DMT_TEST_KNOB", 0.0, 0.0, 1.0),
                 "out of range");
    unsetenv("DMT_TEST_KNOB");
}

TEST(BenchRunLength, ChecksItsKnob)
{
    setenv("DMT_BENCH_INSTR", "2000", 1);
    EXPECT_EQ(benchRunLength(), 2000u);
    setenv("DMT_BENCH_INSTR", "0", 1);
    EXPECT_EQ(benchRunLength(), 60000u) << "0 selects the default";
    unsetenv("DMT_BENCH_INSTR");
    EXPECT_EQ(benchRunLength(), 60000u);
}

TEST(BenchRunLengthDeath, TrailingGarbageIsFatal)
{
    setenv("DMT_BENCH_INSTR", "60000x", 1);
    EXPECT_DEATH(benchRunLength(), "DMT_BENCH_INSTR");
    unsetenv("DMT_BENCH_INSTR");
}

// ---------------------------------------------------------------------
// DMT_SAMPLE spec parsing: the strict non-fatal SampleParams::parse()
// layer under fromEnv(), and the canonical rendering that names a
// sampled run.  The spec is the only sampling input.
// ---------------------------------------------------------------------

TEST(SampleSpec, PhaseParsesAndCanonicalizes)
{
    SampleParams p;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("phase:20000:500:1500", &p, &err))
        << err;
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.phase.interval, 20000u);
    EXPECT_EQ(p.warm, 500u);
    EXPECT_EQ(p.measure, 1500u);
    EXPECT_EQ(p.phase.max_k, 8u) << "documented default";
    EXPECT_EQ(p.phase.dims, 16u);
    EXPECT_EQ(p.phase.seed, 42u);
    // Canonical form is always fully explicit: two specs that behave
    // identically must render identically.
    EXPECT_EQ(p.canonicalSpec(), "phase:20000:500:1500:8:16:42");

    SampleParams q;
    ASSERT_TRUE(SampleParams::parse("phase:1:2:3:4:5:6", &q, &err))
        << err;
    EXPECT_EQ(q.phase.max_k, 4u);
    EXPECT_EQ(q.phase.dims, 5u);
    EXPECT_EQ(q.phase.seed, 6u);
    EXPECT_EQ(q.canonicalSpec(), "phase:1:2:3:4:5:6");

    // Canonical specs round-trip through parse unchanged.
    SampleParams r;
    ASSERT_TRUE(SampleParams::parse(p.canonicalSpec(), &r, &err)) << err;
    EXPECT_EQ(r.canonicalSpec(), p.canonicalSpec());

    // Disabled renders as "off".
    EXPECT_EQ(SampleParams{}.canonicalSpec(), "off");
    SampleParams off;
    ASSERT_TRUE(SampleParams::parse("", &off, &err)) << err;
    EXPECT_FALSE(off.enabled());
}

TEST(SampleSpec, PhaseRejectionsAreStructuredErrors)
{
    const struct
    {
        const char *spec;
        const char *needle; ///< must appear in the error message
    } cases[] = {
        {"phase:1:2", "phase:interval:warm:measure"},
        {"phase:1:2:3:4:5:6:7", "phase:interval:warm:measure"},
        {"phase:1x:2:3", "bad sample spec field"},
        {"phase:1:2:3x", "bad sample spec field"},
        {"phase:0:2:3", "interval length must be > 0"},
        {"phase:100:5:0", "measure window must be > 0"},
        {"phase:100:5:10:0", "maxk must be 1..64"},
        {"phase:100:5:10:65", "maxk must be 1..64"},
        {"phase:100:5:10:8:0", "dims must be 1..256"},
        {"phase:100:5:10:8:257", "dims must be 1..256"},
        // Anything without the phase: prefix is answered with the
        // grammar.
        {"1000:100", "phase:interval:warm:measure"},
        {"1:2:3:4:5", "phase:interval:warm:measure"},
        {"a:b:c", "phase:interval:warm:measure"},
        {"phases:1:2:3", "phase:interval:warm:measure"},
    };
    for (const auto &c : cases) {
        SampleParams p;
        std::string err;
        EXPECT_FALSE(SampleParams::parse(c.spec, &p, &err)) << c.spec;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.spec << " -> \"" << err << "\"";
    }

    // A null err sink must be tolerated (callers that only branch).
    SampleParams p;
    EXPECT_FALSE(SampleParams::parse("phase:0:1:2", &p, nullptr));
}

TEST(SampleEnv, PhaseKnobsFillOnlyOmittedFields)
{
    // Omitted trailing fields take the PhaseParams defaults; explicit
    // fields always win; fromEnv() reads DMT_SAMPLE and nothing else,
    // so it agrees with parse() on the same spec.
    const PhaseParams defaults;
    setenv("DMT_SAMPLE", "phase:20000:500:1500", 1);
    SampleParams p = SampleParams::fromEnv();
    EXPECT_EQ(p.phase.max_k, defaults.max_k);
    EXPECT_EQ(p.phase.dims, defaults.dims);
    EXPECT_EQ(p.phase.seed, defaults.seed);

    setenv("DMT_SAMPLE", "phase:20000:500:1500:9", 1);
    p = SampleParams::fromEnv();
    EXPECT_EQ(p.phase.max_k, 9u);
    EXPECT_EQ(p.phase.dims, defaults.dims);
    EXPECT_EQ(p.phase.seed, defaults.seed);

    setenv("DMT_SAMPLE", "phase:20000:500:1500:9:8:1", 1);
    p = SampleParams::fromEnv();
    EXPECT_EQ(p.phase.max_k, 9u);
    EXPECT_EQ(p.phase.dims, 8u);
    EXPECT_EQ(p.phase.seed, 1u);

    SampleParams q;
    std::string err;
    ASSERT_TRUE(SampleParams::parse("phase:20000:500:1500:9:8:1", &q,
                                    &err)) << err;
    EXPECT_EQ(q.canonicalSpec(), p.canonicalSpec());
    unsetenv("DMT_SAMPLE");
}

TEST(SampleEnvDeath, PhaseGarbageAndRangeAreFatal)
{
    setenv("DMT_SAMPLE", "phase:abc:1:2", 1);
    EXPECT_DEATH(SampleParams::fromEnv(), "DMT_SAMPLE");
    setenv("DMT_SAMPLE", "phase:0:1:2", 1);
    EXPECT_DEATH(SampleParams::fromEnv(), "interval length");
    setenv("DMT_SAMPLE", "phase:100:5:10:99", 1);
    EXPECT_DEATH(SampleParams::fromEnv(), "maxk");
    setenv("DMT_SAMPLE", "phase:100:5:10:8:257", 1);
    EXPECT_DEATH(SampleParams::fromEnv(), "dims");
    setenv("DMT_SAMPLE", "phase:100:5:10:8:16:4two", 1);
    EXPECT_DEATH(SampleParams::fromEnv(), "bad sample spec field");
    unsetenv("DMT_SAMPLE");
}

TEST(SampleEnvDeath, UniformSpecIsRejected)
{
    // The retired skip:warm:measure grammar is an error that names the
    // phase: grammar, never a silently different run.
    SampleParams p;
    std::string err;
    EXPECT_FALSE(SampleParams::parse("1000:200:300", &p, &err));
    EXPECT_NE(err.find("phase:interval:warm:measure"), std::string::npos)
        << err;
    EXPECT_FALSE(p.enabled());

    setenv("DMT_SAMPLE", "1000:200:300", 1);
    EXPECT_DEATH(SampleParams::fromEnv(),
                 "DMT_SAMPLE=\"1000:200:300\".*phase:interval");
    unsetenv("DMT_SAMPLE");
}

// ---------------------------------------------------------------------
// gen:<family>:<seed> workload-spec parsing: parseGenSpec() is the
// strict non-fatal layer; buildWorkload() and canonicalWorkloadName()
// wrap it with fatal() for the local CLI.
// ---------------------------------------------------------------------

TEST(GenSpec, CanonicalSpecRoundTripsThroughParse)
{
    for (const GenFamilyInfo &fam : genFamilies()) {
        GenParams p;
        p.family = fam.name;
        p.seed = 97;
        p.depth = 6;
        p.trips = 33;
        p.entropy = 12;
        p.alias = 88;
        p.units = 40;

        GenParams q;
        std::string err;
        ASSERT_TRUE(parseGenSpec(p.canonicalSpec(), &q, &err))
            << fam.name << ": " << err;
        EXPECT_EQ(q.family, p.family);
        EXPECT_EQ(q.seed, p.seed);
        EXPECT_EQ(q.depth, p.depth);
        EXPECT_EQ(q.trips, p.trips);
        EXPECT_EQ(q.entropy, p.entropy);
        EXPECT_EQ(q.alias, p.alias);
        EXPECT_EQ(q.units, p.units);
        EXPECT_EQ(q.canonicalSpec(), p.canonicalSpec());
    }

    // The minimal spelling parses to the documented knob defaults and
    // canonicalizes to the fully explicit form.
    GenParams q;
    std::string err;
    ASSERT_TRUE(parseGenSpec("gen:loopnest:5", &q, &err)) << err;
    EXPECT_EQ(q.canonicalSpec(),
              "gen:loopnest:5:alias=25:depth=4:entropy=50:trips=8:"
              "units=16");
}

TEST(GenSpec, IsGenSpecOnlyMatchesThePrefix)
{
    EXPECT_TRUE(isGenSpec("gen:loopnest:1"));
    EXPECT_TRUE(isGenSpec("  gen:branchy:7:trips=3  "));
    EXPECT_FALSE(isGenSpec("go"));
    EXPECT_FALSE(isGenSpec("general"));
    EXPECT_FALSE(isGenSpec(""));
}

TEST(GenSpec, EveryRejectionClassYieldsAStructuredError)
{
    const struct
    {
        const char *spec;
        const char *needle; ///< must appear in the error message
    } cases[] = {
        {"gen", "must be gen:<family>:<seed>"},
        {"gen:loopnest", "must be gen:<family>:<seed>"},
        {"gen:nosuchfamily:1", "unknown workload family"},
        {"gen:nosuchfamily:1", "loopnest"}, // lists the families
        {"gen::1", "unknown workload family"},
        {"gen:loopnest:xyz", "bad seed"},
        {"gen:loopnest:3junk", "bad seed"},
        {"gen:loopnest:1:trips", "need knob=value"},
        {"gen:loopnest:1:=5", "need knob=value"},
        {"gen:loopnest:1:speed=5", "unknown knob"},
        {"gen:loopnest:1:trips=4:trips=5", "duplicate knob"},
        {"gen:loopnest:1:trips=4x", "bad value"},
        {"gen:loopnest:1:depth=3junk", "bad value"},
        {"gen:loopnest:1:trips=0", "out of range"},
        {"gen:loopnest:1:trips=999999999", "out of range"},
        {"gen:loopnest:1:", "need knob=value"}, // trailing colon
    };
    for (const auto &c : cases) {
        GenParams p;
        std::string err;
        EXPECT_FALSE(parseGenSpec(c.spec, &p, &err)) << c.spec;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.spec << " -> \"" << err << "\"";
    }

    // A null err sink must be tolerated (callers that only branch).
    GenParams p;
    EXPECT_FALSE(parseGenSpec("gen:loopnest:xyz", &p, nullptr));
}

TEST(GenSpecDeath, MalformedSpecsAreFatalInTheLocalCli)
{
    EXPECT_DEATH(buildWorkload("gen:nosuchfamily:1"),
                 "unknown workload family");
    EXPECT_DEATH(buildGenWorkload(std::string("gen:loopnest:1:trips=0")),
                 "out of range");
    EXPECT_DEATH(canonicalWorkloadName("gen:loopnest:xyz"), "bad seed");
}

} // namespace
} // namespace dmt

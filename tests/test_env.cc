/**
 * @file
 * Checked environment-knob parsing: the strict numeric parsers behind
 * every DMT_* knob must reject trailing garbage and overflow instead
 * of silently truncating (the old strtoull/atoi behaviour), and the
 * env readers must fatal() on malformed values rather than quietly
 * measuring the wrong configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/env.hh"
#include "common/stats.hh"
#include "dmt/engine.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"
#include "fault/injector.hh"
#include "trace/tracer.hh"
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
    unsetenv("DMT_TEST_KNOB");
}

TEST(ParseEnv, ReadsValidValues)
{
    setenv("DMT_TEST_KNOB", "777", 1);
    EXPECT_EQ(parseEnvU64("DMT_TEST_KNOB", 1), 777u);
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
// Fault and trace specs (the DMT_FAULT / DMT_TRACE grammars):
// parseFaultSpec()/parseTraceSpec() are the strict non-fatal layer;
// withEnvKnobs() wraps them with fatal() at the harness boundary.
// ---------------------------------------------------------------------

TEST(FaultSpec, RejectionsAreStructuredErrors)
{
    const struct
    {
        const char *spec;
        const char *needle; ///< must appear in the error message
    } cases[] = {
        {"load_value", "unknown fault site 'load_value'"},
        {"load-value,,branch-prediction", "unknown fault site ''"},
        {"", "unknown fault site ''"},
        {"all:rate=abc", "fault rate must be a number in [0, 1]"},
        {"all:rate=1.5", "fault rate must be a number in [0, 1]"},
        {"all:rate=-0.1", "fault rate must be a number in [0, 1]"},
        {"all:rate", "fault rate must be a number in [0, 1]"},
        {"all:seed=4two", "bad fault seed"},
        {"all:speed=3", "unknown fault field 'speed=3'"},
        {"all:", "unknown fault field ''"},
    };
    for (const auto &c : cases) {
        FaultOptions o;
        o.seed = 3;
        std::string err;
        EXPECT_FALSE(parseFaultSpec(c.spec, &o, &err)) << c.spec;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.spec << " -> \"" << err << "\"";
        EXPECT_FALSE(o.enabled) << "a rejected spec leaves out alone";
        EXPECT_EQ(o.seed, 3u);
    }
    FaultOptions o;
    EXPECT_FALSE(parseFaultSpec("load_value", &o, nullptr));
}

TEST(TraceSpec, RejectionsAreStructuredErrors)
{
    const struct
    {
        const char *spec;
        const char *needle;
    } cases[] = {
        {"chrom", "unknown trace sink 'chrom'"},
        {"", "unknown trace sink ''"},
        {"chrome:file=out/a:b.json", "file paths may not contain ':'"},
        {"chrome:file=", "is not key=value"},
        {"counters:sample=0", "trace sample must be an integer"},
        {"counters:sample=32x", "trace sample must be an integer"},
        {"ring:ring=1073741825", "trace ring must be an integer"},
        {"ring:depth=3", "unknown trace field 'depth'"},
    };
    for (const auto &c : cases) {
        TraceOptions o;
        std::string err;
        EXPECT_FALSE(parseTraceSpec(c.spec, &o, &err)) << c.spec;
        EXPECT_NE(err.find(c.needle), std::string::npos)
            << c.spec << " -> \"" << err << "\"";
        EXPECT_FALSE(o.enabled) << "a rejected spec leaves out alone";
    }
}

TEST(TraceSpec, RingFieldAlwaysSelectsTheRingSink)
{
    // ring=N selects the ring sink even when N is the default capacity
    // (4096), next to any other sink.
    TraceOptions o;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("chrome:ring=4096", &o, &err)) << err;
    EXPECT_TRUE(o.chrome);
    EXPECT_TRUE(o.ring);
    EXPECT_EQ(o.ring_capacity, 4096);

    setenv("DMT_TRACE", "chrome:ring=4096", 1);
    const SimConfig cfg = withEnvKnobs(SimConfig::dmt(4, 2));
    unsetenv("DMT_TRACE");
    EXPECT_TRUE(cfg.trace.enabled);
    EXPECT_TRUE(cfg.trace.chrome);
    EXPECT_TRUE(cfg.trace.ring);
    EXPECT_EQ(cfg.trace.ring_capacity, 4096);
}

TEST(HarnessEnv, WithEnvKnobsReadsEveryRunControlKnob)
{
    setenv("DMT_FAULT", "spawn-input:rate=0.5:seed=9", 1);
    setenv("DMT_TRACE", "counters:counters_file=c.json:sample=64", 1);
    setenv("DMT_WATCHDOG", "1234", 1);
    setenv("DMT_AUDIT", "7", 1);
    setenv("DMT_CRASH_FILE", "", 1);
    const SimConfig cfg = withEnvKnobs(SimConfig::dmt(4, 2));
    for (const char *v : {"DMT_FAULT", "DMT_TRACE", "DMT_WATCHDOG",
                          "DMT_AUDIT", "DMT_CRASH_FILE"})
        unsetenv(v);

    EXPECT_TRUE(cfg.fault.enabled);
    EXPECT_EQ(cfg.fault.seed, 9u);
    EXPECT_DOUBLE_EQ(
        cfg.fault.rate[static_cast<int>(FaultSite::SpawnInput)], 0.5);
    EXPECT_TRUE(cfg.trace.enabled);
    EXPECT_TRUE(cfg.trace.counters);
    EXPECT_EQ(cfg.trace.counters_file, "c.json");
    EXPECT_EQ(cfg.trace.sample_period, 64);
    EXPECT_EQ(cfg.watchdog_cycles, 1234u);
    EXPECT_EQ(cfg.audit_period, 7);
    EXPECT_EQ(cfg.crash_file, "") << "empty DMT_CRASH_FILE: no file";

    // Unset knobs leave the config as given.
    const SimConfig same = withEnvKnobs(SimConfig::dmt(4, 2));
    EXPECT_FALSE(same.fault.enabled);
    EXPECT_FALSE(same.trace.enabled);
    EXPECT_EQ(same.watchdog_cycles, SimConfig{}.watchdog_cycles);
    EXPECT_EQ(same.crash_file, SimConfig{}.crash_file);
}

// The engine is a pure function of (SimConfig, Program, Checkpoint*):
// the run-control knobs reach it only through withEnvKnobs().
TEST(HarnessEnv, EngineReadsNoEnvironment)
{
    const Program prog = buildWorkload("go");
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.max_retired = 3000;
    const auto dump = [](const DmtEngine &e) {
        StatGroup g("dmt");
        e.stats().registerAll(g);
        return g.dump();
    };

    DmtEngine clean(cfg, prog);
    clean.run();
    ASSERT_TRUE(clean.goldenOk()) << clean.goldenError();

    const std::string trace_file =
        ::testing::TempDir() + "dmt_env_engine_trace.json";
    std::remove(trace_file.c_str());
    setenv("DMT_FAULT", "all:rate=0.5", 1);
    setenv("DMT_TRACE", ("chrome:file=" + trace_file).c_str(), 1);
    setenv("DMT_AUDIT", "1", 1);
    setenv("DMT_WATCHDOG", "1", 1);
    std::string under_env;
    {
        DmtEngine e(cfg, prog);
        e.run();
        ASSERT_TRUE(e.goldenOk()) << e.goldenError();
        EXPECT_FALSE(e.faults().enabled());
        EXPECT_EQ(e.faults().injectedTotal(), 0u);
        EXPECT_FALSE(e.tracer().enabled());
        under_env = dump(e);
    }
    for (const char *v : {"DMT_FAULT", "DMT_TRACE", "DMT_AUDIT",
                          "DMT_WATCHDOG"})
        unsetenv(v);

    EXPECT_EQ(under_env, dump(clean));
    EXPECT_FALSE(std::filesystem::exists(trace_file))
        << "an engine built from a default SimConfig wrote a trace";
}

// Companion: the same DMT_FAULT does reach runs through the harness.
TEST(HarnessEnv, RunWorkloadAppliesTheFaultKnob)
{
    const SimConfig cfg = SimConfig::dmt(4, 2);
    const RunResult clean = runWorkload(cfg, "go", 3000);

    setenv("DMT_FAULT", "all:rate=0.5", 1);
    const RunResult storm = runWorkload(cfg, "go", 3000);
    const SimConfig storm_cfg = withEnvKnobs(cfg);
    unsetenv("DMT_FAULT");

    // runWorkload() golden-checks, so the storm retired clean; flipped
    // branch predictions show up as extra mispredictions.
    EXPECT_GT(storm.stats.cond_mispredicts.value(),
              clean.stats.cond_mispredicts.value());

    const Program prog = buildWorkload("go");
    SimConfig run_cfg = storm_cfg;
    run_cfg.max_retired = 3000;
    DmtEngine e(run_cfg, prog);
    e.run();
    ASSERT_TRUE(e.goldenOk()) << e.goldenError();
    EXPECT_GT(e.faults().injectedTotal(), 0u);
}

using HarnessEnvDeath = ::testing::Test;

TEST(HarnessEnvDeath, MisspelledFaultSiteOrTraceSinkIsFatal)
{
    // A misspelling must not run a "storm" that injects nothing, or a
    // trace that records nothing, and exit 0.
    const SimConfig cfg = SimConfig::dmt(4, 2);
    setenv("DMT_FAULT", "load_value", 1);
    EXPECT_DEATH(runWorkload(cfg, "go", 1000),
                 "DMT_FAULT=\"load_value\": unknown fault site");
    unsetenv("DMT_FAULT");

    setenv("DMT_TRACE", "chrom", 1);
    EXPECT_DEATH(runWorkload(cfg, "go", 1000),
                 "DMT_TRACE=\"chrom\": unknown trace sink");
    unsetenv("DMT_TRACE");

    setenv("DMT_FAULT", "all:rate=2", 1);
    EXPECT_DEATH(withEnvKnobs(cfg), "DMT_FAULT=.*in \\[0, 1\\]");
    unsetenv("DMT_FAULT");

    setenv("DMT_AUDIT", "often", 1);
    EXPECT_DEATH(withEnvKnobs(cfg), "DMT_AUDIT");
    unsetenv("DMT_AUDIT");
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

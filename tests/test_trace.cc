/**
 * @file
 * Telemetry subsystem tests: the JSON writer/parser pair, sink
 * behaviour (ring bounds, counters tallies), the dead-disabled emit
 * path, per-thread event ordering, and Chrome trace-event export
 * (parseable document, per-context tracks, balanced duration slices,
 * JSON round-trip through the writer).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "common/json.hh"
#include "dmt/engine.hh"
#include "trace/chrome_sink.hh"
#include "trace/counters_sink.hh"
#include "trace/ring_sink.hh"
#include "trace/tracer.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

SimConfig
dmtCfg()
{
    SimConfig cfg = SimConfig::dmt(4, 2);
    cfg.max_cycles = 2'000'000;
    return cfg;
}

// ---- JSON writer/parser ------------------------------------------------

TEST(JsonWriter, WritesNestedStructures)
{
    JsonWriter w;
    w.beginObject();
    w.key("s").value("he\"llo\n");
    w.key("i").value(-3);
    w.key("u").value(u64{18446744073709551615ull});
    w.key("d").value(1.5);
    w.key("b").value(true);
    w.key("n").nullValue();
    w.key("a").beginArray().value(1).value(2).endArray();
    w.key("o").beginObject().endObject();
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"s\":\"he\\\"llo\\n\",\"i\":-3,"
              "\"u\":18446744073709551615,\"d\":1.5,\"b\":true,"
              "\"n\":null,\"a\":[1,2],\"o\":{}}");
}

TEST(JsonValue, ParsesWhatTheWriterProduces)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("dmt");
    w.key("vals").beginArray().value(1).value(2.25).endArray();
    w.endObject();

    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(w.str(), &v, &err)) << err;
    ASSERT_EQ(v.type(), JsonValue::Type::Object);
    const JsonValue *name = v.find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->asString(), "dmt");
    const JsonValue *vals = v.find("vals");
    ASSERT_NE(vals, nullptr);
    ASSERT_EQ(vals->elements().size(), 2u);
    EXPECT_DOUBLE_EQ(vals->elements()[1].asNumber(), 2.25);
}

TEST(JsonValue, RejectsMalformedInput)
{
    JsonValue v;
    EXPECT_FALSE(JsonValue::parse("{\"a\":}", &v));
    EXPECT_FALSE(JsonValue::parse("[1,2", &v));
    EXPECT_FALSE(JsonValue::parse("", &v));
    EXPECT_FALSE(JsonValue::parse("{} trailing", &v));
}

TEST(JsonValue, RoundTripsThroughDump)
{
    const char *doc =
        "{\"a\":[1,2.5,\"x\",null,true],\"b\":{\"c\":-7}}";
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(doc, &v));
    const std::string once = v.dump();
    JsonValue v2;
    ASSERT_TRUE(JsonValue::parse(once, &v2));
    EXPECT_EQ(once, v2.dump());
}

// ---- StatGroup JSON ----------------------------------------------------

TEST(StatGroupJson, SerializesCountersAveragesHistograms)
{
    Counter c;
    ++c;
    ++c;
    Average a;
    a.sample(1.0);
    a.sample(3.0);
    Histogram h(0.0, 10.0, 5);
    h.sample(1.0);
    h.sample(9.0);

    StatGroup g("t");
    g.addCounter("c", &c, "a counter");
    g.addAverage("a", &a, "an average");
    g.addHistogram("h", &h, "a histogram");

    // The text dump must include the histogram too.
    EXPECT_NE(g.dump().find("t.h"), std::string::npos);

    JsonWriter w;
    g.jsonOn(w);
    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(w.str(), &v, &err)) << err;
    EXPECT_DOUBLE_EQ(v.find("counters")->find("c")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(
        v.find("averages")->find("a")->find("mean")->asNumber(), 2.0);
    const JsonValue *hist = v.find("histograms")->find("h");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("total")->asNumber(), 2.0);
    EXPECT_EQ(hist->find("buckets")->elements().size(), 5u);
}

// ---- ring sink ---------------------------------------------------------

TEST(RingSink, BoundsMemoryAndKeepsNewest)
{
    RingSink ring(4);
    for (u64 i = 0; i < 10; ++i) {
        TraceEvent e;
        e.cycle = i;
        ring.event(e);
    }
    EXPECT_EQ(ring.captured(), 10u);
    ASSERT_EQ(ring.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).cycle, 6u + i);
}

// ---- disabled path -----------------------------------------------------

TEST(TraceDisabled, NoEventsReachSinksWhenDisabled)
{
    const Program prog = mkFibRecursive(8);
    DmtEngine engine(dmtCfg(), prog);

    auto sink = std::make_unique<RingSink>(1024);
    RingSink *ring = sink.get();
    engine.tracer().addSink(std::move(sink));
    engine.tracer().setEnabled(false);
    ASSERT_FALSE(engine.tracer().enabled());

    engine.run();
    ASSERT_TRUE(engine.programCompleted());
    EXPECT_EQ(ring->captured(), 0u);
}

TEST(TraceDisabled, DefaultConfigTracesNothing)
{
    const Program prog = mkFibRecursive(6);
    DmtEngine engine(dmtCfg(), prog);
    EXPECT_FALSE(engine.tracer().enabled());
    EXPECT_EQ(engine.tracer().ring(), nullptr);
    engine.run();
    ASSERT_TRUE(engine.programCompleted());
}

// ---- event stream sanity ----------------------------------------------

TEST(TraceEvents, PerThreadCyclesAreMonotone)
{
    SimConfig cfg = dmtCfg();
    cfg.trace.enabled = true;
    cfg.trace.ring = true;
    cfg.trace.ring_capacity = 1 << 20;

    const Program prog = mkFibRecursive(10);
    DmtEngine engine(cfg, prog);
    ASSERT_TRUE(engine.tracer().enabled());
    engine.run();
    ASSERT_TRUE(engine.programCompleted());

    RingSink *ring = engine.tracer().ring();
    ASSERT_NE(ring, nullptr);
    ASSERT_GT(ring->size(), 0u);
    ASSERT_EQ(ring->captured(), ring->size())
        << "ring overflowed; grow ring_capacity for this test";

    std::map<ThreadId, Cycle> last;
    u64 spawns = 0, retires = 0, inst_retires = 0;
    Cycle last_any = 0;
    for (size_t i = 0; i < ring->size(); ++i) {
        const TraceEvent &e = ring->at(i);
        EXPECT_GE(e.cycle, last_any) << "event stream not time-ordered";
        last_any = e.cycle;
        auto it = last.find(e.tid);
        if (it != last.end()) {
            EXPECT_GE(e.cycle, it->second);
        }
        last[e.tid] = e.cycle;
        switch (e.kind) {
          case TraceEventKind::ThreadSpawn:
            ++spawns;
            break;
          case TraceEventKind::ThreadRetire:
            ++retires;
            break;
          case TraceEventKind::InstRetire:
            ++inst_retires;
            break;
          default:
            break;
        }
    }
    // The initial thread spawns and fully retires; a recursive fib
    // spawns speculative threads on top.
    EXPECT_GE(spawns, 1u);
    EXPECT_GE(retires, 1u);
    EXPECT_EQ(inst_retires, engine.stats().retired.value());
    EXPECT_EQ(spawns,
              engine.stats().threads_spawned.value() + 1); // +1: t0
}

// ---- counters sink -----------------------------------------------------

TEST(CountersSink, TalliesEventsAndWritesParseableJson)
{
    const std::string path =
        ::testing::TempDir() + "dmt_test_counters.json";

    SimConfig cfg = dmtCfg();
    cfg.trace.enabled = true;
    cfg.trace.counters = true;
    cfg.trace.counters_file = path;
    cfg.trace.sample_period = 64;

    const Program prog = mkFibRecursive(10);
    DmtEngine engine(cfg, prog);
    engine.run();
    ASSERT_TRUE(engine.programCompleted());

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    JsonValue v;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(text, &v, &err)) << err;
    EXPECT_DOUBLE_EQ(v.find("sample_period")->asNumber(), 64.0);
    const JsonValue *counts = v.find("event_counts");
    ASSERT_NE(counts, nullptr);
    const JsonValue *retired = counts->find("inst-retire");
    ASSERT_NE(retired, nullptr);
    EXPECT_DOUBLE_EQ(
        retired->asNumber(),
        static_cast<double>(engine.stats().retired.value()));
    EXPECT_GT(v.find("samples")->elements().size(), 0u);
    std::remove(path.c_str());
}

// ---- Chrome trace ------------------------------------------------------

TEST(ChromeTrace, ProducesValidPerContextTracks)
{
    const std::string path =
        ::testing::TempDir() + "dmt_test_trace.json";

    SimConfig cfg = dmtCfg();
    cfg.trace.enabled = true;
    cfg.trace.chrome = true;
    cfg.trace.chrome_file = path;
    cfg.trace.sample_period = 128;

    const Program prog = mkFibRecursive(10);
    DmtEngine engine(cfg, prog);
    engine.run();
    ASSERT_TRUE(engine.programCompleted());
    ASSERT_GT(engine.stats().threads_spawned.value(), 0u);

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(text, &doc, &err)) << err;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type(), JsonValue::Type::Array);
    ASSERT_GT(events->elements().size(), 0u);

    // Track state per tid: every B must close with an E, in order.
    std::map<i64, int> open_depth;
    std::map<i64, bool> named;
    bool saw_spawn_slice = false, saw_retire = false;
    bool saw_counter = false;
    Cycle last_ts = 0;
    for (const JsonValue &e : events->elements()) {
        ASSERT_EQ(e.type(), JsonValue::Type::Object);
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        const std::string phase = ph->asString();
        if (phase == "M") {
            const JsonValue *tid = e.find("tid");
            if (tid && e.find("name")->asString() == "thread_name")
                named[static_cast<i64>(tid->asNumber())] = true;
            continue;
        }
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        const Cycle ts = static_cast<Cycle>(e.find("ts")->asNumber());
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        const i64 tid = static_cast<i64>(e.find("tid")->asNumber());
        EXPECT_TRUE(named[tid]) << "track " << tid << " has no name";
        if (phase == "B") {
            ++open_depth[tid];
            if (e.find("name")->asString().rfind("thread", 0) == 0)
                saw_spawn_slice = true;
        } else if (phase == "E") {
            EXPECT_GT(open_depth[tid], 0) << "E without B on " << tid;
            --open_depth[tid];
        } else if (phase == "i") {
            const std::string name = e.find("name")->asString();
            if (name == "thread-retire" || name == "thread-squash")
                saw_retire = true;
        } else if (phase == "C") {
            saw_counter = true;
        }
    }
    for (const auto &[tid, depth] : open_depth)
        EXPECT_EQ(depth, 0) << "unbalanced slices on track " << tid;
    EXPECT_TRUE(saw_spawn_slice);
    EXPECT_TRUE(saw_retire);
    EXPECT_TRUE(saw_counter);

    // Round-trip: the parsed document re-serializes to stable JSON.
    const std::string once = doc.dump();
    JsonValue doc2;
    ASSERT_TRUE(JsonValue::parse(once, &doc2, &err)) << err;
    EXPECT_EQ(once, doc2.dump());
    std::remove(path.c_str());
}

TEST(ChromeTrace, RecoveryAndSquashEventsAppearUnderLoad)
{
    // A workload with cross-thread value flow: spawned threads consume
    // stale inputs, forcing recovery walks and squashes.
    SimConfig cfg = dmtCfg();
    cfg.trace.enabled = true;
    cfg.trace.ring = true;
    cfg.trace.ring_capacity = 1 << 20;

    const Program prog = buildWorkload("go");
    cfg.max_retired = 20000;
    DmtEngine engine(cfg, prog);
    engine.run();

    RingSink *ring = engine.tracer().ring();
    ASSERT_NE(ring, nullptr);
    u64 recov_start = 0, recov_end = 0, squashes = 0;
    for (size_t i = 0; i < ring->size(); ++i) {
        switch (ring->at(i).kind) {
          case TraceEventKind::RecoveryStart:
            ++recov_start;
            break;
          case TraceEventKind::RecoveryEnd:
            ++recov_end;
            break;
          case TraceEventKind::ThreadSquash:
            ++squashes;
            break;
          default:
            break;
        }
    }
    if (engine.stats().recoveries.value() > 0) {
        EXPECT_GT(recov_start, 0u);
    }
    EXPECT_LE(recov_end, recov_start);
    EXPECT_EQ(squashes, engine.stats().threads_squashed.value());
}

// ---- spec parsing (the DMT_TRACE grammar) -------------------------------

TEST(TraceEnv, ParsesSinkListAndOverrides)
{
    TraceOptions o;
    std::string err;
    ASSERT_TRUE(parseTraceSpec("chrome,counters,insts:file=x.json:"
                               "counters_file=c.json:sample=32", &o,
                               &err)) << err;
    EXPECT_TRUE(o.enabled);
    EXPECT_TRUE(o.chrome);
    EXPECT_TRUE(o.counters);
    EXPECT_TRUE(o.insts);
    EXPECT_FALSE(o.ring);
    EXPECT_EQ(o.chrome_file, "x.json");
    EXPECT_EQ(o.counters_file, "c.json");
    EXPECT_EQ(o.sample_period, 32);

    ASSERT_TRUE(parseTraceSpec("off", &o, &err)) << err;
    EXPECT_FALSE(o.enabled);

    // "on" keeps the configured selection (none: the default ring).
    TraceOptions d;
    ASSERT_TRUE(parseTraceSpec("on", &d, &err)) << err;
    EXPECT_TRUE(d.enabled);
    EXPECT_FALSE(d.ring || d.chrome || d.counters);
}

} // namespace
} // namespace dmt

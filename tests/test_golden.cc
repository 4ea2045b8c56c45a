/**
 * @file
 * Golden regression signatures: every suite workload, on both the
 * baseline superscalar and the 6-thread/2-port DMT machine, must
 * reproduce the exact cycle count, retirement count and
 * spawn/squash/recovery accounting checked into tests/golden/.  Any
 * drift — a one-cycle perturbation is enough — fails with a
 * field-by-field diff.  Intentional behaviour changes regenerate the
 * signatures with DMT_UPDATE_GOLDEN=1.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "exp/experiments.hh"
#include "exp/sweep.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

/** The signature length: fixed, independent of DMT_BENCH_INSTR. */
constexpr u64 kGoldenBudget = 60000;

/** Knobs that would perturb the signatures must not leak in from the
 *  caller's environment. */
const struct EnvSanitizer
{
    EnvSanitizer()
    {
        for (const char *v :
             {"DMT_FAULT", "DMT_FAULT_RATE", "DMT_FAULT_SEED",
              "DMT_TRACE", "DMT_TRACE_FILE", "DMT_TRACE_COUNTERS_FILE",
              "DMT_TRACE_SAMPLE", "DMT_TRACE_RING", "DMT_WATCHDOG",
              "DMT_AUDIT", "DMT_BENCH_INSTR", "DMT_SAMPLE"})
            unsetenv(v);
    }
} env_sanitizer;

struct Machine
{
    const char *key;
    SimConfig cfg;
};

std::vector<Machine>
machines()
{
    return {{"baseline", exp::baseline()}, {"dmt6", SimConfig::dmt(6, 2)}};
}

/** The compared fields, in file order. */
std::vector<std::pair<std::string, u64>>
signatureOf(const RunResult &r)
{
    const DmtStats &s = r.stats;
    return {
        {"cycles", r.cycles},
        {"retired", r.retired},
        {"completed", r.completed ? 1u : 0u},
        {"threads_spawned", s.threads_spawned.value()},
        {"threads_squashed", s.threads_squashed.value()},
        {"threads_joined", s.threads_joined.value()},
        {"recoveries", s.recoveries.value()},
        {"recovery_dispatches", s.recovery_dispatches.value()},
        {"lsq_violations", s.lsq_violations.value()},
        {"cond_mispredicts", s.cond_mispredicts.value()},
    };
}

void
signatureOn(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    for (const auto &[k, v] : signatureOf(r))
        w.key(k).value(v);
    // Derived, for human readers; cycles/retired carry the comparison.
    w.key("ipc").value(r.ipc);
    w.endObject();
}

/** Field-by-field comparison; one message per mismatch. */
std::vector<std::string>
diffSignature(const JsonValue &want, const RunResult &got)
{
    std::vector<std::string> diffs;
    for (const auto &[k, v] : signatureOf(got)) {
        const JsonValue *w = want.find(k);
        if (!w) {
            diffs.push_back(k + ": missing from golden file");
            continue;
        }
        const u64 expect = static_cast<u64>(w->asNumber());
        if (expect != v) {
            std::ostringstream os;
            os << k << ": golden " << expect << ", run produced " << v;
            diffs.push_back(os.str());
        }
    }
    return diffs;
}

std::string
goldenPath(const std::string &workload)
{
    return std::string(DMT_GOLDEN_DIR) + "/" + workload + ".json";
}

bool
updateRequested()
{
    const char *v = std::getenv("DMT_UPDATE_GOLDEN");
    return v && *v && std::string(v) != "0";
}

TEST(Golden, SuiteMatchesCheckedInSignatures)
{
    const auto &suite = workloadSuite();
    const std::vector<Machine> mach = machines();

    SweepRunner runner;
    for (const WorkloadInfo &w : suite)
        for (const Machine &m : mach)
            runner.add(m.cfg, w.name, kGoldenBudget,
                       std::string(w.name) + "/" + m.key);
    const auto &cells = runner.run();
    for (const SweepCell &cell : cells)
        ASSERT_TRUE(cell.ok) << cell.error;

    if (updateRequested()) {
        for (size_t wi = 0; wi < suite.size(); ++wi) {
            JsonWriter w;
            w.beginObject();
            w.key("workload").value(suite[wi].name);
            w.key("max_retired").value(kGoldenBudget);
            for (size_t mi = 0; mi < mach.size(); ++mi) {
                w.key(mach[mi].key);
                signatureOn(w, cells[wi * mach.size() + mi].result);
            }
            w.endObject();
            std::ofstream out(goldenPath(suite[wi].name));
            ASSERT_TRUE(out.good()) << goldenPath(suite[wi].name);
            out << w.str() << "\n";
        }
        GTEST_SKIP() << "golden signatures regenerated in "
                     << DMT_GOLDEN_DIR;
    }

    for (size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string path = goldenPath(suite[wi].name);
        std::ifstream in(path);
        ASSERT_TRUE(in.good())
            << path << " missing; regenerate with DMT_UPDATE_GOLDEN=1";
        std::ostringstream buf;
        buf << in.rdbuf();

        JsonValue doc;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(buf.str(), &doc, &err))
            << path << ": " << err;
        const JsonValue *budget = doc.find("max_retired");
        ASSERT_NE(budget, nullptr) << path;
        ASSERT_EQ(static_cast<u64>(budget->asNumber()), kGoldenBudget)
            << path << " was generated at a different run length";

        for (size_t mi = 0; mi < mach.size(); ++mi) {
            const JsonValue *sig = doc.find(mach[mi].key);
            ASSERT_NE(sig, nullptr)
                << path << " has no '" << mach[mi].key << "' signature";
            const auto diffs =
                diffSignature(*sig, cells[wi * mach.size() + mi].result);
            std::ostringstream os;
            for (const std::string &d : diffs)
                os << "\n  " << d;
            EXPECT_TRUE(diffs.empty())
                << suite[wi].name << "/" << mach[mi].key
                << " drifted from its golden signature:" << os.str()
                << "\nIf intentional, regenerate with "
                   "DMT_UPDATE_GOLDEN=1.";
        }
    }
}

// ---- generated-family signatures ---------------------------------------

/** One pinned seed per generated family plus a knob-variant: the
 *  generator's emission and the machines' timing on it are both under
 *  regression control.  File names are the spec with ':'/'=' made
 *  filesystem-tame. */
struct PinnedGen
{
    const char *key;  ///< golden file stem (tests/golden/<key>.json)
    const char *spec; ///< canonical gen: workload spec
};

std::vector<PinnedGen>
genPinned()
{
    return {
        {"gen_calltree_11",
         "gen:calltree:11:alias=25:depth=6:entropy=70:trips=8:units=24"},
        {"gen_loopnest_7",
         "gen:loopnest:7:alias=25:depth=4:entropy=50:trips=40:units=24"},
        {"gen_branchy_5",
         "gen:branchy:5:alias=25:depth=4:entropy=50:trips=60:units=16"},
        {"gen_alias_9",
         "gen:alias:9:alias=60:depth=4:entropy=50:trips=400:units=256"},
        {"gen_prodcons_3",
         "gen:prodcons:3:alias=25:depth=4:entropy=50:trips=8:units=96"},
        {"gen_ptrchase_13",
         "gen:ptrchase:13:alias=25:depth=4:entropy=50:trips=600:"
         "units=64"},
        {"gen_evloop_17",
         "gen:evloop:17:alias=50:depth=4:entropy=80:trips=8:units=120"},
        // Knob-variant: the same family at a second point of the knob
        // space must pin to a different signature.
        {"gen_calltree_29",
         "gen:calltree:29:alias=80:depth=4:entropy=20:trips=8:units=24"},
    };
}

TEST(Golden, GeneratedFamiliesMatchCheckedInSignatures)
{
    const std::vector<PinnedGen> pinned = genPinned();
    const std::vector<Machine> mach = machines();

    SweepRunner runner;
    for (const PinnedGen &p : pinned)
        for (const Machine &m : mach)
            runner.add(m.cfg, p.spec, kGoldenBudget,
                       std::string(p.key) + "/" + m.key);
    const auto &cells = runner.run();
    for (const SweepCell &cell : cells)
        ASSERT_TRUE(cell.ok) << cell.error;

    if (updateRequested()) {
        for (size_t pi = 0; pi < pinned.size(); ++pi) {
            JsonWriter w;
            w.beginObject();
            w.key("workload").value(pinned[pi].spec);
            w.key("max_retired").value(kGoldenBudget);
            for (size_t mi = 0; mi < mach.size(); ++mi) {
                w.key(mach[mi].key);
                signatureOn(w, cells[pi * mach.size() + mi].result);
            }
            w.endObject();
            std::ofstream out(goldenPath(pinned[pi].key));
            ASSERT_TRUE(out.good()) << goldenPath(pinned[pi].key);
            out << w.str() << "\n";
        }
        GTEST_SKIP() << "generated-family signatures regenerated in "
                     << DMT_GOLDEN_DIR;
    }

    for (size_t pi = 0; pi < pinned.size(); ++pi) {
        const std::string path = goldenPath(pinned[pi].key);
        std::ifstream in(path);
        ASSERT_TRUE(in.good())
            << path << " missing; regenerate with DMT_UPDATE_GOLDEN=1";
        std::ostringstream buf;
        buf << in.rdbuf();

        JsonValue doc;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(buf.str(), &doc, &err))
            << path << ": " << err;
        const JsonValue *spec = doc.find("workload");
        ASSERT_NE(spec, nullptr) << path;
        ASSERT_EQ(spec->asString(), pinned[pi].spec)
            << path << " pins a different spec";
        const JsonValue *budget = doc.find("max_retired");
        ASSERT_NE(budget, nullptr) << path;
        ASSERT_EQ(static_cast<u64>(budget->asNumber()), kGoldenBudget)
            << path << " was generated at a different run length";

        for (size_t mi = 0; mi < mach.size(); ++mi) {
            const JsonValue *sig = doc.find(mach[mi].key);
            ASSERT_NE(sig, nullptr)
                << path << " has no '" << mach[mi].key << "' signature";
            const auto diffs = diffSignature(
                *sig, cells[pi * mach.size() + mi].result);
            std::ostringstream os;
            for (const std::string &d : diffs)
                os << "\n  " << d;
            EXPECT_TRUE(diffs.empty())
                << pinned[pi].key << "/" << mach[mi].key
                << " drifted from its golden signature:" << os.str()
                << "\nIf intentional, regenerate with "
                   "DMT_UPDATE_GOLDEN=1.";
        }
    }
}

TEST(Golden, GeneratedPerturbationIsDetected)
{
    // The comparator must be as airtight on generated workloads as on
    // the suite: one cycle of drift on a gen: spec fails.
    const RunResult r = runWorkload(SimConfig::dmt(4, 2),
                                    genPinned()[1].spec, 5000);

    JsonWriter w;
    signatureOn(w, r);
    JsonValue sig;
    ASSERT_TRUE(JsonValue::parse(w.str(), &sig, nullptr));
    EXPECT_TRUE(diffSignature(sig, r).empty())
        << "a run must match its own signature";

    RunResult bumped = r;
    bumped.cycles += 1;
    const auto diffs = diffSignature(sig, bumped);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].find("cycles"), std::string::npos) << diffs[0];
}

TEST(Golden, OneCyclePerturbationIsDetected)
{
    // The comparator itself must be airtight: serialize a run's own
    // signature, nudge the cycle count by one, and demand a diff.
    const RunResult r = runWorkload(SimConfig::dmt(4, 2), "go", 5000);

    JsonWriter w;
    signatureOn(w, r);
    JsonValue sig;
    ASSERT_TRUE(JsonValue::parse(w.str(), &sig, nullptr));
    EXPECT_TRUE(diffSignature(sig, r).empty())
        << "a run must match its own signature";

    RunResult bumped = r;
    bumped.cycles += 1;
    const auto diffs = diffSignature(sig, bumped);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].find("cycles"), std::string::npos) << diffs[0];
}

} // namespace
} // namespace dmt

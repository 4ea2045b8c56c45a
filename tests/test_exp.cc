/**
 * @file
 * Experiment-layer tests: the per-figure machine configurations encode
 * exactly the parameters the paper states (these tests are the
 * machine-readable form of Section 4's methodology), plus the runner,
 * the table renderer and the canonical result digest.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/experiments.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/sampled.hh"

namespace dmt
{
namespace
{

TEST(PaperConfig, BaselineMachine)
{
    // "a 4-wide superscalar with a 128-instruction window"
    const SimConfig c = exp::baseline();
    EXPECT_EQ(c.max_threads, 1);
    EXPECT_EQ(c.fetch_ports, 1);
    EXPECT_EQ(c.fetch_block, 4);
    EXPECT_EQ(c.window_size, 128);
    EXPECT_EQ(c.retire_width, 4);
    EXPECT_TRUE(c.unlimited_fus);
    EXPECT_FALSE(c.isDmt());
}

TEST(PaperConfig, CacheHierarchy)
{
    // "16KB 2-way set associative instruction and data caches and a
    //  256KB 4-way set associative L2 cache. L1 miss penalty is 4
    //  cycles, and an L2 miss costs additional 20 cycles."
    const SimConfig c = exp::baseline();
    EXPECT_EQ(c.mem.l1i.size_bytes, 16u * 1024);
    EXPECT_EQ(c.mem.l1i.assoc, 2u);
    EXPECT_EQ(c.mem.l1d.size_bytes, 16u * 1024);
    EXPECT_EQ(c.mem.l1d.assoc, 2u);
    EXPECT_EQ(c.mem.l2.size_bytes, 256u * 1024);
    EXPECT_EQ(c.mem.l2.assoc, 4u);
    EXPECT_EQ(c.mem.l1_miss_penalty, 4u);
    EXPECT_EQ(c.mem.l2_miss_penalty, 20u);
}

TEST(PaperConfig, Figure4Machine)
{
    // "two fetch ports and two rename units ... trace buffer size is
    //  500 instructions per thread ... trace buffer pipeline is 4
    //  cycles long ... window size 128"
    const SimConfig c = exp::fig4Dmt(6);
    EXPECT_EQ(c.max_threads, 6);
    EXPECT_EQ(c.fetch_ports, 2);
    EXPECT_EQ(c.window_size, 128);
    EXPECT_EQ(c.tb_size, 500);
    EXPECT_EQ(c.tb_latency, 4);
    EXPECT_TRUE(c.unlimited_fus);
}

TEST(PaperConfig, Figure6ExecutionUnits)
{
    // "4 ALUs, 2 of which are used for address calculations, and 1
    //  multiply/divide unit. Two load and/or store instructions can be
    //  issued to the DCache every cycle. The latencies are 1 cycle for
    //  the ALU, 3 for multiply, 20 for divide, and 3 cycles for a load"
    const SimConfig c = exp::fig6Dmt(6, true);
    EXPECT_FALSE(c.unlimited_fus);
    EXPECT_EQ(c.fus.alu, 4);
    EXPECT_EQ(c.fus.muldiv, 1);
    EXPECT_EQ(c.fus.mem_ports, 2);
    EXPECT_EQ(c.lat_alu, 1);
    EXPECT_EQ(c.lat_mul, 3);
    EXPECT_EQ(c.lat_div, 20);
    EXPECT_EQ(c.lat_mem, 3);
    // "we have assumed additional 2 cycles of latency for loads that
    //  hit stores in other thread queues"
    EXPECT_EQ(c.lat_xthread_forward, 2);
}

TEST(PaperConfig, FigureSweeps)
{
    EXPECT_EQ(exp::fig5Dmt(4).fetch_ports, 4);
    EXPECT_EQ(exp::fig5Dmt(4).max_threads, 4);
    EXPECT_EQ(exp::fig7Dmt(200).tb_size, 200);
    EXPECT_EQ(exp::fig7Dmt(200).max_threads, 6);
    EXPECT_EQ(exp::fig89Dmt().max_threads, 6);
    EXPECT_FALSE(exp::fig10Dmt(false).dataflow_prediction);
    EXPECT_TRUE(exp::fig10Dmt(true).dataflow_prediction);
    EXPECT_EQ(exp::fig12Dmt(6).tb_read_block, 6);
    EXPECT_EQ(exp::fig12Dmt(0).tb_read_block, 0) << "ideal queue";
    EXPECT_EQ(exp::fig13Dmt(16).tb_latency, 16);
}

/** The SimConfig JSON document a bench records for a machine. */
std::string
configJson(const SimConfig &cfg)
{
    JsonWriter w;
    cfg.jsonOn(w);
    return w.str();
}

TEST(PaperConfig, JsonRecordsEveryVariedField)
{
    // Each ablation column differs from the others in one policy
    // field; the recorded config must say which.
    const std::vector<BenchColumn> cols = exp::ablationColumns();
    ASSERT_EQ(cols.size(), 6u);
    for (size_t i = 0; i < cols.size(); ++i) {
        for (size_t j = i + 1; j < cols.size(); ++j) {
            EXPECT_NE(configJson(cols[i].cfg), configJson(cols[j].cfg))
                << cols[i].name << " vs " << cols[j].name;
        }
    }

    // Figure 9's cache-pressure variant shrinks the L1I and the L2.
    SimConfig l1i = exp::fig89Dmt();
    l1i.mem.l1i.size_bytes = 512;
    SimConfig l2 = exp::fig89Dmt();
    l2.mem.l2.size_bytes = 4 * 1024;
    EXPECT_NE(configJson(exp::fig89Dmt()), configJson(l1i));
    EXPECT_NE(configJson(exp::fig89Dmt()), configJson(l2));
    EXPECT_NE(configJson(l1i), configJson(l2));
}

TEST(PaperConfig, ValidationCatchesNonsense)
{
    SimConfig c = exp::baseline();
    c.max_threads = 0;
    EXPECT_DEATH(c.validate(), "max_threads");
    SimConfig c2 = exp::baseline();
    c2.tb_size = 2;
    EXPECT_DEATH(c2.validate(), "trace buffer");
}

TEST(Runner, RespectsBudget)
{
    const RunResult r = runWorkload(exp::baseline(), "go", 5000);
    EXPECT_GE(r.retired, 5000u);
    EXPECT_LT(r.retired, 5200u);
    EXPECT_FALSE(r.completed);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(Runner, SpeedupMath)
{
    RunResult base;
    base.cycles = 2000;
    base.retired = 1000;
    RunResult twice;
    twice.cycles = 1000;
    twice.retired = 1000;
    EXPECT_NEAR(speedupPct(base, twice), 100.0, 1e-9);
    EXPECT_NEAR(speedupPct(base, base), 0.0, 1e-9);
    // Different retired counts compare cycles-per-instruction.
    RunResult half_work;
    half_work.cycles = 1000;
    half_work.retired = 500;
    EXPECT_NEAR(speedupPct(base, half_work), 0.0, 1e-9);
}

TEST(Runner, DefaultLengthOverridableByEnv)
{
    // No env in tests: default applies.
    EXPECT_GT(benchRunLength(), 0u);
}

TEST(Report, RendersTable)
{
    Report rep("Figure X: demo", "a note");
    rep.columns({"workload", "a", "b"});
    rep.row("go", {1.25, -3.5});
    rep.row("li", {2.75, 0.5});
    rep.averageRow();
    const std::string out = rep.render();
    EXPECT_NE(out.find("Figure X: demo"), std::string::npos);
    EXPECT_NE(out.find("a note"), std::string::npos);
    EXPECT_NE(out.find("go"), std::string::npos);
    EXPECT_NE(out.find("1.25"), std::string::npos);
    EXPECT_NE(out.find("-3.50"), std::string::npos);
    EXPECT_NE(out.find("average"), std::string::npos);
    EXPECT_NE(out.find("2.00"), std::string::npos) << "mean of col a";
}

TEST(Report, AverageIgnoresPriorAverages)
{
    Report rep("t", "");
    rep.columns({"w", "x"});
    rep.row("r1", {2.0});
    rep.averageRow("avg1");
    rep.row("r2", {4.0});
    rep.averageRow("avg2");
    const std::string out = rep.render();
    // avg2 must be mean(2,4) = 3, not influenced by avg1.
    EXPECT_NE(out.find("3.00"), std::string::npos);
}

TEST(CanonicalHash, FnvPrimitives)
{
    EXPECT_EQ(fnv1aHash(""), kFnvBasis);
    EXPECT_NE(fnv1aHash("a"), fnv1aHash("b"));
    EXPECT_NE(fnv1aHash("ab"), fnv1aHash("ba")) << "order matters";
    // Chaining two pieces equals hashing the concatenation.
    EXPECT_EQ(fnv1aHash("cd", fnv1aHash("ab")), fnv1aHash("abcd"));
}

TEST(CanonicalHash, HostTimingIsExcluded)
{
    SimConfig cfg = SimConfig::dmt(2, 2);
    cfg.max_retired = 2000;
    const RunResult a = runWorkloadJob(cfg, "go", 2000, SampleParams{});
    RunResult b = a;
    b.wall_s = a.wall_s + 123.0;
    b.minstr_per_s = a.minstr_per_s + 9.0;
    b.sampling.func_wall_s = 77.0;
    EXPECT_EQ(canonicalHash(a), canonicalHash(b))
        << "nondeterministic host timing must not change the digest";
    b.cycles += 1;
    EXPECT_NE(canonicalHash(a), canonicalHash(b));
}

} // namespace
} // namespace dmt

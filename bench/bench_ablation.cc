/**
 * @file
 * Ablation bench (beyond the paper's figures): the design choices
 * DESIGN.md calls out, each toggled on the 4-thread machine —
 * early divergence repair vs the paper's retirement-time flush,
 * dataflow-sync vs speculate-and-recover, recovery stall policies, and
 * spawn-source restrictions (calls only / loops only).
 */

#include "bench_common.hh"

int
benchMain()
{
    using namespace dmt;
    Report rep(
        "Ablations: engine policy choices (4 threads, 2 ports)",
        "columns are speedup over the baseline; 'default' is the "
        "shipping configuration");

    speedupTable(rep, exp::ablationColumns(), "ablation");
    rep.print();
    return 0;
}

/**
 * @file
 * Machine configurations for every experiment in the paper's Section 4
 * (Figures 4-13).  Each factory documents the exact sentence of the
 * paper it encodes.
 */

#ifndef DMT_EXP_EXPERIMENTS_HH
#define DMT_EXP_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "uarch/config.hh"

namespace dmt
{

/** One machine column in a bench table. */
struct BenchColumn
{
    std::string name;
    SimConfig cfg;
};

namespace exp
{

/**
 * The baseline of all speedups: a 4-wide superscalar with a
 * 128-instruction window, gshare with very large tables, 16KB L1s and
 * 256KB L2 (Section 4 preamble).  Execution units are unlimited unless
 * @p realistic_fus.
 */
SimConfig baseline(bool realistic_fus = false);

/**
 * Figure 4: DMT with @p threads contexts and two fetch ports (two
 * rename units), unlimited execution units, 128-entry window, 500
 * instructions of trace buffer per thread.
 */
SimConfig fig4Dmt(int threads);

/** Figure 5: 4-thread DMT with 1, 2 or 4 fetch ports. */
SimConfig fig5Dmt(int fetch_ports);

/**
 * Figure 6: 2-fetch-port DMT with realistic execution resources —
 * 4 ALUs (2 shared with address calculation), 1 mul/div, 2 DCache
 * ports; latencies 1/3/20 cycles and 3-cycle loads — vs the ideal
 * (unlimited) machine.
 */
SimConfig fig6Dmt(int threads, bool realistic_fus);

/** Figure 7: 6-thread DMT with the given trace buffer size. */
SimConfig fig7Dmt(int tb_size);

/** Figures 8/9: the 6-thread, 2-port DMT machine. */
SimConfig fig89Dmt();

/** Figure 10: 4-thread DMT with or without dataflow prediction. */
SimConfig fig10Dmt(bool dataflow);

/** Figure 11 uses the Figure-10 machine with both predictors on. */
SimConfig fig11Dmt();

/** Figure 12: recovery read block size 2/4/6, or 0 for ideal. */
SimConfig fig12Dmt(int read_block);

/** Figure 13: trace buffer (recovery startup) latency sweep. */
SimConfig fig13Dmt(int tb_latency);

/**
 * Ablation columns (beyond the paper): the 4-thread, 2-port DMT
 * machine as shipped ("default"), then with one design choice
 * DESIGN.md calls out toggled per column — the paper's
 * retirement-time divergence flush, dataflow sync, recovery stalls,
 * and spawning at calls only or loops only.
 */
std::vector<BenchColumn> ablationColumns();

} // namespace exp

} // namespace dmt

#endif // DMT_EXP_EXPERIMENTS_HH

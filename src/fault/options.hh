/**
 * @file
 * Fault-injection configuration embedded in SimConfig (the `fault`
 * member).  A plain aggregate, like trace/options.hh, so the config
 * layer does not depend on the injector machinery.  parseFaultSpec()
 * in fault/injector.hh reads the DMT_FAULT spec grammar into one.
 *
 * The fault contract: every site corrupts *speculative-only* state —
 * state the paper's recovery machinery (trace-buffer walks, dependency
 * filtering, divergence flushes, join validation) is required to repair
 * before final retirement.  A run with injection enabled must therefore
 * still produce a golden-checker-clean retirement stream; injection
 * storms are a correctness test, not just a perf knob.
 */

#ifndef DMT_FAULT_OPTIONS_HH
#define DMT_FAULT_OPTIONS_HH

#include "common/types.hh"

namespace dmt
{

/** Speculative-state corruption sites. */
enum class FaultSite : u8
{
    /** Value-predicted input registers of a freshly spawned thread
     *  (corrupted value; repaired by the head-switch final check or the
     *  progressive final check → recovery walk). */
    SpawnInput,
    /** Values delivered through the dataflow (last-modifier) predictor
     *  (repaired by the final check, like any wrong input value). */
    DataflowValue,
    /** Load values delivered to consumers.  Modelled as an aggressively
     *  value-speculated load: the corrupted value is consumed and a
     *  load-root recovery request is filed, exactly like an LSQ
     *  ordering violation. */
    LoadValue,
    /** Thread-selection predictor decisions (flipped: spurious spawns
     *  and suppressed spawns; cleaned up by join validation / the
     *  thread-misprediction detector). */
    SpawnDecision,
    /** Conditional-branch predictions (flipped direction; repaired by
     *  the ordinary checkpoint-restore misprediction machinery). */
    BranchPrediction,

    kCount
};

constexpr int kNumFaultSites = static_cast<int>(FaultSite::kCount);

/** Stable lowercase site name, e.g. "spawn-input". */
const char *faultSiteName(FaultSite s);

/** Which sites inject, at what per-opportunity probability. */
struct FaultOptions
{
    /** Master gate.  False compiles every hook down to one predictable
     *  branch on a cold bool. */
    bool enabled = false;

    /** Deterministic injection stream seed. */
    u64 seed = 1;

    /** Per-opportunity injection probability per site; 0 disables the
     *  site.  Indexed by FaultSite. */
    double rate[kNumFaultSites] = {0, 0, 0, 0, 0};

    /** Set every site to @p r. */
    void
    rateAll(double r)
    {
        for (double &x : rate)
            x = r;
    }
};

} // namespace dmt

#endif // DMT_FAULT_OPTIONS_HH

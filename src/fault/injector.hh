/**
 * @file
 * Seeded deterministic fault injector.  The engine owns one and asks it
 * at each hook point whether to corrupt the value/decision at hand;
 * when disabled every query is a single predictable branch on a cold
 * bool (the Tracer discipline).
 *
 * Determinism: one splitmix64 stream per site, all derived from the
 * configured seed, so enabling an extra site does not perturb the draw
 * sequence of the others and a (seed, rates) pair replays exactly.
 */

#ifndef DMT_FAULT_INJECTOR_HH
#define DMT_FAULT_INJECTOR_HH

#include <string>
#include <string_view>

#include "common/rng.hh"
#include "fault/options.hh"

namespace dmt
{

/** Deterministic speculative-state corruptor. */
class FaultInjector
{
  public:
    FaultInjector() = default;

    /** Install options; resets the draw streams and counters. */
    void configure(const FaultOptions &opts);

    bool enabled() const { return enabled_; }

    /** Should the state at this @p site opportunity be corrupted?
     *  Counts the injection when it fires. */
    bool
    shouldInject(FaultSite site)
    {
        if (!enabled_)
            return false;
        return roll(site);
    }

    /** Corrupt a 32-bit value (guaranteed != the original). */
    u32
    corruptValue(FaultSite site, u32 v)
    {
        // Low bit forced on so the XOR mask is never zero.
        return v ^ (valueRng(site).next32() | 1u);
    }

    /** Injections fired at @p site so far. */
    u64 injected(FaultSite site) const;

    /** Total injections fired across all sites. */
    u64 injectedTotal() const;

    /** Opportunities offered at @p site (enabled runs only). */
    u64 offered(FaultSite site) const;

  private:
    bool roll(FaultSite site);
    Rng &valueRng(FaultSite site);

    bool enabled_ = false;
    FaultOptions opts_;
    Rng draw_[kNumFaultSites];
    Rng value_[kNumFaultSites];
    u64 injected_[kNumFaultSites] = {};
    u64 offered_[kNumFaultSites] = {};
};

/**
 * Parse a fault spec "sites[:rate=R][:seed=S]" on top of @p out.
 *
 *  - sites: comma-separated list of faultSiteName()s, or "all" (also
 *    "1"/"on") for every site; "off" (also "0") disables injection.
 *  - rate: per-opportunity probability in [0, 1] for the selected
 *    sites (default 0.01); other sites keep their rate.
 *  - seed: deterministic stream seed (default: keep @p out's).
 *
 * @retval false with a message in @p err (when non-null) on an unknown
 *         site or field, or a bad number; @p out is then unchanged.
 */
bool parseFaultSpec(std::string_view spec, FaultOptions *out,
                    std::string *err);

} // namespace dmt

#endif // DMT_FAULT_INJECTOR_HH

#include "fault/injector.hh"

#include <vector>

#include "common/env.hh"
#include "common/strutil.hh"

namespace dmt
{

void
FaultInjector::configure(const FaultOptions &opts)
{
    opts_ = opts;
    bool any = false;
    for (int i = 0; i < kNumFaultSites; ++i) {
        // Independent streams per site: the draw and corruption
        // sequences of one site are unaffected by the others' rates.
        draw_[i] = Rng(opts.seed * 0x9e3779b97f4a7c15ull
                       + static_cast<u64>(2 * i + 1));
        value_[i] = Rng(opts.seed * 0xbf58476d1ce4e5b9ull
                        + static_cast<u64>(2 * i + 2));
        injected_[i] = 0;
        offered_[i] = 0;
        any = any || opts.rate[i] > 0.0;
    }
    enabled_ = opts.enabled && any;
}

bool
FaultInjector::roll(FaultSite site)
{
    const int i = static_cast<int>(site);
    ++offered_[i];
    if (opts_.rate[i] <= 0.0)
        return false;
    if (!draw_[i].chance(opts_.rate[i]))
        return false;
    ++injected_[i];
    return true;
}

Rng &
FaultInjector::valueRng(FaultSite site)
{
    return value_[static_cast<int>(site)];
}

u64
FaultInjector::injected(FaultSite site) const
{
    return injected_[static_cast<int>(site)];
}

u64
FaultInjector::injectedTotal() const
{
    u64 n = 0;
    for (u64 v : injected_)
        n += v;
    return n;
}

u64
FaultInjector::offered(FaultSite site) const
{
    return offered_[static_cast<int>(site)];
}

bool
parseFaultSpec(std::string_view spec, FaultOptions *out, std::string *err)
{
    const std::vector<std::string> fields = splitExact(trim(spec), ':');
    FaultOptions o = *out;
    double rate = 0.01;
    for (size_t i = 1; i < fields.size(); ++i) {
        const std::string &f = fields[i];
        const size_t eq = f.find('=');
        const std::string key = f.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? std::string() : f.substr(eq + 1);
        if (key == "rate") {
            if (!parseF64(val, &rate) || rate < 0.0 || rate > 1.0)
                return specError(err, "fault rate must be a number in "
                                      "[0, 1], got '" + val + "'");
        } else if (key == "seed") {
            if (!parseU64(val, &o.seed))
                return specError(err, "bad fault seed '" + val + "'");
        } else {
            return specError(err, "unknown fault field '" + f
                                      + "' (expected rate=R or seed=S)");
        }
    }

    const std::string &sites = fields[0];
    o.enabled = !(sites == "off" || sites == "0");
    for (const std::string &tok :
         o.enabled ? splitExact(sites, ',') : std::vector<std::string>{}) {
        const bool all = tok == "all" || tok == "1" || tok == "on";
        bool known = all;
        for (int i = 0; i < kNumFaultSites; ++i) {
            if (all || tok == faultSiteName(static_cast<FaultSite>(i))) {
                o.rate[i] = rate;
                known = true;
            }
        }
        if (!known)
            return specError(err, "unknown fault site '" + tok
                                      + "' (sites: spawn-input, "
                                        "dataflow-value, load-value, "
                                        "spawn-decision, "
                                        "branch-prediction, all, off)");
    }
    *out = o;
    return true;
}

} // namespace dmt

/**
 * @file
 * Checked parsing for the numeric DMT_* environment knobs.  The raw
 * strtoull/atoi idiom silently accepts trailing garbage ("60k" parses
 * as 60) and wraps on overflow; every knob that configures a run now
 * funnels through these helpers, which reject both loudly.
 *
 * An unset or empty variable yields the caller's default.  A malformed
 * or out-of-range value is a *user* error, so it reports via fatal()
 * (clean exit), never a silent fallback that would make a sweep
 * quietly measure the wrong thing.
 */

#ifndef DMT_COMMON_ENV_HH
#define DMT_COMMON_ENV_HH

#include <string>
#include <string_view>

#include "common/types.hh"

namespace dmt
{

/**
 * Strict unsigned parse: the entire string must be a decimal u64
 * (surrounding whitespace tolerated, no sign, no suffix).
 * @retval true on success, writing the value through @p out.
 */
bool parseU64(std::string_view s, u64 *out);

/**
 * Strict floating-point parse: the entire string must be a finite
 * decimal number (surrounding whitespace tolerated).
 * @retval true on success, writing the value through @p out.
 */
bool parseF64(std::string_view s, double *out);

/** Spec-parser error exit: store @p msg through @p err when non-null
 *  and return false, so a parser can `return specError(err, ...)`. */
inline bool
specError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/**
 * Read the environment variable @p name as a u64 in [@p min, @p max].
 * Unset or empty returns @p def; garbage, overflow or a value outside
 * the range is fatal().
 */
u64 parseEnvU64(const char *name, u64 def, u64 min_value = 0,
                u64 max_value = ~u64{0});

} // namespace dmt

#endif // DMT_COMMON_ENV_HH

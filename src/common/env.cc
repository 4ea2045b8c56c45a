#include "common/env.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/log.hh"
#include "common/strutil.hh"

namespace dmt
{

bool
parseU64(std::string_view s, u64 *out)
{
    s = trim(s);
    if (s.empty())
        return false;
    u64 v = 0;
    const char *first = s.data();
    const char *last = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(first, last, v, 10);
    if (ec != std::errc{} || ptr != last)
        return false;
    *out = v;
    return true;
}

bool
parseF64(std::string_view s, double *out)
{
    s = trim(s);
    if (s.empty())
        return false;
    // strtod needs NUL termination; the knob strings are tiny.
    const std::string z(s);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(z.c_str(), &end);
    if (end != z.c_str() + z.size() || errno == ERANGE
        || !std::isfinite(v)) {
        return false;
    }
    *out = v;
    return true;
}

u64
parseEnvU64(const char *name, u64 def, u64 min_value, u64 max_value)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return def;
    u64 v = 0;
    if (!parseU64(env, &v))
        fatal("%s: '%s' is not a valid unsigned integer", name, env);
    if (v < min_value || v > max_value) {
        fatal("%s: %llu out of range [%llu, %llu]", name,
              static_cast<unsigned long long>(v),
              static_cast<unsigned long long>(min_value),
              static_cast<unsigned long long>(max_value));
    }
    return v;
}

} // namespace dmt

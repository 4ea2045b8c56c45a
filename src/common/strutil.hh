/**
 * @file
 * String helpers used by the assembler and the report formatter.
 */

#ifndef DMT_COMMON_STRUTIL_HH
#define DMT_COMMON_STRUTIL_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace dmt
{

/** Strip leading/trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split on any character in @p seps, dropping empty fields. */
std::vector<std::string> splitFields(std::string_view s,
                                     std::string_view seps);

/** Split on @p sep, keeping empty fields, so a spec parser can reject
 *  "a::b" or a trailing separator instead of silently skipping them. */
std::vector<std::string> splitExact(std::string_view s, char sep);

/** Split @p s into lines (without terminators). */
std::vector<std::string> splitLines(std::string_view s);

/** Case-insensitive equality. */
bool iequals(std::string_view a, std::string_view b);

/** ASCII lowercase copy. */
std::string toLower(std::string_view s);

/**
 * Parse a signed integer literal: decimal, 0x hex, or 0b binary, with
 * optional leading minus.
 * @retval true on success, writing the value through @p out.
 */
bool parseInt(std::string_view s, i64 *out);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace dmt

#endif // DMT_COMMON_STRUTIL_HH

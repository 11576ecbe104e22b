#ifndef ORPHEUS_COMMON_ENV_H_
#define ORPHEUS_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace orpheus {

/// Checked environment-variable parsing. All env reads in the engine go
/// through these helpers (tools/lint.py bans raw getenv outside common/):
/// a malformed value like ORPHEUS_THREADS="8abc" or "-3" falls back to the
/// default with one warning on stderr instead of being silently truncated
/// by atoi into a nonsense configuration.

/// Strict full-string integer parse: no leading/trailing junk, no
/// whitespace; a single leading '-' or '+' is allowed. nullopt on failure
/// or overflow.
std::optional<int64_t> ParseIntStrict(std::string_view text);

/// The same for doubles, in the C locale whatever LC_NUMERIC says (strtod
/// would stop "1.5" at the '.' under de_DE). "nan" and "inf" parse.
std::optional<double> ParseDoubleStrict(std::string_view text);

/// Read env var `name` as an integer clamped to [min_value, max_value].
/// Unset => `fallback` silently. Set but unparsable or out of range =>
/// `fallback` with a warning to stderr (once per distinct variable).
int64_t ParseEnvInt(const char* name, int64_t fallback, int64_t min_value,
                    int64_t max_value);

/// Read env var `name` as a boolean. Accepts 0/1/true/false/yes/no/on/off
/// (case-insensitive). Unset => `fallback` silently; garbage => `fallback`
/// with a warning to stderr.
bool ParseEnvBool(const char* name, bool fallback);

/// Raw getenv passthrough for string-valued variables (log sinks, file
/// paths) that need no validation. nullptr when unset. Exists so raw
/// getenv stays confined to common/env.cc (tools/lint.py raw-env rule).
const char* RawEnv(const char* name);

}  // namespace orpheus

#endif  // ORPHEUS_COMMON_ENV_H_

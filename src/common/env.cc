#include "common/env.h"

#include <charconv>
#include <cstdlib>
#include <set>
#include <string>

#include "common/log.h"
#include "common/sync.h"

namespace orpheus {

namespace {

// One warning per distinct (variable, raw value) so a misconfigured shell
// profile does not spam every process start but a changed value re-warns.
void WarnOnce(const char* name, const char* raw, const std::string& why) {
  static Mutex mu("env.warn_once", lock_rank::kEnvWarnOnce);
  static std::set<std::string>* warned = new std::set<std::string>();
  {
    MutexLock lock(&mu);
    if (!warned->insert(std::string(name) + "=" + raw).second) return;
  }
  LOG_WARN("ignoring environment variable",
           {{"var", name}, {"value", raw}, {"why", why}});
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
  }
  return out;
}

template <typename T>
std::optional<T> ParseStrict(std::string_view text) {
  if (text.empty()) return std::nullopt;
  size_t begin = text[0] == '+' ? 1 : 0;  // from_chars rejects a leading '+'
  if (begin == text.size()) return std::nullopt;
  T value = 0;
  const char* first = text.data() + begin;
  const char* last = text.data() + text.size();
  auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || end != last) return std::nullopt;
  return value;
}

}  // namespace

std::optional<int64_t> ParseIntStrict(std::string_view text) {
  return ParseStrict<int64_t>(text);
}

std::optional<double> ParseDoubleStrict(std::string_view text) {
  return ParseStrict<double>(text);
}

int64_t ParseEnvInt(const char* name, int64_t fallback, int64_t min_value,
                    int64_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  std::optional<int64_t> parsed = ParseIntStrict(raw);
  if (!parsed) {
    WarnOnce(name, raw, "not an integer; using default");
    return fallback;
  }
  if (*parsed < min_value || *parsed > max_value) {
    WarnOnce(name, raw,
             "out of range [" + std::to_string(min_value) + ", " +
                 std::to_string(max_value) + "]; using default");
    return fallback;
  }
  return *parsed;
}

bool ParseEnvBool(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return fallback;
  const std::string v = ToLowerAscii(raw);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  WarnOnce(name, raw, "not a boolean (want 0/1/true/false); using default");
  return fallback;
}

const char* RawEnv(const char* name) { return std::getenv(name); }

}  // namespace orpheus

// Checked count parsing shared by the command-line tools (scenario_tool,
// batch_runner, analytics_server), so a typo in a thread or member count
// is a usage error instead of a silently different run.
#pragma once

#include <charconv>
#include <cstddef>
#include <string_view>
#include <system_error>

namespace psse::cli {

/// Largest count a tool flag accepts. The service protocol applies the
/// same cap to a request's "portfolio" field.
inline constexpr std::size_t kMaxCount = 4096;

/// Parses a count flag's value: a whole decimal number with no sign, no
/// whitespace and no trailing characters, at most kMaxCount. Returns false
/// and leaves `out` unchanged on anything else.
[[nodiscard]] inline bool parse_count(std::string_view text,
                                      std::size_t& out) {
  const char* const end = text.data() + text.size();
  std::size_t value = 0;
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value > kMaxCount) return false;
  out = value;
  return true;
}

}  // namespace psse::cli

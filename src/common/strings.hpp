// Small string helpers used by the parsers and writers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lbe::str {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Returns the next field of `rest` delimited by any amount of ASCII
/// whitespace and drops it (and the whitespace before it) from `rest`.
/// Returns an empty view once no field is left; never allocates.
std::string_view next_field(std::string_view& rest);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// ASCII upper-case copy.
std::string to_upper(std::string_view s);

/// Parses a double; throws lbe::ParseError-free std::invalid_argument-free
/// variant: returns false on failure instead of throwing.
bool parse_double(std::string_view s, double& out);

/// Parses a non-negative integer. Returns false on failure/overflow.
bool parse_u64(std::string_view s, std::uint64_t& out);

/// Formats `bytes` with binary units, e.g. "1.50 GiB".
std::string human_bytes(std::uint64_t bytes);

/// Formats seconds compactly, e.g. "1.23 s" / "45.6 ms".
std::string human_seconds(double seconds);

}  // namespace lbe::str

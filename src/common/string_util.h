#ifndef RHEEM_COMMON_STRING_UTIL_H_
#define RHEEM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace rheem {

/// Splits `s` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

std::string ToLower(std::string_view s);

/// Renders n with thousands separators ("1,234,567") for benchmark tables.
std::string FormatCount(int64_t n);

/// Renders seconds with adaptive precision ("1.23 s", "45.6 ms", "789 us").
std::string FormatDuration(double seconds);

/// Renders bytes in binary units ("1.5 MiB").
std::string FormatBytes(int64_t bytes);

/// Renders `s` as a SQL single-quoted string literal with embedded quotes
/// doubled ("O'Brien" -> 'O''Brien'). Bytes outside ASCII pass through
/// untouched, so UTF-8 (or arbitrary binary) payloads round-trip through the
/// SQL frontend byte-for-byte. For callers that splice values into SQL text.
std::string SqlQuoteString(std::string_view s);

}  // namespace rheem

#endif  // RHEEM_COMMON_STRING_UTIL_H_

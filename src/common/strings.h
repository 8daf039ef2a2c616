// Small string utilities shared across modules.
#ifndef SERAPH_COMMON_STRINGS_H_
#define SERAPH_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace seraph {

// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

// Joins `pieces` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

// Returns `text` with ASCII whitespace removed from both ends.
std::string_view StripWhitespace(std::string_view text);

// Case-insensitive ASCII equality (used for Cypher keywords).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Returns an upper-cased ASCII copy.
std::string AsciiUpper(std::string_view text);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Appends `text` to `out` as a quoted JSON string. Quote, backslash and
// every byte below 0x20 are escaped (\b, \f, \n, \r and \t by name, the
// others as \u00XX); all other bytes, UTF-8 sequences included, pass
// through unchanged.
void AppendJsonString(std::string_view text, std::string* out);

}  // namespace seraph

#endif  // SERAPH_COMMON_STRINGS_H_

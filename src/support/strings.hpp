// String helpers used throughout the project: splitting, trimming, globbing.
//
// The glob matcher implements the Score-P filter-file wildcard dialect:
// '*' matches any (possibly empty) sequence, '?' matches a single character.
// It is iterative (no std::regex) so it stays cheap when matching hundreds of
// thousands of mangled names against filter rules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace capi::support {

/// Split on a single delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Split on runs of whitespace; empty fields are dropped.
std::vector<std::string> splitWhitespace(std::string_view text);

std::string_view trim(std::string_view text);

/// Score-P style wildcard matching ('*' and '?').
bool globMatch(std::string_view pattern, std::string_view text);

/// True if `pattern` contains glob metacharacters.
bool isGlobPattern(std::string_view pattern);

/// Join parts with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Render a double with fixed decimals (report formatting helper).
std::string fixed(double value, int decimals);

/// Left/right pad to a column width (report formatting helpers).
std::string padLeft(std::string_view text, std::size_t width);
std::string padRight(std::string_view text, std::size_t width);

}  // namespace capi::support

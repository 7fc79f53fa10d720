#include "support/strings.hpp"

#include <cctype>
#include <cstdio>

namespace capi::support {

std::vector<std::string> split(std::string_view text, char delim) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string> splitWhitespace(std::string_view text) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
            ++i;
        }
        std::size_t start = i;
        while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) == 0) {
            ++i;
        }
        if (i > start) {
            out.emplace_back(text.substr(start, i - start));
        }
    }
    return out;
}

std::string_view trim(std::string_view text) {
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
        --end;
    }
    return text.substr(begin, end - begin);
}

bool globMatch(std::string_view pattern, std::string_view text) {
    // Iterative glob with single-star backtracking: O(n*m) worst case but
    // linear in practice. '*' matches any run, '?' a single character.
    std::size_t p = 0;
    std::size_t t = 0;
    std::size_t starP = std::string_view::npos;
    std::size_t starT = 0;
    while (t < text.size()) {
        if (p < pattern.size() && (pattern[p] == text[t] || pattern[p] == '?')) {
            ++p;
            ++t;
        } else if (p < pattern.size() && pattern[p] == '*') {
            starP = p++;
            starT = t;
        } else if (starP != std::string_view::npos) {
            p = starP + 1;
            t = ++starT;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*') {
        ++p;
    }
    return p == pattern.size();
}

bool isGlobPattern(std::string_view pattern) {
    return pattern.find_first_of("*?") != std::string_view::npos;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string fixed(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

std::string padLeft(std::string_view text, std::size_t width) {
    std::string out;
    if (text.size() < width) {
        out.append(width - text.size(), ' ');
    }
    out += text;
    return out;
}

std::string padRight(std::string_view text, std::size_t width) {
    std::string out(text);
    if (out.size() < width) {
        out.append(width - out.size(), ' ');
    }
    return out;
}

}  // namespace capi::support

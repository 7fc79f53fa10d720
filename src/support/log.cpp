#include "support/log.hpp"

#include <cstdio>
#include <mutex>

namespace capi::support {

namespace {
/// Messages below this level are dropped.
constexpr LogLevel kThreshold = LogLevel::Warn;
std::mutex g_mutex;

const char* levelTag(LogLevel level) {
    switch (level) {
        case LogLevel::Debug: return "DEBUG";
        case LogLevel::Info: return "INFO ";
        case LogLevel::Warn: return "WARN ";
        case LogLevel::Error: return "ERROR";
        default: return "?????";
    }
}
}  // namespace

void logMessage(LogLevel level, const std::string& message) {
    if (level < kThreshold) {
        return;
    }
    std::lock_guard<std::mutex> lock(g_mutex);
    std::fprintf(stderr, "[capi %s] %s\n", levelTag(level), message.c_str());
}

}  // namespace capi::support

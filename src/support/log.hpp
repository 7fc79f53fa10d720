// Tiny leveled logger. Only Warn and Error reach stderr, which keeps
// benchmark output clean.
#pragma once

#include <sstream>
#include <string>

namespace capi::support {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Emit one line to stderr with a level tag, unless the level is below Warn.
/// Thread-safe.
void logMessage(LogLevel level, const std::string& message);

namespace detail {

class LogStream {
public:
    explicit LogStream(LogLevel level) : level_(level) {}
    ~LogStream() { logMessage(level_, stream_.str()); }
    LogStream(const LogStream&) = delete;
    LogStream& operator=(const LogStream&) = delete;

    template <typename T>
    LogStream& operator<<(const T& value) {
        stream_ << value;
        return *this;
    }

private:
    LogLevel level_;
    std::ostringstream stream_;
};

}  // namespace detail

inline detail::LogStream logDebug() { return detail::LogStream(LogLevel::Debug); }
inline detail::LogStream logInfo() { return detail::LogStream(LogLevel::Info); }
inline detail::LogStream logWarn() { return detail::LogStream(LogLevel::Warn); }
inline detail::LogStream logError() { return detail::LogStream(LogLevel::Error); }

}  // namespace capi::support

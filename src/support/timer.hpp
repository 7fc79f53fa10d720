// Wall-clock timing helpers used by the measurement substrates and benches.
#pragma once

#include <chrono>
#include <cstdint>

namespace capi::support {

/// Monotonic wall-clock timestamp in nanoseconds.
inline std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

#if defined(__x86_64__) || defined(__i386__)
#define CAPI_HAS_TSC_CLOCK 1
namespace detail {
struct TscCalibration {
    std::uint64_t tscBase = 0;  ///< rdtsc at calibration.
    std::uint64_t nsBase = 0;   ///< nowNs() at calibration.
    double nsPerTick = 1.0;
};
/// Calibrated once per process against the monotonic clock (~200us spin on
/// first use). Ticks are converted relative to tscBase so the value pushed
/// through the double mantissa stays small — a raw TSC exceeds 2^53 after
/// weeks of host uptime and would quantize timestamps to several ns.
inline const TscCalibration& tscCalibration() {
    static const TscCalibration calibration = [] {
        TscCalibration c;
        c.nsBase = nowNs();
        c.tscBase = __builtin_ia32_rdtsc();
        std::uint64_t wallEnd;
        do {
            wallEnd = nowNs();
        } while (wallEnd - c.nsBase < 200'000);
        std::uint64_t tscEnd = __builtin_ia32_rdtsc();
        c.nsPerTick = static_cast<double>(wallEnd - c.nsBase) /
                      static_cast<double>(tscEnd - c.tscBase);
        return c;
    }();
    return calibration;
}
}  // namespace detail

/// Probe timestamp in nanoseconds: one rdtsc plus one multiply instead of a
/// clock_gettime syscall/vDSO round trip — the same trick real measurement
/// runtimes (Score-P, XRay) use, since the timestamp pair is the dominant
/// cost of an enter/exit probe. Comparable with nowNs() values (same base).
/// Assumes an invariant TSC (as the Linux clocksource does); consumers of
/// timestamp *differences* should clamp the rare cross-core skew to zero.
inline std::uint64_t probeNowNs() {
    const detail::TscCalibration& cal = detail::tscCalibration();
    // Signed tick delta: a core with slight negative TSC skew right after
    // calibration must not wrap to 2^64 ticks.
    double ns = static_cast<double>(static_cast<std::int64_t>(
                    __builtin_ia32_rdtsc() - cal.tscBase)) *
                cal.nsPerTick;
    return ns <= 0 ? cal.nsBase : cal.nsBase + static_cast<std::uint64_t>(ns);
}
#else
inline std::uint64_t probeNowNs() { return nowNs(); }
#endif

/// Simple stopwatch. Constructed running.
class Timer {
public:
    Timer() : start_(nowNs()) {}

    void restart() { start_ = nowNs(); }

    std::uint64_t elapsedNs() const { return nowNs() - start_; }
    double elapsedSec() const { return static_cast<double>(elapsedNs()) / 1e9; }

private:
    std::uint64_t start_;
};

/// Accumulates into a target on destruction; for timing scopes inside loops.
class ScopedAccumulator {
public:
    explicit ScopedAccumulator(std::uint64_t& target) : target_(target) {}
    ~ScopedAccumulator() { target_ += timer_.elapsedNs(); }
    ScopedAccumulator(const ScopedAccumulator&) = delete;
    ScopedAccumulator& operator=(const ScopedAccumulator&) = delete;

private:
    std::uint64_t& target_;
    Timer timer_;
};

}  // namespace capi::support

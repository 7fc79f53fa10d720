// Process-wide self-observability metrics registry.
//
// Every subsystem that keeps runtime health counters (measurement probe
// counts, selector-cache survival, CSR snapshot builds, XRay transactions,
// controller health, MPI evictions, fault sites) registers here so one
// snapshot describes the whole control plane — no more per-subsystem
// accessor plumbing in tools. Two registration styles:
//
//  * Owned metrics — counter()/gauge()/histogram() return a stable reference
//    to a padded atomic cell. Registration is once per name (a second call
//    with the same name returns the same cell); the WRITE path is lock-free
//    in the PR 5 counter style: one relaxed atomic RMW, no registry lock,
//    safe from any thread including measurement hot paths.
//
//  * Collectors — callbacks that append Samples at snapshot() time, for
//    subsystems whose counters already exist in their own lock-free form
//    (Measurement's per-thread padded counters, SelectorCache's sharded
//    stats). The subsystem keeps its write path untouched and pays only at
//    read time.
//
// Naming scheme (Prometheus-compatible): `capi_<subsystem>_<metric>` with
// `_total` on monotonic counters; instance/site dimensions ride as embedded
// labels, e.g. `capi_fault_fires_total{site="xray.mprotect"}`. The text
// exposition in obs/export.hpp renders this directly.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace capi::obs {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// One exported value at snapshot time. `name` may embed Prometheus labels
/// (`...{site="x"}`); exporters group families by the name up to the brace.
struct Sample {
    std::string name;
    MetricKind kind = MetricKind::Gauge;
    double value = 0.0;        ///< Counter count / gauge value / histogram sum.
    std::uint64_t count = 0;   ///< Histogram observation count.
    /// Histogram buckets as (upper bound, cumulative count), last = +Inf.
    std::vector<std::pair<double, std::uint64_t>> buckets;
};

/// Monotonic counter cell. Padded to its own cacheline so unrelated metrics
/// never write-share; add() is one relaxed RMW (multi-writer safe — a
/// single-writer caller on a hot path should keep its own PR 5-style
/// per-thread counters and fold through a collector instead).
class Counter {
public:
    void add(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (stored as double bits).
class Gauge {
public:
    void set(double value) {
        bits_.store(std::bit_cast<std::uint64_t>(value),
                    std::memory_order_relaxed);
    }
    double value() const {
        return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
    }

private:
    alignas(64) std::atomic<std::uint64_t> bits_{0};
};

/// Log2-bucketed histogram of non-negative integer observations (latencies
/// in ns, span counts). Bucket b holds values of bit-width b, i.e. upper
/// bound 2^b - 1; observe() is two relaxed RMWs, lock-free.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 65;  ///< bit_width(v) in [0, 64].

    void observe(std::uint64_t value) {
        buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    std::uint64_t bucketCount(std::size_t b) const {
        return buckets_[b].load(std::memory_order_relaxed);
    }

private:
    alignas(64) std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// THE process-wide registry every subsystem registers into.
    static MetricsRegistry& global();

    /// Registration-once lookup: the first call creates the cell, later
    /// calls with the same name return the SAME cell (so two call sites
    /// naming one logical counter share it). Throws support::Error when the
    /// name is already registered with a different kind. The returned
    /// reference is stable for the registry's lifetime.
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Pull-side collector: invoked under the registry mutex at snapshot()
    /// time to append Samples. Returns a handle for removeCollector();
    /// objects shorter-lived than the registry MUST unregister in their
    /// destructor. Collectors must not call back into this registry.
    std::uint64_t addCollector(std::function<void(std::vector<Sample>&)> fn);
    void removeCollector(std::uint64_t id);

    /// All owned metrics plus every collector's samples, sorted by name.
    /// Owned-metric reads are relaxed (mid-run values may trail in-flight
    /// writers by a few increments — fine for monitoring); collectors define
    /// their own mid-run semantics.
    std::vector<Sample> snapshot() const;

    std::size_t metricCount() const;
    std::size_t collectorCount() const;

private:
    struct Entry {
        std::string name;
        MetricKind kind;
        // At most one is engaged, per kind; deque gives stable addresses.
        Counter counter;
        Gauge gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry& entryFor(const std::string& name, MetricKind kind);

    mutable std::mutex mutex_;
    std::deque<Entry> entries_;
    std::vector<std::pair<std::string, std::size_t>> byName_;
    std::uint64_t nextCollectorId_ = 1;
    std::vector<std::pair<std::uint64_t,
                          std::function<void(std::vector<Sample>&)>>>
        collectors_;
};

}  // namespace capi::obs

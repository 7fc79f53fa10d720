#include "scorepsim/measurement.hpp"

#include <chrono>
#include <thread>

#include "obs/metrics.hpp"
#include "scorepsim/tracing.hpp"
#include "support/error.hpp"
#include "support/thread_cache.hpp"
#include "support/timer.hpp"

namespace capi::scorep {

namespace {
using StateCache = support::ThreadLocalCache<Measurement>;
}  // namespace

Measurement::Measurement(MeasurementOptions options)
    : options_(std::move(options)),
      generation_(support::nextGenerationStamp()),
      chunks_(std::make_unique<std::unique_ptr<RegionDef[]>[]>(kMaxRegionChunks)),
      samplingChunks_(
          std::make_unique<std::atomic<std::atomic<std::uint64_t>*>[]>(
              kMaxRegionChunks)) {
    for (std::size_t i = 0; i < kMaxRegionChunks; ++i) {
        samplingChunks_[i].store(nullptr, std::memory_order_relaxed);
    }
    // Live per-instance view in the metrics registry; the hot path is
    // untouched — the collector aggregates the existing per-thread counters
    // at snapshot time only.
    metricsCollectorId_ = obs::MetricsRegistry::global().addCollector(
        [this](std::vector<obs::Sample>& out) {
            const std::string base = "{m=\"" + std::to_string(instanceId()) +
                                     "\"}";
            out.push_back({"capi_scorep_probe_events" + base,
                           obs::MetricKind::Counter,
                           static_cast<double>(probeEvents()), 0, {}});
            out.push_back({"capi_scorep_filtered_events" + base,
                           obs::MetricKind::Counter,
                           static_cast<double>(filteredEvents()), 0, {}});
            out.push_back({"capi_scorep_suppressed_events" + base,
                           obs::MetricKind::Counter,
                           static_cast<double>(suppressedEvents()), 0, {}});
        });
}

Measurement::~Measurement() {
    // Retire this instance's live view and fold its final totals into the
    // process-lifetime counters so instance churn never loses events.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.removeCollector(metricsCollectorId_);
    registry.counter("capi_scorep_probe_events_total").add(probeEvents());
    registry.counter("capi_scorep_filtered_events_total").add(filteredEvents());
    registry.counter("capi_scorep_suppressed_events_total")
        .add(suppressedEvents());
    // Courtesy: drop the destroying thread's cache entry. Entries on other
    // threads go stale but are generation-checked, never dereferenced.
    StateCache::invalidate(this);
    for (std::size_t i = 0; i < kMaxRegionChunks; ++i) {
        delete[] samplingChunks_[i].load(std::memory_order_relaxed);
    }
}

RegionHandle Measurement::defineRegion(const std::string& name) {
    std::lock_guard<std::mutex> lock(regionMutex_);
    auto it = regionByName_.find(name);
    if (it != regionByName_.end()) {
        return it->second;
    }
    std::uint32_t handle = publishedRegions_.load(std::memory_order_relaxed);
    std::size_t chunk = handle >> kRegionChunkBits;
    if (chunk >= kMaxRegionChunks) {
        throw support::Error("Score-P: region definition space exhausted");
    }
    if (chunks_[chunk] == nullptr) {
        chunks_[chunk] = std::make_unique<RegionDef[]>(kRegionChunkSize);
    }
    RegionDef& def = chunks_[chunk][handle & (kRegionChunkSize - 1)];
    def.name = name;
    if (options_.runtimeFiltering) {
        def.filtered = !options_.runtimeFilter.isIncluded(name);
    }
    regionByName_.emplace(name, handle);
    // Injection site: the publication stalls between writing the definition
    // and bumping the published count (magnitude = microseconds). Readers
    // must keep treating the region as undefined for the whole window —
    // exactly the invariant the release-publish protocol guarantees.
    if (support::fault::anyArmed()) {
        double stallUs = support::fault::inflationFactor(
            support::fault::sites::kScorepPublishStall);
        if (stallUs > 1.0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(static_cast<std::int64_t>(stallUs)));
        }
    }
    // Publish after the definition is fully written.
    publishedRegions_.store(handle + 1, std::memory_order_release);
    return handle;
}

void Measurement::inflateRecordedVisit(ThreadState& state, std::uint32_t node) {
    double factor = support::fault::inflationFactor(
        support::fault::sites::kScorepProbeInflate);
    for (double extra = factor; extra > 1.0; extra -= 1.0) {
        state.tree.recordVisit(node, 0);
    }
}

const RegionDef& Measurement::region(RegionHandle handle) const {
    if (handle >= publishedRegions_.load(std::memory_order_acquire)) {
        throw support::Error("Score-P: bad region handle");
    }
    return regionUnlocked(handle);
}

std::size_t Measurement::regionCount() const {
    return publishedRegions_.load(std::memory_order_acquire);
}

Measurement::ThreadState& Measurement::threadStateSlow() {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    threads_.push_back(std::make_unique<ThreadState>());
    ThreadState* state = threads_.back().get();
    StateCache::store(this, generation_, state);
    return *state;
}

void Measurement::throwBadHandle() const {
    throw support::Error("Score-P: probe with bad region handle");
}

void Measurement::throwUnbalancedExit(const ThreadState& state,
                                      RegionHandle handle) const {
    if (state.stack.empty()) {
        throw support::Error("Score-P: region exit with empty call stack");
    }
    throw support::Error("Score-P: unbalanced region exit for '" +
                         region(handle).name + "'");
}

void Measurement::traceRecord(RegionHandle handle, bool isEnter,
                              std::uint64_t now) {
    options_.trace->record(
        handle, isEnter ? TraceEventType::Enter : TraceEventType::Exit, now);
}

const ProfileTree& Measurement::threadProfile() { return threadState().tree; }

ProfileTree Measurement::mergedProfile() const {
    ProfileTree merged;
    std::lock_guard<std::mutex> lock(threadsMutex_);
    for (const auto& thread : threads_) {
        merged.mergeFrom(thread->tree);
    }
    return merged;
}

std::uint64_t Measurement::probeEvents() const {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    std::uint64_t total = 0;
    for (const auto& thread : threads_) {
        total += thread->probeEvents.load(std::memory_order_relaxed);
    }
    return total;
}

std::uint64_t Measurement::filteredEvents() const {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    std::uint64_t total = 0;
    for (const auto& thread : threads_) {
        total += thread->filteredEvents.load(std::memory_order_acquire);
    }
    return total;
}

std::uint64_t Measurement::suppressedEvents() const {
    std::lock_guard<std::mutex> lock(threadsMutex_);
    std::uint64_t total = 0;
    for (const auto& thread : threads_) {
        total += thread->suppressedEvents.load(std::memory_order_acquire);
    }
    return total;
}

void Measurement::growGates(ThreadState& state, RegionHandle handle) {
    state.gates.resize(static_cast<std::size_t>(handle) + 1);
}

void Measurement::setRegionSampling(RegionHandle handle, std::uint32_t everyN,
                                    std::uint64_t minIntervalNs) {
    std::lock_guard<std::mutex> lock(regionMutex_);
    if (handle >= publishedRegions_.load(std::memory_order_relaxed)) {
        throw support::Error("Score-P: sampling spec for bad region handle");
    }
    if (everyN == 0) {
        everyN = 1;
    }
    if (minIntervalNs > UINT32_MAX) {
        minIntervalNs = UINT32_MAX;  // The spec word carries 32 interval bits.
    }
    std::uint64_t word = (everyN <= 1 && minIntervalNs == 0)
                             ? 0
                             : (minIntervalNs << 32) | everyN;
    std::size_t chunk = handle >> kRegionChunkBits;
    std::atomic<std::uint64_t>* cells =
        samplingChunks_[chunk].load(std::memory_order_relaxed);
    if (cells == nullptr) {
        if (word == 0) {
            return;  // Clearing a never-sampled chunk: nothing to publish.
        }
        cells = new std::atomic<std::uint64_t>[kRegionChunkSize]();
        samplingChunks_[chunk].store(cells, std::memory_order_release);
    }
    std::atomic<std::uint64_t>& cell = cells[handle & (kRegionChunkSize - 1)];
    std::uint64_t previous = cell.load(std::memory_order_relaxed);
    cell.store(word, std::memory_order_relaxed);
    if (previous == 0 && word != 0) {
        samplingRegions_.fetch_add(1, std::memory_order_release);
    } else if (previous != 0 && word == 0) {
        samplingRegions_.fetch_sub(1, std::memory_order_release);
    }
}

std::pair<std::uint32_t, std::uint64_t> Measurement::regionSampling(
    RegionHandle handle) const {
    if (handle >= publishedRegions_.load(std::memory_order_acquire)) {
        throw support::Error("Score-P: bad region handle");
    }
    const std::atomic<std::uint64_t>* cells =
        samplingChunks_[handle >> kRegionChunkBits].load(
            std::memory_order_acquire);
    std::uint64_t word =
        cells == nullptr ? 0
                         : cells[handle & (kRegionChunkSize - 1)].load(
                               std::memory_order_relaxed);
    if (word == 0) {
        return {1, 0};
    }
    return {static_cast<std::uint32_t>(word), word >> 32};
}

std::unordered_map<RegionHandle, std::uint64_t> Measurement::suppressedVisits()
    const {
    std::unordered_map<RegionHandle, std::uint64_t> totals;
    std::lock_guard<std::mutex> lock(threadsMutex_);
    for (const auto& thread : threads_) {
        for (std::size_t handle = 0; handle < thread->gates.size(); ++handle) {
            std::uint64_t suppressed = thread->gates[handle].suppressedVisits;
            if (suppressed != 0) {
                totals[static_cast<RegionHandle>(handle)] += suppressed;
            }
        }
    }
    return totals;
}

double calibrateProbeCostNs(std::size_t eventPairs) {
    if (eventPairs == 0) {
        eventPairs = 1;  // A zero-sized calibration would divide by zero.
    }
    Measurement scratch;
    RegionHandle region = scratch.defineRegion("__capi_probe_calibration");
    // Warm the thread state and region chunk before timing.
    scratch.enter(region);
    scratch.exit(region);
    support::Timer timer;
    for (std::size_t i = 0; i < eventPairs; ++i) {
        scratch.enter(region);
        scratch.exit(region);
    }
    double ns = static_cast<double>(timer.elapsedNs());
    return ns / static_cast<double>(eventPairs * 2);
}

double calibrateGateCostNs(std::size_t eventPairs) {
    if (eventPairs == 0) {
        eventPairs = 1;
    }
    Measurement scratch;
    RegionHandle region = scratch.defineRegion("__capi_gate_calibration");
    // A countdown longer than the loop keeps every timed visit on the
    // suppressed path once the first visit has been admitted.
    scratch.setRegionSampling(region, UINT32_MAX, 0);
    scratch.enter(region);
    scratch.exit(region);
    support::Timer timer;
    for (std::size_t i = 0; i < eventPairs; ++i) {
        scratch.enter(region);
        scratch.exit(region);
    }
    double ns = static_cast<double>(timer.elapsedNs());
    return ns / static_cast<double>(eventPairs * 2);
}

}  // namespace capi::scorep

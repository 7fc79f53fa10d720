// The Score-P measurement runtime (profiling mode).
//
// Maintains region definitions, per-thread shadow stacks and call-path
// profile trees. Supports Score-P's runtime filtering: probes of filtered
// regions still fire — the handler is invoked and the filtered flag checked
// — but nothing is recorded, which is precisely why the paper's
// selective *patching* beats runtime filtering on overhead.
//
// The per-event path is lock-free and share-nothing: thread state resolves
// through a generation-stamped thread_local cache (one TLS load + two
// compares after first touch), event counters are per-thread and
// cache-line padded (aggregated under the thread-list mutex only on read),
// and the dominant re-enter-same-child descent is served by a last-callee
// memo on the shadow-stack entry without touching the tree's child index.
//
// Regions can additionally carry a per-region *sampling gate* (the Sampled
// tier of select::InstrumentationPolicy): a counter admits 1-in-everyN
// visits and a calibrated-TSC interval check drops admissions closer than
// minIntervalNs to the previous recorded one. Suppressed visits skip both
// timestamps and the profile record — they cost a counter decrement, not
// two TSC reads — but still push a shadow-stack frame, so the call-path
// structure (and every child's attribution) is exactly that of a Full run.
// Gate state is per-thread (share-nothing, like the profile trees); the
// gate *spec* lives in atomically published chunks parallel to the region
// definitions, and the same-callee re-entry memo caches the spec word so
// the dominant path never chases the chunk pointer. Spec changes must
// happen at quiescent points (the mergedProfile discipline): stack memos
// die when stacks empty, so a quiesced thread re-reads specs on re-entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scorepsim/filter_file.hpp"
#include "scorepsim/profile.hpp"
#include "support/fault.hpp"
#include "support/thread_cache.hpp"
#include "support/timer.hpp"

namespace capi::scorep {

class TraceBuffer;

/// Measures the wall-clock cost of one probe event (half an enter/exit pair)
/// by driving a scratch Measurement through `eventPairs` region round trips.
/// This is the calibrated per-event cost the adaptive overhead model scales
/// visit counts with; rerun it on the deployment machine, not once globally
/// — and re-run it after any change to the measurement hot path, since every
/// adaptive-budget decision is computed from this constant.
double calibrateProbeCostNs(std::size_t eventPairs = 1 << 14);

/// Companion calibration for the *suppressed* path: the cost of one probe
/// event whose visit the sampling gate drops (counter decrement, no TSC
/// read, no profile record). The adaptive planner charges Sampled regions
/// (N-1)/N of their visits at this rate and 1/N at the full probe rate.
double calibrateGateCostNs(std::size_t eventPairs = 1 << 14);

struct MeasurementOptions {
    bool runtimeFiltering = false;
    FilterFile runtimeFilter;  ///< Only used when runtimeFiltering is true.
    /// Tracing mode: every unfiltered enter/exit is also recorded here
    /// (not owned; must outlive the Measurement).
    TraceBuffer* trace = nullptr;
};

struct RegionDef {
    std::string name;
    bool filtered = false;  ///< Excluded by the runtime filter at definition.
};

class Measurement {
public:
    explicit Measurement(MeasurementOptions options = {});
    ~Measurement();

    Measurement(const Measurement&) = delete;
    Measurement& operator=(const Measurement&) = delete;

    /// Defines (or looks up) a region by name. Thread-safe. The runtime
    /// filter is evaluated once here, as in Score-P.
    RegionHandle defineRegion(const std::string& name);

    const RegionDef& region(RegionHandle handle) const;
    std::size_t regionCount() const;

    /// Region enter/exit probes. Filtered regions return immediately (the
    /// probe cost is retained, the measurement is skipped). Fast paths are
    /// header-inline: at ~50ns/pair every call boundary is measurable, and
    /// this per-event constant is the paper's whole cost model.
    void enter(RegionHandle handle) {
        ThreadState& state = threadState();
        bumpCounter(state.probeEvents);
        if (handle >= publishedRegions_.load(std::memory_order_acquire)) {
            throwBadHandle();
        }
        if (regionUnlocked(handle).filtered) {
            bumpCounterRelease(state.filteredEvents);
            return;  // Probe cost retained, measurement skipped.
        }
        std::uint32_t node;
        std::uint64_t gateWord;
        if (state.stack.empty()) {
            if (state.rootCalleeRegion == handle) {
                node = state.rootCalleeNode;
            } else {
                node = static_cast<std::uint32_t>(
                    state.tree.childOf(state.tree.root(), handle));
                state.rootCalleeRegion = handle;
                state.rootCalleeNode = node;
            }
            // Root-level enters re-read the gate spec every time: the root
            // memo survives quiescent points, so caching the spec word here
            // would let a pre-quiesce spec leak past a reconfiguration.
            gateWord = samplingWordOf(handle);
        } else {
            ThreadState::StackEntry& top = state.stack.back();
            if (top.lastCalleeRegion == handle) {
                node = top.lastCalleeNode;
                gateWord = top.lastCalleeWord;
            } else {
                node = static_cast<std::uint32_t>(
                    state.tree.childOf(top.node, handle));
                gateWord = samplingWordOf(handle);
                top.lastCalleeRegion = handle;
                top.lastCalleeNode = node;
                top.lastCalleeWord = gateWord;
            }
        }
        std::uint64_t now;
        if (gateWord == 0) {
            now = support::probeNowNs();
        } else {
            now = gateAdmit(state, handle, gateWord);
            if (now == kSuppressedEnterNs) {
                bumpCounterRelease(state.suppressedEvents);
                // Suppressed frame: keeps the call-path structure (children
                // attribute under this region's node) but records nothing.
                state.stack.push_back(
                    {node, handle, kNoRegion, 0, 0, kSuppressedEnterNs});
                return;
            }
        }
        state.stack.push_back({node, handle, kNoRegion, 0, 0, now});
        if (options_.trace != nullptr) {
            traceRecord(handle, /*isEnter=*/true, now);
        }
    }

    void exit(RegionHandle handle) {
        ThreadState& state = threadState();
        bumpCounter(state.probeEvents);
        if (handle >= publishedRegions_.load(std::memory_order_acquire)) {
            throwBadHandle();
        }
        if (regionUnlocked(handle).filtered) {
            bumpCounterRelease(state.filteredEvents);
            return;
        }
        if (state.stack.empty() || state.stack.back().region != handle) {
            throwUnbalancedExit(state, handle);
        }
        ThreadState::StackEntry top = state.stack.back();
        state.stack.pop_back();
        if (top.enterNs == kSuppressedEnterNs) {
            bumpCounterRelease(state.suppressedEvents);
            return;  // Suppressed visit: no timestamp, no record, no trace.
        }
        std::uint64_t now = support::probeNowNs();
        // Clamp the rare cross-core TSC skew instead of underflowing.
        state.tree.recordVisit(top.node, now > top.enterNs ? now - top.enterNs : 0);
        // Injection site (probe-cost inflation): out of line behind the
        // disarmed one-load guard, so the hot path pays a single predictable
        // branch when no faults are armed.
        if (support::fault::anyArmed()) {
            inflateRecordedVisit(state, top.node);
        }
        if (options_.trace != nullptr) {
            traceRecord(handle, /*isEnter=*/false, now);
        }
    }

    /// Profile of the calling thread (creating it if needed).
    const ProfileTree& threadProfile();

    /// Merged profile over every thread that recorded events. Callers must
    /// quiesce event threads first; the per-thread trees are unsynchronized.
    ProfileTree mergedProfile() const;

    /// Total events that hit the probes (including filtered ones). Safe to
    /// call while events are in flight: sums the per-thread counters. For a
    /// consistent filtered <= probe view mid-run, read filteredEvents()
    /// first (its acquire pairs with the writer's release).
    std::uint64_t probeEvents() const;
    /// Events dropped by runtime filtering.
    std::uint64_t filteredEvents() const;
    /// Events whose visit the sampling gate suppressed (each suppressed
    /// visit contributes its enter and its exit). Mid-run safe, like
    /// probeEvents().
    std::uint64_t suppressedEvents() const;

    // --- sampling gates (the Sampled tier) ----------------------------------

    /// Installs (or, with everyN<=1 and minIntervalNs==0, clears) the
    /// sampling gate of a region: record 1 in everyN visits, and drop
    /// admissions closer than minIntervalNs to the previous recorded one
    /// (capped at ~4.3s — the spec packs into one published word).
    /// Thread-safe, but gate *semantics* change at quiescent points only:
    /// running threads keep their memo'd spec until their stacks empty.
    void setRegionSampling(RegionHandle handle, std::uint32_t everyN,
                           std::uint64_t minIntervalNs = 0);
    void clearRegionSampling(RegionHandle handle) {
        setRegionSampling(handle, 1, 0);
    }

    /// The live gate spec of a region (everyN, minIntervalNs); (1, 0) when
    /// unsampled.
    std::pair<std::uint32_t, std::uint64_t> regionSampling(RegionHandle handle) const;

    /// Per-region suppressed visit counts, summed over threads. Quiesce
    /// event threads first (like mergedProfile): per-thread gate state is
    /// unsynchronized. recorded + suppressed visits = true visits, which is
    /// what makes the overhead model's extrapolation exact for counts.
    std::unordered_map<RegionHandle, std::uint64_t> suppressedVisits() const;

    /// Process-unique instance stamp. Consumers of the cumulative counters
    /// above (the overhead model's per-epoch deltas) use this to detect a
    /// fresh Measurement: a count can repeat exactly across epochs, so the
    /// values alone cannot distinguish "no new suppressions" from "new
    /// instance, identical workload".
    std::uint64_t instanceId() const { return generation_; }

private:
    struct Gate {
        std::uint32_t countdown = 0;       ///< Visits until the next sample.
        std::uint64_t lastSampleNs = 0;    ///< Timestamp of the last admit.
        std::uint64_t suppressedVisits = 0;
    };

    struct ThreadState {
        ProfileTree tree;
        struct StackEntry {
            std::uint32_t node;
            /// Region entered by this frame: pairs the exit without a tree
            /// lookup and distinguishes suppressed frames on pop.
            RegionHandle region;
            /// Last-callee memo: the child node entered from this frame most
            /// recently. The dominant re-enter-same-child case resolves with
            /// one predictable load instead of a hash probe. The memo also
            /// caches the callee's sampling-gate spec word, so re-entries
            /// skip the gate chunk chase entirely.
            RegionHandle lastCalleeRegion;
            std::uint32_t lastCalleeNode;
            std::uint64_t lastCalleeWord;
            std::uint64_t enterNs;
        };
        std::vector<StackEntry> stack;
        /// Memo twin for the empty-stack (root-parent) case. Deliberately
        /// carries no gate word: it survives quiescent points, so it must
        /// not pin a pre-quiesce sampling spec (see enter()).
        RegionHandle rootCalleeRegion = kNoRegion;
        std::uint32_t rootCalleeNode = 0;
        /// Per-region sampling gates, indexed by handle; grown lazily on
        /// the owning thread only (share-nothing, like the tree).
        std::vector<Gate> gates;
        /// Per-thread event counters, each on its own cacheline so threads
        /// never write-share. Single writer (the owning thread); relaxed
        /// atomics so aggregation can read them mid-run.
        alignas(64) std::atomic<std::uint64_t> probeEvents{0};
        alignas(64) std::atomic<std::uint64_t> filteredEvents{0};
        alignas(64) std::atomic<std::uint64_t> suppressedEvents{0};
    };

    ThreadState& threadState() {
        if (void* cached =
                support::ThreadLocalCache<Measurement>::lookup(this, generation_)) {
            return *static_cast<ThreadState*>(cached);
        }
        return threadStateSlow();
    }
    ThreadState& threadStateSlow();

    /// enterNs sentinel of a shadow-stack frame whose visit the sampling
    /// gate dropped (probeNowNs never returns this).
    static constexpr std::uint64_t kSuppressedEnterNs = UINT64_MAX;

    /// The published gate-spec word of a region: everyN in the low 32 bits,
    /// minIntervalNs in the high 32. 0 = unsampled. One predictable shared
    /// load when no region in the process is sampled.
    std::uint64_t samplingWordOf(RegionHandle handle) const {
        if (samplingRegions_.load(std::memory_order_relaxed) == 0) {
            return 0;
        }
        const std::atomic<std::uint64_t>* cells =
            samplingChunks_[handle >> kRegionChunkBits].load(
                std::memory_order_acquire);
        return cells == nullptr
                   ? 0
                   : cells[handle & (kRegionChunkSize - 1)].load(
                         std::memory_order_relaxed);
    }

    /// Runs the two-stage gate for one visit. Returns the enter timestamp
    /// when the visit is admitted (the TSC is read at most once and reused
    /// as the enter time), kSuppressedEnterNs when it is dropped. The
    /// countdown stage suppresses without reading the TSC at all — that is
    /// the (N-1)/N fast path the planner's gate-cost rate prices.
    std::uint64_t gateAdmit(ThreadState& state, RegionHandle handle,
                            std::uint64_t word) {
        if (state.gates.size() <= handle) {
            growGates(state, handle);
        }
        Gate& gate = state.gates[handle];
        if (gate.countdown > 0) {
            --gate.countdown;
            ++gate.suppressedVisits;
            return kSuppressedEnterNs;
        }
        std::uint64_t now = support::probeNowNs();
        std::uint64_t minIntervalNs = word >> 32;
        if (minIntervalNs != 0 && now - gate.lastSampleNs < minIntervalNs) {
            ++gate.suppressedVisits;
            return kSuppressedEnterNs;
        }
        gate.countdown = static_cast<std::uint32_t>(word) - 1;
        gate.lastSampleNs = now;
        return now;
    }
    void growGates(ThreadState& state, RegionHandle handle);

    static void bumpCounter(std::atomic<std::uint64_t>& counter) {
        support::singleWriterAdd<std::uint64_t>(counter, 1);
    }
    /// The filtered counter is bumped after the probe counter; released so a
    /// reader that acquires filtered first observes filtered <= probe even
    /// on weakly-ordered machines (see support::singleWriterAdd).
    static void bumpCounterRelease(std::atomic<std::uint64_t>& counter) {
        support::singleWriterAdd<std::uint64_t>(counter, 1,
                                                std::memory_order_release);
    }

    [[noreturn]] void throwBadHandle() const;
    [[noreturn]] void throwUnbalancedExit(const ThreadState& state,
                                          RegionHandle handle) const;
    void traceRecord(RegionHandle handle, bool isEnter, std::uint64_t now);

    /// Slow path of the scorep.probe_inflate injection site: when the site
    /// fires with magnitude M > 1, records M-1 extra zero-duration visits on
    /// the node, multiplying the region's observed visit count the way a
    /// pathologically hot probe would — the overhead model then reports an
    /// inflated ratio, which is what trips the controller's kill-switch.
    void inflateRecordedVisit(ThreadState& state, std::uint32_t node);

    /// Region storage with a lock-free read path: definitions are appended
    /// under the mutex into fixed-size chunks (stable addresses) and then
    /// published via an atomic count, so the per-event probes never lock —
    /// matching real Score-P, whose profiling hot path is thread-local.
    static constexpr std::size_t kRegionChunkBits = 12;  // 4096 per chunk
    static constexpr std::size_t kRegionChunkSize = 1u << kRegionChunkBits;
    static constexpr std::size_t kMaxRegionChunks = 1u << 12;  // 16.7M regions

    const RegionDef& regionUnlocked(RegionHandle handle) const {
        return chunks_[handle >> kRegionChunkBits][handle & (kRegionChunkSize - 1)];
    }

    MeasurementOptions options_;

    /// Process-unique generation: neutralizes thread-local cache entries of
    /// a destroyed Measurement that this instance's address may be reusing.
    const std::uint64_t generation_;

    mutable std::mutex regionMutex_;
    std::unique_ptr<std::unique_ptr<RegionDef[]>[]> chunks_;
    std::atomic<std::uint32_t> publishedRegions_{0};
    std::unordered_map<std::string, RegionHandle> regionByName_;

    /// Gate-spec words, chunked parallel to the region chunks. Chunks are
    /// value-initialized under regionMutex_ and release-published, so the
    /// lock-free probe path reads only zeros or complete spec words; freed
    /// in the destructor.
    std::unique_ptr<std::atomic<std::atomic<std::uint64_t>*>[]> samplingChunks_;
    /// Count of regions with a live gate spec: the probe path's one-branch
    /// "is anything sampled at all" filter.
    std::atomic<std::uint32_t> samplingRegions_{0};

    mutable std::mutex threadsMutex_;
    std::vector<std::unique_ptr<ThreadState>> threads_;

    /// obs::MetricsRegistry collector handle (label m="<instanceId>").
    std::uint64_t metricsCollectorId_ = 0;
};

}  // namespace capi::scorep

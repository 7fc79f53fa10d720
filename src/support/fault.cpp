#include "support/fault.hpp"

#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace capi::support::fault {

namespace {

struct Site {
    FaultSpec spec;
    SplitMix64 rng{0};
    bool armed = false;
    SiteStats counters;
};

struct Registry {
    std::mutex mutex;
    std::unordered_map<std::string, Site> sites;
};

Registry& registry() {
    static Registry instance;
    // Fold per-site hit/fire counters into the process metrics registry so
    // fault-injection runs are inspectable without bespoke accessors. Both
    // singletons live until process exit, so no unregistration.
    static const std::uint64_t collectorId =
        obs::MetricsRegistry::global().addCollector(
            [](std::vector<obs::Sample>& out) {
                std::lock_guard<std::mutex> lock(instance.mutex);
                for (const auto& [name, site] : instance.sites) {
                    out.push_back({"capi_fault_hits_total{site=\"" + name +
                                       "\"}",
                                   obs::MetricKind::Counter,
                                   static_cast<double>(site.counters.hits), 0, {}});
                    out.push_back({"capi_fault_fires_total{site=\"" + name +
                                       "\"}",
                                   obs::MetricKind::Counter,
                                   static_cast<double>(site.counters.fires), 0, {}});
                }
            });
    (void)collectorId;
    return instance;
}

}  // namespace

namespace detail {

std::optional<double> hitSlow(const char* site) {
    if (t_suppressDepth > 0) {
        return std::nullopt;  // Rollback in progress: nothing may fail.
    }
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.sites.find(site);
    if (it == reg.sites.end() || !it->second.armed) {
        return std::nullopt;
    }
    Site& s = it->second;
    ++s.counters.hits;
    if (s.counters.hits <= s.spec.afterHits) {
        return std::nullopt;  // Still in the skip window.
    }
    if (s.counters.fires >= s.spec.maxFires) {
        return std::nullopt;  // One-shot (or capped) site is spent.
    }
    if (s.spec.probability < 1.0 && !s.rng.nextBool(s.spec.probability)) {
        return std::nullopt;
    }
    ++s.counters.fires;
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        recorder.recordInstant(
            recorder.internName(std::string("fault.fire:") + site),
            obs::SpanCategory::Fault, probeNowNs(), s.counters.fires);
    }
    return s.spec.magnitude;
}

}  // namespace detail

void arm(const std::string& site, FaultSpec spec, std::uint64_t seed) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    Site& s = reg.sites[site];
    if (!s.armed) {
        detail::g_armedSites.fetch_add(1, std::memory_order_relaxed);
    }
    s.spec = spec;
    // Per-site stream: the schedule depends only on (seed, site name) and
    // the site's own hit sequence, never on arming order or other sites.
    s.rng = SplitMix64(hashCombine(seed, fnv1a(site)));
    s.armed = true;
    s.counters = SiteStats{};
}

void disarm(const std::string& site) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.sites.find(site);
    if (it == reg.sites.end() || !it->second.armed) {
        return;
    }
    it->second.armed = false;
    detail::g_armedSites.fetch_sub(1, std::memory_order_relaxed);
}

void disarmAll() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& [name, site] : reg.sites) {
        if (site.armed) {
            site.armed = false;
            detail::g_armedSites.fetch_sub(1, std::memory_order_relaxed);
        }
    }
}

SiteStats stats(const std::string& site) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto it = reg.sites.find(site);
    return it == reg.sites.end() ? SiteStats{} : it->second.counters;
}

std::uint64_t totalFires() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::uint64_t total = 0;
    for (const auto& [name, site] : reg.sites) {
        total += site.counters.fires;
    }
    return total;
}

}  // namespace capi::support::fault

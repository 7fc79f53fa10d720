#include "adapt/controller.hpp"

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/backoff.hpp"
#include "support/timer.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::adapt {

namespace {

/// Interned span names for the controller phases, resolved once.
struct ControllerSpanNames {
    std::uint32_t epoch;
    std::uint32_t model;
    std::uint32_t plan;
    std::uint32_t patch;
    std::uint32_t revert;
    std::uint32_t killSwitchTrip;
    std::uint32_t killSwitchRearm;
};

const ControllerSpanNames& controllerSpanNames() {
    static const ControllerSpanNames names = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return ControllerSpanNames{r.internName("adapt.epoch"),
                                   r.internName("adapt.model"),
                                   r.internName("adapt.plan"),
                                   r.internName("adapt.patch"),
                                   r.internName("adapt.revert"),
                                   r.internName("adapt.kill_switch_trip"),
                                   r.internName("adapt.kill_switch_rearm")};
    }();
    return names;
}

}  // namespace

const char* healthName(EpochHealth health) {
    switch (health) {
        case EpochHealth::Healthy: return "healthy";
        case EpochHealth::Degraded: return "degraded";
        case EpochHealth::SafeMode: return "safe-mode";
    }
    return "<unknown>";
}

Controller::Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
                       Config config)
    : dyn_(&dyn),
      decider_(graph, std::move(config),
               {.model = controllerSpanNames().model,
                .plan = controllerSpanNames().plan}),
      session_(std::make_unique<dyncapi::RefinementSession>(
          graph, decider_.config().pool)) {
    // Lifetime HealthStats and the latest epoch's headline numbers, exported
    // from end-of-epoch snapshot copies so the collector never races the
    // controller's working state.
    static std::atomic<std::uint64_t> nextSeq{0};
    const std::uint64_t seq = nextSeq.fetch_add(1, std::memory_order_relaxed);
    metricsCollectorId_ = obs::MetricsRegistry::global().addCollector(
        [this, seq](std::vector<obs::Sample>& out) {
            HealthStats health;
            EpochReport report;
            {
                std::lock_guard<std::mutex> lock(obsMutex_);
                health = obsHealth_;
                report = obsReport_;
            }
            const std::string base = "{ctl=\"" + std::to_string(seq) + "\"}";
            auto counter = [&out, &base](const char* name,
                                         std::uint64_t value) {
                obs::Sample s;
                s.name = std::string(name) + base;
                s.kind = obs::MetricKind::Counter;
                s.value = static_cast<double>(value);
                out.push_back(std::move(s));
            };
            auto gauge = [&out, &base](const char* name, double value) {
                obs::Sample s;
                s.name = std::string(name) + base;
                s.kind = obs::MetricKind::Gauge;
                s.value = value;
                out.push_back(std::move(s));
            };
            counter("capi_adapt_patch_failures_total", health.patchFailures);
            counter("capi_adapt_patch_retries_total", health.patchRetries);
            counter("capi_adapt_reversions_total", health.reversions);
            counter("capi_adapt_kill_switch_trips_total",
                    health.killSwitchTrips);
            counter("capi_adapt_kill_switch_rearms_total",
                    health.killSwitchRearms);
            gauge("capi_adapt_epoch", static_cast<double>(report.epoch));
            gauge("capi_adapt_overhead_ratio", report.measuredOverheadRatio);
            gauge("capi_adapt_ic_size", static_cast<double>(report.icSize));
            gauge("capi_adapt_health",
                  static_cast<double>(static_cast<int>(report.health)));
            gauge("capi_adapt_self_obs_cost_ns", report.selfObsCostNs);
        });
}

Controller::~Controller() {
    obs::MetricsRegistry::global().removeCollector(metricsCollectorId_);
}

select::SelectionReport Controller::startFromSpec(const std::string& specText,
                                                  const std::string& specName,
                                                  select::SelectionOptions base) {
    select::SelectionReport report = session_->select(specText, specName, base);
    start(report.ic);
    return report;
}

dyncapi::InitStats Controller::start(select::InstrumentationConfig surveyIc) {
    decider_.start(std::move(surveyIc));
    lastReport_ = EpochReport{};
    return dyn_->applyPolicy(decider_.policy());
}

EpochHealth Controller::health() const {
    if (decider_.safeMode()) {
        return EpochHealth::SafeMode;
    }
    return degraded_ ? EpochHealth::Degraded : EpochHealth::Healthy;
}

EpochReport Controller::epoch(const scorep::ProfileTree& profile,
                              const scorep::Measurement& measurement,
                              double runtimeNs) {
    const ControllerSpanNames& spans = controllerSpanNames();
    obs::ScopedSpan epochSpan(spans.epoch, obs::SpanCategory::Epoch);
    epochSpan.setArg(lastReport_.epoch + 1);

    Decision decision =
        decider_.decide(observe(profile, measurement), runtimeNs);

    EpochReport report;
    static_cast<DecisionSummary&>(report) = decision;
    report.epoch = lastReport_.epoch + 1;
    report.runtimeNs = runtimeNs;
    report.icSize = decision.policy.size();

    auto instant = [](std::uint32_t name, std::uint64_t arg) {
        obs::TraceRecorder::global().recordInstant(
            name, obs::SpanCategory::Epoch, support::probeNowNs(), arg);
    };
    if (decision.killSwitchTripped) {
        ++healthStats_.killSwitchTrips;
        instant(spans.killSwitchTrip, report.epoch);
    } else if (decision.killSwitchRearmed) {
        // Re-armed into Degraded, not Healthy: the next planned epoch must
        // prove itself clean before the controller reports full health.
        degraded_ = true;
        ++healthStats_.killSwitchRearms;
        instant(spans.killSwitchRearm, report.epoch);
    }

    obs::ScopedSpan patchSpan(spans.patch, obs::SpanCategory::Patch);
    const select::PolicyDelta delta =
        select::policyDiff(decider_.policy(), decision.policy);
    report.addedFunctions = delta.added.size();
    report.removedFunctions = delta.removed.size();
    report.promotedFunctions = delta.promoted.size();
    report.demotedFunctions = delta.demoted.size();
    if (applyWithRetry(decision.policy, report)) {
        decider_.adopt(std::move(decision.policy));
        if (report.retriesThisEpoch > 0) {
            degraded_ = true;
        } else if (!report.killSwitchRearmed) {
            // A clean epoch heals — but the rearm epoch itself stays
            // Degraded: the planner must prove a full epoch clean first.
            degraded_ = false;
        }
    } else {
        // Retries exhausted. The transaction rolled every attempt back, so
        // the live sled/tier state still IS the Decider's policy in force —
        // the last known-good. Re-apply it as a consistency pass (normally a
        // no-op delta) and stay on the old IC.
        report.revertedToLastGood = true;
        ++healthStats_.reversions;
        instant(spans.revert, report.retriesThisEpoch);
        degraded_ = true;
        try {
            report.patch = dyn_->applyPolicyDelta(decider_.policy());
        } catch (const xray::PatchError&) {
            // Even the no-op revert failed: wedge into safe mode and make a
            // best-effort attempt to shed down to the minimal policy.
            ++healthStats_.patchFailures;
            decider_.enterSafeMode();
            try {
                select::InstrumentationPolicy safe = decider_.safeModePolicy();
                report.patch = dyn_->applyPolicyDelta(safe);
                decider_.adopt(std::move(safe));
            } catch (const xray::PatchError&) {
                ++healthStats_.patchFailures;  // Keep last-good; next epoch retries.
            }
        }
    }
    patchSpan.setArg(report.patch.functionsPatched +
                     report.patch.functionsUnpatched);
    patchSpan.end();
    report.policyFingerprint = decider_.policy().fingerprint();
    report.health = health();

    lastReport_ = report;
    publish();
    return report;
}

std::vector<RegionObservation> Controller::observe(
    const scorep::ProfileTree& profile,
    const scorep::Measurement& measurement) {
    constexpr RegionId kUnmapped = ~RegionId{0};
    if (measurement.instanceId() != regionIdsOf_) {
        regionIds_.clear();
        regionIdsOf_ = measurement.instanceId();
    }
    regionIds_.resize(measurement.regionCount(), kUnmapped);
    auto idOf = [&](scorep::RegionHandle handle) {
        RegionId& id = regionIds_.at(handle);
        if (id == kUnmapped) {
            id = decider_.regionId(measurement.region(handle).name);
        }
        return id;
    };
    // Handles are 1:1 with names within one Measurement: one slot per
    // handle, kUnmapped where the epoch left the region untouched.
    std::vector<RegionObservation> byHandle(regionIds_.size(), {kUnmapped});
    for (const auto& [handle, totals] : profile.regionTotals()) {
        byHandle[handle] = {idOf(handle), totals.visits, totals.exclusiveNs, 0};
    }
    // Sampled regions report their skipped visits through the gate's
    // cumulative per-thread suppression counters, which the model
    // differences per epoch. A region whose samples were all suppressed
    // still lands in the fold with zero recorded visits.
    for (const auto& [handle, count] : measurement.suppressedVisits()) {
        const RegionId id = idOf(handle);
        if (const std::uint64_t delta =
                decider_.suppressedDelta(regionIdsOf_, id, count)) {
            byHandle[handle].region = id;
            byHandle[handle].suppressed = delta;
        }
    }
    std::erase_if(byHandle, [](const RegionObservation& obs) {
        return obs.region == kUnmapped;
    });
    return byHandle;
}

void Controller::publish() {
    std::lock_guard<std::mutex> lock(obsMutex_);
    obsHealth_ = healthStats_;
    obsReport_ = lastReport_;
}

bool Controller::applyWithRetry(const select::InstrumentationPolicy& target,
                                EpochReport& report) {
    const Config& config = decider_.config();
    support::Backoff backoff(config.retryBackoff, /*seed=*/0);
    for (std::size_t attempt = 0; attempt <= config.patchRetries; ++attempt) {
        try {
            report.patch = dyn_->applyPolicyDelta(target);
            return true;
        } catch (const xray::PatchError&) {
            ++healthStats_.patchFailures;
            if (attempt == config.patchRetries) {
                return false;
            }
            ++healthStats_.patchRetries;
            ++report.retriesThisEpoch;
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(backoff.nextDelayNs()));
        }
    }
    return false;
}

EpochReport Controller::adoptPolicy(
    const select::InstrumentationPolicy& converged,
    const EpochReport& worldReport) {
    EpochReport report = worldReport;
    if (decider_.policy().fingerprint() != report.policyFingerprint) {
        // Diagnose, not just count: the region-level diff between what this
        // controller was running and what the world converged on.
        report.divergence = select::policyDiff(decider_.policy(), converged);
        EpochReport applied = report;
        applied.retriesThisEpoch = 0;
        if (applyWithRetry(converged, applied)) {
            decider_.adopt(converged);
            report.patch = applied.patch;
        }
        // On exhausted retries this controller stays on its last-good policy
        // — Degraded, to be reconciled again next epoch.
        if (applied.retriesThisEpoch > 0 ||
            decider_.policy().fingerprint() != report.policyFingerprint) {
            degraded_ = true;
            report.health = health();
        }
        lastReport_ = report;
    } else if (lastReport_.epoch != report.epoch) {
        // Same fingerprint but a controller that did not plan this epoch
        // itself (already converged): adopt the world report.
        lastReport_ = report;
    } else {
        return report;
    }
    publish();
    return report;
}

select::InstrumentationConfig surveyOfDefinedFunctions(
    const cg::CallGraph& graph) {
    std::vector<std::string_view> names;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (graph.desc(id).flags.hasBody) {
            names.push_back(graph.name(id));
        }
    }
    select::InstrumentationConfig ic;
    ic.specName = "survey";
    ic.setFunctions(std::move(names));
    return ic;
}

double virtualEpochRuntimeNs(const binsim::RunStats& stats,
                             const scorep::Measurement& measurement,
                             double perEventCostNs, double gateCostNs) {
    const double suppressed =
        static_cast<double>(measurement.suppressedEvents());
    const double recorded =
        static_cast<double>(measurement.probeEvents()) - suppressed;
    return stats.virtualNs + recorded * perEventCostNs +
           suppressed * gateCostNs;
}

}  // namespace capi::adapt

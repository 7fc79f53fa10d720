// The adaptive controller: a continuous measure -> decide -> delta-patch
// loop that converges the instrumented set onto an overhead budget at
// runtime, without recompilation.
//
//          +-----------(next epoch)------------+
//          v                                   |
//   [measure epoch] -> [Decider: OverheadModel -> BudgetPlanner] -> [applyIcDelta]
//    profile, runtime    EWMA per-region          greedy knapsack      flip only
//                        visits/excl. time        under the budget     changed sleds
//
// The controller replaces the one-shot refineIc threshold rule with a closed
// feedback loop: every epoch re-plans over the full survey candidate set, so
// regions excluded earlier are re-admitted when their smoothed cost drops —
// the instrumentation breathes with the workload. The decision is the
// Decider's (decider.hpp); the controller applies it, with retry/revert
// self-healing. Repatching applies only the difference to the live sleds;
// the epochs after the first touch a handful of code pages where unpatching
// everything and patching the IC again re-flips every sled page in the
// process.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/decider.hpp"
#include "binsim/execution_engine.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/refinement.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

/// The controller's self-healing state machine.
///
///   Healthy --patch failed / kill-switch armed--> Degraded/SafeMode
///   Degraded: the last epoch needed retries or reverted to the last
///             known-good policy; a clean epoch heals back to Healthy.
///   SafeMode: the Decider's overhead kill-switch tripped (or reversion
///             itself failed): only the keep-list stays instrumented until
///             killSwitchRearmEpochs consecutive in-budget epochs re-arm
///             the planner.
enum class EpochHealth : std::uint8_t { Healthy = 0, Degraded = 1, SafeMode = 2 };

const char* healthName(EpochHealth health);

/// Cumulative self-healing counters over the controller's lifetime.
struct HealthStats {
    std::uint64_t patchFailures = 0;   ///< PatchErrors caught (retries included).
    std::uint64_t patchRetries = 0;    ///< Re-apply attempts after a failure.
    std::uint64_t reversions = 0;      ///< Epochs that fell back to last-good.
    std::uint64_t killSwitchTrips = 0;
    std::uint64_t killSwitchRearms = 0;
};

/// What one epoch measured and what the controller did about it: the
/// Decider's headline numbers (DecisionSummary) plus how it was applied.
struct EpochReport : DecisionSummary {
    std::size_t epoch = 0;                ///< 1-based.
    double runtimeNs = 0.0;               ///< As reported by the embedder.
    std::size_t icSize = 0;               ///< Functions in the new IC.
    std::size_t addedFunctions = 0;       ///< Re-admitted vs previous IC.
    std::size_t removedFunctions = 0;     ///< Excluded vs previous IC.
    dyncapi::DeltaStats patch;            ///< The delta repatch that applied it.
    // --- tiered policy (zero on the binary Full|Off path) ------------------
    std::size_t promotedFunctions = 0;    ///< Sampled -> Full this epoch.
    std::size_t demotedFunctions = 0;     ///< Full -> Sampled this epoch.
    std::uint64_t policyFingerprint = 0;  ///< Fingerprint of the new policy.
    /// Divergence *diagnosis*, filled by adoptPolicy: when this controller's
    /// live policy disagreed with the converged one (a fleet client that
    /// missed a repatch or planned privately), the region-level diff
    /// live -> converged — which regions diverged and in which direction,
    /// not just that a fingerprint mismatched. Empty while converged.
    select::PolicyDelta divergence;
    // --- self-healing ------------------------------------------------------
    EpochHealth health = EpochHealth::Healthy;  ///< State after this epoch.
    std::size_t retriesThisEpoch = 0;  ///< Patch re-applies this epoch.
    bool revertedToLastGood = false;   ///< Retries exhausted; kept old policy.
};

class Controller {
public:
    /// `graph` and `dyn` must outlive the controller. Owns a
    /// dyncapi::RefinementSession so spec-driven survey selection shares
    /// stage results across epochs; it selects on Config::pool.
    Controller(const cg::CallGraph& graph, dyncapi::DynCapi& dyn,
               Config config = {});
    ~Controller();

    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    /// Runs `specText` through the session and installs the result as the
    /// survey IC via start().
    select::SelectionReport startFromSpec(const std::string& specText,
                                          const std::string& specName = "survey",
                                          select::SelectionOptions base = {});

    /// Installs a ready-made survey IC through DynCapi::applyPolicy, the
    /// same live-state diff every epoch applies; all-or-nothing, a fault
    /// raises the rolled-back xray::PatchError.
    dyncapi::InitStats start(select::InstrumentationConfig surveyIc);

    /// One epoch: turns the measured profile into observations keyed by the
    /// Decider's region ids (through a handle -> id vector kept per
    /// Measurement instance), lets the Decider fold them and re-plan over
    /// the survey candidates under the budget, and delta-patches the result.
    /// `runtimeNs` is the epoch's runtime in the same time base as the
    /// model's perEventCostNs (wall or virtual — consistency is what
    /// matters).
    EpochReport epoch(const scorep::ProfileTree& profile,
                      const scorep::Measurement& measurement, double runtimeNs);

    /// Adopts a policy converged OFF this controller, by the fleet
    /// aggregator (fleet::FleetClient drives a controller from streamed
    /// policy deltas through here). When the live fingerprint
    /// already matches `worldReport`'s, only the report is adopted;
    /// otherwise `converged` is applied with the usual retry machinery and
    /// a failure degrades health (kept last-good, reconciled next epoch).
    /// Returns the report as this controller experienced it (patch stats
    /// and health filled in).
    EpochReport adoptPolicy(const select::InstrumentationPolicy& converged,
                            const EpochReport& worldReport);

    /// The last epoch's measured overhead met the budget.
    bool converged() const { return lastReport_.epoch > 0 && lastReport_.withinBudget; }
    /// Converged, or the maxEpochs cap is exhausted.
    bool done() const {
        return converged() || lastReport_.epoch >= config().maxEpochs;
    }

    std::size_t epochsRun() const { return lastReport_.epoch; }
    const EpochReport& lastReport() const { return lastReport_; }
    /// SafeMode while the Decider is in safe mode; otherwise Degraded until
    /// a clean epoch heals it.
    EpochHealth health() const;
    const HealthStats& healthStats() const { return healthStats_; }
    /// The tiered policy currently applied.
    const select::InstrumentationPolicy& currentPolicy() const {
        return decider_.policy();
    }
    /// Its patch set, projected as an IC (a copy of the name list): for
    /// writing an IC file or an applyIc on another process.
    select::InstrumentationConfig currentIc() const {
        return decider_.policy().patchSet();
    }
    const Config& config() const { return decider_.config(); }
    dyncapi::RefinementSession& session() { return *session_; }

private:
    /// The epoch's observations: one per region handle of `measurement`
    /// that `profile` recorded or whose gate suppressed visits this epoch.
    std::vector<RegionObservation> observe(
        const scorep::ProfileTree& profile,
        const scorep::Measurement& measurement);

    /// Applies `target` with up to Config::patchRetries backoff-spaced
    /// re-applies on PatchError. Returns true and fills report.patch on
    /// success; false once the attempts are exhausted.
    bool applyWithRetry(const select::InstrumentationPolicy& target,
                        EpochReport& report);

    /// Publishes the latest report and health counters for the metrics
    /// collector.
    void publish();

    dyncapi::DynCapi* dyn_;
    Decider decider_;
    std::unique_ptr<dyncapi::RefinementSession> session_;
    EpochReport lastReport_;
    /// Measurement handle -> Decider region id, for the instance
    /// regionIdsOf_ names; rebuilt lazily when the instance changes.
    std::vector<RegionId> regionIds_;
    std::uint64_t regionIdsOf_ = 0;

    /// A patch needed retries or reverted (or the kill-switch just
    /// re-armed); a clean epoch clears it.
    bool degraded_ = false;
    HealthStats healthStats_;

    /// obs::MetricsRegistry collector handle (label ctl="<instance seq>").
    std::uint64_t metricsCollectorId_ = 0;
    /// Guards the snapshot copies the metrics collector reads; the live
    /// HealthStats/EpochReport stay single-threaded controller state.
    mutable std::mutex obsMutex_;
    HealthStats obsHealth_;
    EpochReport obsReport_;
};

/// The "instrument everything with a body" survey IC — the broadest useful
/// starting point for the controller (tools, examples and tests share it).
select::InstrumentationConfig surveyOfDefinedFunctions(const cg::CallGraph& graph);

/// Epoch runtime for virtual-clock embedders: the engine's virtual time
/// excludes probe cost, so add the modelled cost back to get the total a
/// wall clock would have seen (wall-clock embedders pass elapsed time).
/// Events whose visit the sampling gate suppressed cost a counter
/// decrement, not a full probe, so they are charged at gateCostNs; without
/// this split the virtual clock would hide exactly the savings the Sampled
/// tier exists to buy. Binary (Full/Off) instrumentation passes the
/// per-event cost for both.
double virtualEpochRuntimeNs(const binsim::RunStats& stats,
                             const scorep::Measurement& measurement,
                             double perEventCostNs, double gateCostNs);

}  // namespace capi::adapt

// The one configuration surface of the adaptive layer: every knob of the
// overhead model, the budget planner, the kill-switch and the controller's
// self-healing lives in this struct. The Decider owns a copy, builds its
// model from it and plans under it, so a fleet Aggregator and an in-process
// Controller built from the same Config share every constant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/backoff.hpp"

namespace capi::support {
class ThreadPool;
}
namespace capi::cg {
class CallGraph;
}

namespace capi::adapt {

struct Config {
    // --- measurement model -------------------------------------------------
    /// Calibrated wall (or virtual) cost of one probe event; see
    /// scorep::calibrateProbeCostNs(). Frozen estimates survive recalibration
    /// because cost is recomputed as visits x perEventCostNs at planning
    /// time — only EWMA'd visit counts are stored, never a stale product.
    double perEventCostNs = 120.0;
    /// Calibrated cost of one *suppressed* event at a Sampled region — the
    /// gate's countdown/TSC check without timestamping or CCT accounting;
    /// see scorep::calibrateGateCostNs(). This is what a demoted region
    /// still costs per skipped visit.
    double gateCostNs = 10.0;
    /// Weight of the newest epoch in the moving average (1.0 = no memory).
    double ewmaAlpha = 0.5;
    /// Calibrated cost of one self-observability trace event (see
    /// obs::calibrateObsCostNs). When nonzero, each epoch charges
    /// (events recorded since the last epoch) x this into the overhead
    /// model, so the budget covers observation of the observer. 0 (the
    /// default) keeps self-cost accounting off — matching a disabled
    /// recorder, whose record path cost is one load and a branch.
    double obsCostNs = 0.0;

    // --- budget & tiers ----------------------------------------------------
    /// Probe-time budget as a fraction of *application* runtime (probe cost
    /// excluded), so the realized overhead ratio stays below the fraction
    /// even after trimming shrinks the total runtime.
    double budgetFraction = 0.05;
    /// Regions never excluded (and never demoted): their SCC group is
    /// admitted at Full before the budget sweep and may alone exceed the
    /// budget (the user's call).
    std::vector<std::string> keep;
    /// Enables the middle knapsack rung: a group too expensive to keep at
    /// Full is demoted to Sampled (1-in-sampledEveryN decimation) before it
    /// is evicted. Off reproduces the binary Full|Off planner exactly.
    bool enableSampledTier = false;
    /// Decimation factor for demoted regions: one visit in N is timed, the
    /// other N-1 pay only gateCostNs each and are counted for extrapolation.
    std::uint32_t sampledEveryN = 64;

    // --- controller --------------------------------------------------------
    /// Epoch cap for run() convenience loops (the controller itself keeps
    /// accepting epochs beyond it).
    std::size_t maxEpochs = 10;
    /// Selection parallelism, as in PipelineOptions: null runs serially;
    /// the controller's RefinementSession runs on this pool. Planning is
    /// one pass over the planner's dense candidate table and stays serial.
    support::ThreadPool* pool = nullptr;
    /// When set (to the SAME graph the controller or aggregator was
    /// constructed over), every epoch folds measured per-region visit
    /// counts into FunctionMetrics::profiledVisits through
    /// CallGraph::touchMetrics — metric-only journal records, so
    /// re-selections patch their CSR snapshot instead of rebuilding.
    cg::CallGraph* foldVisitMetricsInto = nullptr;

    // --- self-healing ------------------------------------------------------
    /// Attempts to re-apply a failed policy patch within one epoch before
    /// reverting to the last known-good policy. Each retry waits one
    /// retryBackoff delay (jitter seeded with 0, so deterministic).
    std::size_t patchRetries = 3;
    support::BackoffOptions retryBackoff{};
    /// Overhead kill-switch: when the measured overhead ratio exceeds
    /// budgetFraction * killSwitchFactor for killSwitchEpochs consecutive
    /// epochs, the Decider trips into safe mode (minimal keep-only
    /// instrumentation). killSwitchRearmEpochs consecutive in-budget epochs
    /// in safe mode re-arm the planner (hysteresis, so a borderline workload
    /// does not flap between tripped and armed).
    double killSwitchFactor = 3.0;
    std::size_t killSwitchEpochs = 3;
    std::size_t killSwitchRearmEpochs = 2;
};

}  // namespace capi::adapt

#include "adapt/overhead_model.hpp"

#include <algorithm>
#include <cmath>

namespace capi::adapt {

namespace {

double ewma(double previous, double observed, double alpha, bool first) {
    return first ? observed : alpha * observed + (1.0 - alpha) * previous;
}

}  // namespace

void OverheadModel::observeEpoch(const scorep::ProfileTree& profile,
                                 const scorep::Measurement& measurement,
                                 double epochRuntimeNs,
                                 const select::InstrumentationConfig* activeIc) {
    observeEpoch(observationsOf(profile.regionTotals(), measurement),
                 epochRuntimeNs, activeIc);
}

std::map<std::string, OverheadModel::RegionObservation>
OverheadModel::observationsOf(
    const std::unordered_map<scorep::RegionHandle,
                             scorep::ProfileTree::RegionTotals>& regionTotals,
    const scorep::Measurement& measurement) {
    // Integer accumulation first, double conversion once per name: the sums
    // stay exact regardless of the unordered source map's iteration order.
    struct RawTotals {
        std::uint64_t visits = 0;
        std::uint64_t exclusiveNs = 0;
        std::uint64_t suppressed = 0;  ///< Gate-suppressed visits (Sampled).
    };
    std::map<std::string, RawTotals> raw;
    for (const auto& [region, totals] : regionTotals) {
        RawTotals& entry = raw[measurement.region(region).name];
        entry.visits += totals.visits;
        entry.exclusiveNs += totals.exclusiveNs;
    }

    // Sampled regions report their skipped visits through the gate's
    // per-thread suppression counters — cumulative, so fold the per-epoch
    // delta. A fresh Measurement restarts the baselines: its cumulative
    // counters are the epoch's delta, and a deterministic workload can make
    // them numerically identical to last epoch's, so the values alone
    // cannot signal the restart. A region whose samples were all suppressed
    // still lands in the fold with zero recorded visits.
    if (measurement.instanceId() != lastMeasurementId_) {
        lastSuppressed_.clear();
        lastMeasurementId_ = measurement.instanceId();
    }
    for (const auto& [region, count] : measurement.suppressedVisits()) {
        if (count == 0) {
            continue;
        }
        const std::string& name = measurement.region(region).name;
        std::uint64_t& last = lastSuppressed_[name];
        std::uint64_t delta = count >= last ? count - last : count;
        last = count;
        if (delta > 0) {
            raw[name].suppressed += delta;
        }
    }

    std::map<std::string, RegionObservation> byName;
    for (const auto& [name, totals] : raw) {
        byName[name] = RegionObservation{
            static_cast<double>(totals.visits),
            static_cast<double>(totals.exclusiveNs),
            static_cast<double>(totals.suppressed)};
    }
    return byName;
}

void OverheadModel::observeEpoch(
    const std::map<std::string, RegionObservation>& byName,
    double epochRuntimeNs, const select::InstrumentationConfig* activeIc) {
    double epochCostNs = 0.0;
    for (const auto& [name, obs] : byName) {
        // Recorded events pay the full probe; suppressed ones only the gate.
        epochCostNs += obs.visits * 2.0 * perEventCostNs_ +
                       obs.suppressed * 2.0 * gateCostNs_;
        // Extrapolate to what a Full epoch would have measured: the visit
        // count is exact (every suppression was counted); the exclusive time
        // scales the recorded sample by the decimation factor. An epoch with
        // suppressions but no recorded sample carries no time information —
        // visits update, exclusiveNs stays frozen at the last estimate.
        const double trueVisits = obs.visits + obs.suppressed;
        const double factor = obs.visits > 0.0 ? trueVisits / obs.visits : 1.0;
        RegionEstimate& estimate = estimates_[name];
        bool first = estimate.epochsObserved == 0;
        estimate.visits =
            ewma(estimate.visits, trueVisits, ewmaAlpha_, first);
        if (obs.visits > 0.0 || obs.suppressed == 0.0) {
            estimate.exclusiveNs = ewma(estimate.exclusiveNs,
                                        obs.exclusiveNs * factor,
                                        ewmaAlpha_, first);
        }
        estimate.samplingFactor =
            ewma(estimate.samplingFactor, factor, ewmaAlpha_, first);
        ++estimate.epochsObserved;
    }

    // Active regions without profile data observed zero this epoch; inactive
    // regions are unobservable and keep their frozen estimate.
    if (activeIc != nullptr) {
        for (const std::string& name : activeIc->functions) {
            if (byName.count(name) != 0) {
                continue;
            }
            auto it = estimates_.find(name);
            if (it == estimates_.end() || it->second.epochsObserved == 0) {
                continue;  // Never seen: nothing to decay.
            }
            RegionEstimate& estimate = it->second;
            estimate.visits = ewma(estimate.visits, 0.0, ewmaAlpha_, false);
            estimate.exclusiveNs =
                ewma(estimate.exclusiveNs, 0.0, ewmaAlpha_, false);
            // A region that did not run carries no extrapolation noise.
            estimate.samplingFactor =
                ewma(estimate.samplingFactor, 1.0, ewmaAlpha_, false);
            ++estimate.epochsObserved;
        }
    }

    bool first = epochs_ == 0;
    runtimeNs_ = ewma(runtimeNs_, epochRuntimeNs, ewmaAlpha_, first);
    incurredCostNs_ = ewma(incurredCostNs_, epochCostNs, ewmaAlpha_, first);
    lastEpochCostNs_ = epochCostNs;
    lastEpochRuntimeNs_ = epochRuntimeNs;
    ++epochs_;
}

void OverheadModel::chargeSelfCost(double selfCostNs) {
    if (selfCostNs <= 0.0 || epochs_ == 0) {
        return;
    }
    lastEpochCostNs_ += selfCostNs;
    // observeEpoch already folded this epoch's probe cost; add the same
    // epoch's self cost with the identical weight (epochs_ was incremented,
    // so "first" is now epochs_ == 1).
    incurredCostNs_ +=
        epochs_ == 1 ? selfCostNs : ewmaAlpha_ * selfCostNs;
}

const RegionEstimate* OverheadModel::estimate(const std::string& name) const {
    auto it = estimates_.find(name);
    return it == estimates_.end() ? nullptr : &it->second;
}

ModelState OverheadModel::saveState() const {
    ModelState state;
    state.epochs = epochs_;
    state.runtimeNs = runtimeNs_;
    state.incurredCostNs = incurredCostNs_;
    state.lastEpochCostNs = lastEpochCostNs_;
    state.lastEpochRuntimeNs = lastEpochRuntimeNs_;
    state.lastMeasurementId = lastMeasurementId_;
    state.estimates.assign(estimates_.begin(), estimates_.end());
    std::sort(state.estimates.begin(), state.estimates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    state.lastSuppressed.assign(lastSuppressed_.begin(), lastSuppressed_.end());
    std::sort(state.lastSuppressed.begin(), state.lastSuppressed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return state;
}

void OverheadModel::restoreState(const ModelState& state) {
    epochs_ = state.epochs;
    runtimeNs_ = state.runtimeNs;
    incurredCostNs_ = state.incurredCostNs;
    lastEpochCostNs_ = state.lastEpochCostNs;
    lastEpochRuntimeNs_ = state.lastEpochRuntimeNs;
    lastMeasurementId_ = state.lastMeasurementId;
    estimates_.clear();
    estimates_.insert(state.estimates.begin(), state.estimates.end());
    lastSuppressed_.clear();
    lastSuppressed_.insert(state.lastSuppressed.begin(),
                           state.lastSuppressed.end());
}

double profileErrorPercent(const scorep::Measurement& estimated,
                           const scorep::Measurement& truth) {
    struct Totals {
        double visits = 0.0;
        double exclusiveNs = 0.0;
        double suppressed = 0.0;
    };
    auto foldByName = [](const scorep::Measurement& m) {
        std::unordered_map<std::string, Totals> byName;
        for (const auto& [region, totals] : m.mergedProfile().regionTotals()) {
            Totals& entry = byName[m.region(region).name];
            entry.visits += static_cast<double>(totals.visits);
            entry.exclusiveNs += static_cast<double>(totals.exclusiveNs);
        }
        for (const auto& [region, count] : m.suppressedVisits()) {
            byName[m.region(region).name].suppressed +=
                static_cast<double>(count);
        }
        return byName;
    };

    const auto est = foldByName(estimated);
    const auto ref = foldByName(truth);
    double errorSum = 0.0;
    std::size_t regions = 0;
    for (const auto& [name, truthTotals] : ref) {
        const double trueVisits = truthTotals.visits + truthTotals.suppressed;
        if (trueVisits <= 0.0) {
            continue;
        }
        Totals estTotals;
        if (auto it = est.find(name); it != est.end()) {
            estTotals = it->second;
        }
        const double estVisits = estTotals.visits + estTotals.suppressed;
        const double factor =
            estTotals.visits > 0.0 ? estVisits / estTotals.visits : 0.0;
        const double estExclusive = estTotals.exclusiveNs * factor;
        double error = std::abs(estVisits - trueVisits) / trueVisits;
        if (truthTotals.exclusiveNs > 0.0) {
            error = 0.5 * (error + std::abs(estExclusive - truthTotals.exclusiveNs) /
                                       truthTotals.exclusiveNs);
        }
        errorSum += error;
        ++regions;
    }
    return regions == 0 ? 0.0 : 100.0 * errorSum / static_cast<double>(regions);
}

}  // namespace capi::adapt

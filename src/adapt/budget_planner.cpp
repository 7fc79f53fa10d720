#include "adapt/budget_planner.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "select/scc.hpp"

namespace capi::adapt {

namespace {

struct GroupSums {
    double costNs = 0.0;         ///< Full-tier probe cost.
    double sampledCostNs = 0.0;  ///< Sampled-tier cost: timed share + gate toll.
    double valueNs = 0.0;
};

/// A group's sort key, compact so the sort moves no indirection.
struct SweepKey {
    double valueNs;
    double costNs;
    std::uint32_t group;
};

}  // namespace

void BudgetPlanner::bind(select::InstrumentationConfig candidate,
                         const OverheadModel& model,
                         const std::vector<std::string>& keep) {
    candidate_ = std::move(candidate);
    keep_ = keep;
    buildTable(model);
}

void BudgetPlanner::buildTable(const OverheadModel& model) {
    constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
    const select::SccResult scc = select::computeScc(*graph_);
    const std::vector<std::string>& names = candidate_.functions;
    std::vector<std::uint32_t> groupOfComponent(scc.componentCount, kNone);
    std::uint32_t groups = 0;
    regions_.clear();
    groupOf_.clear();
    for (const std::string& name : names) {
        regions_.push_back(model.find(name));
        // Candidates outside the graph (added by inlining compensation
        // against a newer binary, say) form singleton groups.
        const cg::FunctionId id = graph_->lookup(name);
        if (id == cg::kInvalidFunction) {
            groupOf_.push_back(groups++);
            continue;
        }
        std::uint32_t& group = groupOfComponent[scc.component[id]];
        if (group == kNone) {
            group = groups++;
        }
        groupOf_.push_back(group);
    }
    groupKeep_.assign(groups, false);
    for (const std::string& name : keep_) {
        auto it = std::lower_bound(names.begin(), names.end(), name);
        if (it != names.end() && *it == name) {
            groupKeep_[groupOf_[it - names.begin()]] = true;
        }
    }
    tableGeneration_ = graph_->generation();
}

PlanResult BudgetPlanner::plan(select::InstrumentationConfig candidate,
                               const OverheadModel& model, const Config& config) {
    bind(std::move(candidate), model, config.keep);
    return plan(model, config);
}

PlanResult BudgetPlanner::plan(const OverheadModel& model, const Config& config) {
    PlanResult result;
    result.policy.specName = candidate_.specName.empty()
                                 ? "budget"
                                 : candidate_.specName + "+budget";
    result.policy.application = candidate_.application;

    // Metric-only touches since the table was built keep it.
    const std::optional<cg::GraphDelta> delta = graph_->deltaSince(tableGeneration_);
    bool structural = !delta;
    if (delta) {
        delta->forEachChange([&](cg::DeltaKind kind, cg::FunctionId, cg::FunctionId) {
            structural = structural || kind != cg::DeltaKind::MetricTouch;
        });
    }
    if (structural) {
        buildTable(model);
    }
    tableGeneration_ = graph_->generation();

    // Fold the estimates into their groups in candidate order.
    const std::size_t count = regions_.size();
    const std::size_t groupCount = groupKeep_.size();
    const double everyN =
        static_cast<double>(std::max<std::uint32_t>(config.sampledEveryN, 1));
    std::vector<GroupSums> groups(groupCount);
    for (std::size_t i = 0; i < count; ++i) {
        const RegionEstimate* estimate = model.estimate(regions_[i]);
        if (estimate == nullptr) {
            continue;  // Unmeasured: free.
        }
        GroupSums& group = groups[groupOf_[i]];
        const double costNs = model.probeCostNs(*estimate);
        group.costNs += costNs;
        // 1-in-N visits pay the full probe, the other N-1 the gate.
        group.sampledCostNs += costNs / everyN + estimate->visits * 2.0 *
                                                     config.gateCostNs *
                                                     (everyN - 1.0) / everyN;
        group.valueNs += estimate->exclusiveNs;
    }

    // Greedy cost/value knapsack. Keep-listed groups first (budget
    // notwithstanding, pinned at Full), free groups next (they cannot spend
    // budget), then the rest by value density — compared by cross
    // multiplication so no division noise enters the ordering; ties go to
    // the group whose first candidate comes first, which is the lower group
    // index. With the sampled tier enabled, a group whose Full cost
    // overflows the remaining budget is demoted to Sampled before it is
    // evicted.
    result.budgetNs = config.budgetFraction * model.appRuntimeNs();
    double spentNs = 0.0;
    std::vector<select::Tier> tiers(groupCount, select::Tier::Off);
    std::vector<SweepKey> sweep;
    sweep.reserve(groupCount);
    for (std::uint32_t g = 0; g < groupCount; ++g) {
        if (groupKeep_[g] || groups[g].costNs <= 0.0) {
            tiers[g] = select::Tier::Full;
            spentNs += groups[g].costNs;
        } else {
            sweep.push_back({groups[g].valueNs, groups[g].costNs, g});
        }
    }
    std::sort(sweep.begin(), sweep.end(), [](const SweepKey& a, const SweepKey& b) {
        const double lhs = a.valueNs * b.costNs;
        const double rhs = b.valueNs * a.costNs;
        if (lhs != rhs) {
            return lhs > rhs;
        }
        return a.group < b.group;
    });
    for (const SweepKey& key : sweep) {
        if (spentNs + key.costNs <= result.budgetNs) {
            tiers[key.group] = select::Tier::Full;
            spentNs += key.costNs;
        } else if (config.enableSampledTier &&
                   spentNs + groups[key.group].sampledCostNs <= result.budgetNs) {
            tiers[key.group] = select::Tier::Sampled;
            spentNs += groups[key.group].sampledCostNs;
        }
    }

    // Emit in candidate order, which is sorted: the policy's parallel-vector
    // invariant holds without a sort. The static-id map is sorted too, so
    // one cursor walks it alongside.
    const select::SamplingSpec sampledSpec{
        std::max<std::uint32_t>(config.sampledEveryN, 1), 0};
    // Assigning over a retired plan's names reuses their buffers.
    std::vector<std::string>& names = result.policy.functions;
    names = std::move(spareNames_);
    names.resize(count);
    std::size_t kept = 0;
    auto staticId = candidate_.staticIds.begin();
    result.policy.regions.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const select::Tier tier = tiers[groupOf_[i]];
        const std::string& name = candidate_.functions[i];
        if (tier == select::Tier::Off) {
            continue;
        }
        names[kept++] = name;
        const bool sampled = tier == select::Tier::Sampled;
        result.policy.regions.push_back(
            {tier, sampled ? sampledSpec : select::SamplingSpec{}});
        ++(sampled ? result.sampledRegions : result.fullRegions);
        while (staticId != candidate_.staticIds.end() && staticId->first < name) {
            ++staticId;
        }
        if (staticId != candidate_.staticIds.end() && staticId->first == name) {
            result.policy.staticIds.insert(result.policy.staticIds.end(), *staticId);
        }
    }
    names.resize(kept);

    for (std::size_t g = 0; g < groupCount; ++g) {
        if (tiers[g] != select::Tier::Off) {
            result.plannedProbeCostNs += tiers[g] == select::Tier::Sampled
                                             ? groups[g].sampledCostNs
                                             : groups[g].costNs;
        }
    }
    return result;
}

}  // namespace capi::adapt

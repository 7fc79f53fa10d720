#include "adapt/budget_planner.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "support/thread_pool.hpp"

namespace capi::adapt {

namespace {

struct CandidateInfo {
    std::uint64_t group = 0;
    double costNs = 0.0;         ///< Full-tier probe cost.
    double sampledCostNs = 0.0;  ///< Sampled-tier cost: timed share + gate toll.
    double valueNs = 0.0;
};

struct Group {
    double costNs = 0.0;
    double sampledCostNs = 0.0;
    double valueNs = 0.0;
    std::size_t firstCandidate = 0;  ///< Deterministic tie-break.
    bool keep = false;
    bool included = false;
    bool sampled = false;  ///< Included at the Sampled tier.
};

}  // namespace

PlanResult BudgetPlanner::plan(const select::InstrumentationConfig& candidate,
                               const OverheadModel& model,
                               const Config& config) const {
    PlanResult result;
    result.ic.specName = candidate.specName.empty() ? "budget"
                                                    : candidate.specName + "+budget";
    result.ic.application = candidate.application;
    result.policy.specName = result.ic.specName;
    result.policy.application = result.ic.application;

    if (model.epochCount() == 0) {
        // Nothing measured yet: no basis to exclude anything.
        result.ic.functions = candidate.functions;
        result.ic.staticIds = candidate.staticIds;
        result.policy = select::InstrumentationPolicy::fullOf(result.ic);
        result.policy.specName = result.ic.specName;
        result.fullRegions = result.policy.size();
        return result;
    }

    std::shared_ptr<const select::SccResult> scc;
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        if (cachedScc_ == nullptr || cachedGeneration_ != graph_->generation()) {
            cachedScc_ = std::make_shared<const select::SccResult>(
                select::computeScc(*graph_));
            cachedGeneration_ = graph_->generation();
        }
        scc = cachedScc_;
    }
    const std::size_t comps = scc->componentCount;

    // Phase 1 (sharded): per-candidate graph/SCC/model lookups. Each shard
    // writes a disjoint slice, so the array is identical at any width; the
    // serial sweep below consumes it in fixed candidate order, which is what
    // makes the whole plan thread-count invariant.
    const std::size_t count = candidate.functions.size();
    const double everyN =
        static_cast<double>(std::max<std::uint32_t>(config.sampledEveryN, 1));
    std::vector<CandidateInfo> info(count);
    auto lookupRange = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const std::string& name = candidate.functions[i];
            CandidateInfo& entry = info[i];
            cg::FunctionId id = graph_->lookup(name);
            // Candidates outside the graph (added by inlining compensation
            // against a newer binary, say) form singleton pseudo-groups
            // above the component id space.
            entry.group = id == cg::kInvalidFunction
                              ? static_cast<std::uint64_t>(comps) + i
                              : scc->component[id];
            if (const RegionEstimate* estimate = model.estimate(name)) {
                entry.costNs = model.probeCostNs(*estimate);
                // 1-in-N visits pay the full probe, the other N-1 the gate.
                entry.sampledCostNs =
                    entry.costNs / everyN +
                    estimate->visits * 2.0 * config.gateCostNs *
                        (everyN - 1.0) / everyN;
                entry.valueNs = estimate->exclusiveNs;
            }
        }
    };
    support::parallelFor(config.pool, count, /*minGrain=*/512, lookupRange);

    // Phase 2 (serial, deterministic): fold candidates into groups in
    // candidate order.
    std::unordered_set<std::string_view> keepSet(config.keep.begin(),
                                                 config.keep.end());
    std::unordered_map<std::uint64_t, std::size_t> groupIndex;
    std::vector<Group> groups;
    std::vector<std::size_t> groupOf(count);
    groupIndex.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        auto [it, inserted] = groupIndex.try_emplace(info[i].group, groups.size());
        if (inserted) {
            groups.push_back(Group{0.0, 0.0, 0.0, i, false, false, false});
        }
        Group& group = groups[it->second];
        groupOf[i] = it->second;
        group.costNs += info[i].costNs;
        group.sampledCostNs += info[i].sampledCostNs;
        group.valueNs += info[i].valueNs;
        group.keep = group.keep || keepSet.count(candidate.functions[i]) != 0;
    }
    result.groupsConsidered = groups.size();

    // Phase 3: greedy cost/value knapsack. Keep-listed groups first (budget
    // notwithstanding, pinned at Full), free groups next (they cannot spend
    // budget), then the rest by value density — compared by cross
    // multiplication so no division noise enters the ordering. With the
    // sampled tier enabled, a group whose Full cost overflows the remaining
    // budget is demoted to Sampled before it is evicted.
    result.budgetNs = config.budgetFraction * model.appRuntimeNs();
    double spentNs = 0.0;
    std::vector<std::size_t> sweep;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].keep || groups[g].costNs <= 0.0) {
            groups[g].included = true;
            spentNs += groups[g].costNs;
        } else {
            sweep.push_back(g);
        }
    }
    std::sort(sweep.begin(), sweep.end(), [&](std::size_t a, std::size_t b) {
        double lhs = groups[a].valueNs * groups[b].costNs;
        double rhs = groups[b].valueNs * groups[a].costNs;
        if (lhs != rhs) {
            return lhs > rhs;
        }
        return groups[a].firstCandidate < groups[b].firstCandidate;
    });
    for (std::size_t g : sweep) {
        if (spentNs + groups[g].costNs <= result.budgetNs) {
            groups[g].included = true;
            spentNs += groups[g].costNs;
        } else if (config.enableSampledTier &&
                   spentNs + groups[g].sampledCostNs <= result.budgetNs) {
            groups[g].included = true;
            groups[g].sampled = true;
            spentNs += groups[g].sampledCostNs;
        }
    }

    // Emit the policy with its regions in sorted order (the parallel-vector
    // invariant), then project the binary patch set from it.
    const select::SamplingSpec sampledSpec{
        std::max<std::uint32_t>(config.sampledEveryN, 1), 0};
    std::vector<std::pair<std::string_view, bool>> included;  // name, sampled
    included.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const Group& group = groups[groupOf[i]];
        if (group.included) {
            included.emplace_back(candidate.functions[i], group.sampled);
        } else {
            result.excluded.push_back(candidate.functions[i]);
        }
    }
    std::sort(included.begin(), included.end());
    for (const auto& [name, sampled] : included) {
        result.policy.functions.emplace_back(name);
        select::RegionPolicy region;
        region.tier = sampled ? select::Tier::Sampled : select::Tier::Full;
        if (sampled) {
            region.sampling = sampledSpec;
            ++result.sampledRegions;
        } else {
            ++result.fullRegions;
        }
        result.policy.regions.push_back(region);
        auto staticIt = candidate.staticIds.find(std::string(name));
        if (staticIt != candidate.staticIds.end()) {
            result.policy.staticIds.insert(*staticIt);
        }
    }
    result.ic.functions = result.policy.functions;
    result.ic.staticIds = result.policy.staticIds;

    for (const Group& group : groups) {
        if (group.included) {
            result.plannedProbeCostNs +=
                group.sampled ? group.sampledCostNs : group.costNs;
            result.retainedValueNs += group.valueNs;
            ++result.groupsRetained;
            if (group.sampled) {
                ++result.groupsSampled;
            }
        }
    }
    return result;
}

}  // namespace capi::adapt

// Overhead-budget exclusion planning: pick the IC subset that retains the
// most measured exclusive time while its predicted probe cost stays under a
// fraction of the application runtime.
//
// Candidates are grouped by SCC condensation component of the call graph —
// the same collapsing statementAggregation uses — and a group is kept or
// dropped as a whole, so mutually recursive regions (whose statements and
// times aggregate jointly) never end up half-instrumented. The knapsack is
// solved greedily by value density (retained exclusive ns per probe-cost
// ns), which is deterministic and within a group-size of optimal for this
// shape of instance; `keep`-listed groups are admitted first regardless of
// budget.
//
// Everything but the estimates depends only on the candidates and the
// graph's structure, so bind() resolves it once into a candidate table:
// per candidate its model RegionId and dense group index, per group its
// keep flag (groups are numbered in order of their first candidate, which
// is the sweep's tie-break). Each plan() reads the estimates by RegionId
// into per-group sums, sorts the groups and sweeps them, in one thread over
// dense arrays, and emits in candidate order, which is already sorted. The
// table is rebuilt only when the graph's structure changes: a journal slice
// of metric-only touches (the Decider's visit fold) keeps it; any other
// record, or trimmed history, rebuilds it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adapt/overhead_model.hpp"
#include "cg/call_graph.hpp"
#include "select/ic.hpp"

namespace capi::adapt {

struct PlanResult {
    /// The tiered plan. Its functions are the patch set (Full + Sampled);
    /// a candidate not listed is excluded.
    select::InstrumentationPolicy policy;
    double budgetNs = 0.0;                ///< Absolute budget this plan used.
    double plannedProbeCostNs = 0.0;      ///< Predicted cost of `policy`.
    std::size_t fullRegions = 0;
    std::size_t sampledRegions = 0;
};

class BudgetPlanner {
public:
    /// `graph` must outlive the planner.
    explicit BudgetPlanner(const cg::CallGraph& graph) : graph_(&graph) {}

    BudgetPlanner(const BudgetPlanner&) = delete;
    BudgetPlanner& operator=(const BudgetPlanner&) = delete;

    /// Makes `candidate` (typically the survey IC, so previously excluded
    /// regions can be re-admitted when budget allows) the set every plan()
    /// plans over, and builds its table. Regions `model` has not interned
    /// yet plan as unmeasured; `keep` pins the groups of the candidates it
    /// names.
    void bind(select::InstrumentationConfig candidate, const OverheadModel& model,
              const std::vector<std::string>& keep);

    /// Plans over the bound candidates. Candidates the model has no
    /// estimate for cost nothing and are kept — cold paths stay covered,
    /// exactly like refineIc's unmeasured rule — so a model with no
    /// observed epochs keeps every candidate: there is no data to exclude
    /// on.
    ///
    /// With config.enableSampledTier the greedy sweep gains a middle rung:
    /// a group whose Full cost overflows the remaining budget is retried at
    /// its Sampled cost (Full/everyN plus the gate toll on the suppressed
    /// visits) and demoted rather than evicted when that fits — SCC-group-
    /// atomically, so a recursion group is never half-sampled. keep-listed
    /// groups are pinned at Full. config.keep is read at bind().
    PlanResult plan(const OverheadModel& model, const Config& config);

    /// One-shot: bind(candidate, model, config.keep), then plan.
    PlanResult plan(select::InstrumentationConfig candidate,
                    const OverheadModel& model, const Config& config = {});

    /// Takes a retired plan's name list back: the next plan() assigns over
    /// its strings instead of allocating new ones.
    void recycle(select::InstrumentationPolicy policy) {
        spareNames_ = std::move(policy.functions);
    }

    const select::InstrumentationConfig& candidates() const { return candidate_; }
    /// The model RegionId of each bound candidate, in candidate order
    /// (kNoRegion where the model had not interned it at bind()).
    std::span<const RegionId> candidateRegions() const { return regions_; }

private:
    /// Resolves the candidates' region ids and regroups them by the
    /// graph's current SCC components.
    void buildTable(const OverheadModel& model);

    const cg::CallGraph* graph_;
    select::InstrumentationConfig candidate_;
    /// Graph revision the groups were built (or last kept) at.
    std::uint64_t tableGeneration_ = 0;
    std::vector<std::string> keep_;
    std::vector<RegionId> regions_;       ///< Per candidate.
    std::vector<std::uint32_t> groupOf_;  ///< Per candidate.
    std::vector<bool> groupKeep_;         ///< Per group.
    std::vector<std::string> spareNames_;
};

}  // namespace capi::adapt

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
// budget. The per-candidate lookups (graph id, SCC component, model
// estimate) dominate at OpenFOAM scale and shard over Config::pool; the
// greedy sweep itself consumes a per-candidate
// array in fixed order, so results are thread-count invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/overhead_model.hpp"
#include "cg/call_graph.hpp"
#include "cg/csr_view.hpp"
#include "select/ic.hpp"
#include "select/scc.hpp"

namespace capi::adapt {

struct PlanResult {
    select::InstrumentationConfig ic;     ///< The trimmed patch set (the
                                          ///< policy's Full + Sampled regions).
    select::InstrumentationPolicy policy; ///< The tiered plan itself.
    std::vector<std::string> excluded;    ///< Dropped candidates, sorted.
    double budgetNs = 0.0;                ///< Absolute budget this plan used.
    double plannedProbeCostNs = 0.0;      ///< Predicted cost of `policy`.
    double retainedValueNs = 0.0;         ///< Exclusive ns kept visible.
    std::size_t groupsConsidered = 0;
    std::size_t groupsRetained = 0;       ///< Full + Sampled groups.
    std::size_t groupsSampled = 0;        ///< Groups demoted, not evicted.
    std::size_t fullRegions = 0;
    std::size_t sampledRegions = 0;
};

class BudgetPlanner {
public:
    /// `graph` must outlive the planner. SCC decompositions are cached per
    /// generation stamp, so repeated plans against an unchanged graph pay
    /// Tarjan once.
    explicit BudgetPlanner(const cg::CallGraph& graph) : graph_(&graph) {}

    BudgetPlanner(const BudgetPlanner&) = delete;
    BudgetPlanner& operator=(const BudgetPlanner&) = delete;

    /// Plans over `candidate` (typically the survey IC, so previously
    /// excluded regions can be re-admitted when budget allows). A model
    /// with no observed epochs keeps every candidate: there is no data to
    /// exclude on. Candidates unknown to both graph and model cost nothing
    /// and are kept — cold paths stay covered, exactly like refineIc's
    /// unmeasured rule.
    ///
    /// With config.enableSampledTier the greedy sweep gains a middle rung:
    /// a group whose Full cost overflows the remaining budget is retried at
    /// its Sampled cost (Full/everyN plus the gate toll on the suppressed
    /// visits) and demoted rather than evicted when that fits — SCC-group-
    /// atomically, so a recursion group is never half-sampled. keep-listed
    /// groups are pinned at Full.
    PlanResult plan(const select::InstrumentationConfig& candidate,
                    const OverheadModel& model, const Config& config = {}) const;

private:
    const cg::CallGraph* graph_;
    /// (generation, scc) of the last plan; rebuilt when the graph mutates.
    mutable std::mutex cacheMutex_;
    mutable std::uint64_t cachedGeneration_ = 0;
    mutable std::shared_ptr<const select::SccResult> cachedScc_;
};

}  // namespace capi::adapt

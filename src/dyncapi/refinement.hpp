// Profile-driven IC refinement: the "Adjust" step of the paper's Fig. 1.
//
// After surveying a measurement, the user typically excludes individual
// functions that produced too much overhead — small, frequently called
// regions that flood the measurement without contributing insight. This
// module automates one adjustment round: given the IC that produced a
// profile, it drops regions whose visit count is large while their exclusive
// time per visit stays below the measurement cost, exactly the reasoning a
// performance engineer applies by hand (and PIRA automates iteratively).
//
// Because the runtime is adaptable, each refinement round is an
// applyIcDelta() of the refined IC — not a recompilation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "select/ic.hpp"
#include "select/selection_driver.hpp"
#include "select/selector_cache.hpp"

namespace capi::dyncapi {

struct RefinementOptions {
    /// A region becomes an exclusion candidate above this visit count.
    std::uint64_t visitThreshold = 10000;
    /// ...but survives if it averages at least this much exclusive work per
    /// visit (ns) — it is genuinely hot, not just frequently entered.
    double minExclusiveNsPerVisit = 1000.0;
    /// Functions never removed (the user's critical set).
    std::vector<std::string> keep;
};

struct RefinementResult {
    select::InstrumentationConfig ic;        ///< The refined configuration.
    std::vector<std::string> excluded;       ///< What was dropped and why.
    std::uint64_t excludedVisits = 0;        ///< Events eliminated next run.
    std::size_t unmeasured = 0;              ///< IC entries without profile data
                                             ///< (kept; likely cold paths).
};

/// One refinement round over a measured profile.
RefinementResult refineIc(const select::InstrumentationConfig& ic,
                          const scorep::ProfileTree& profile,
                          const scorep::Measurement& measurement,
                          const RefinementOptions& options = {});

/// Drives repeated select -> measure -> refine rounds against one call graph.
///
/// The session owns a SelectorCache, so every selection run through it
/// memoizes pipeline stage results keyed by the graph's generation stamp. A
/// later round that re-evaluates the same or an overlapping spec — the
/// common case: only thresholds near the leaves of the selector tree change
/// between rounds — answers unchanged stages from the cache instead of
/// recomputing reachability closures. Runtime graph
/// updates (a dlopen'd DSO adding or removing nodes, metric refreshes) bump
/// the generation stamp and reconcile through the mutation journal: entries
/// whose recorded read footprint the delta cannot have touched survive and
/// keep answering, the rest re-evaluate. No manual invalidation hook is
/// needed.
class RefinementSession {
public:
    /// `graph` must outlive the session. Every select() runs on `pool`, as
    /// in PipelineOptions: null runs serially, &support::Executor::pool()
    /// borrows the process-wide pool (results are width-invariant).
    /// Embedders that must cap worker threads — e.g. refinement running
    /// beside the measured application — pass a pool of that width; a
    /// SelectionOptions::pool in the `base` argument of select() wins.
    explicit RefinementSession(const cg::CallGraph& graph,
                               support::ThreadPool* pool = nullptr);
    ~RefinementSession();

    RefinementSession(const RefinementSession&) = delete;
    RefinementSession& operator=(const RefinementSession&) = delete;

    /// Runs the full selection phase with the session's cache and pool.
    /// `base` supplies resolver/oracle/flags and optionally a pool; its
    /// specText/specName/cache fields are overridden by the session.
    select::SelectionReport select(const std::string& specText,
                                   const std::string& specName = "spec",
                                   select::SelectionOptions base = {}) const;

    /// One refinement round (see refineIc).
    RefinementResult refine(const select::InstrumentationConfig& ic,
                            const scorep::ProfileTree& profile,
                            const scorep::Measurement& measurement,
                            const RefinementOptions& options = {}) const {
        return refineIc(ic, profile, measurement, options);
    }

    select::SelectorCache& cache() const { return cache_; }
    select::InlineCompensationCache& inlineCache() const { return inlineCache_; }
    const cg::CallGraph& graph() const { return *graph_; }

private:
    const cg::CallGraph* graph_;
    support::ThreadPool* pool_;
    mutable select::SelectorCache cache_;
    /// Journal-validated memo for the compensation caller walk: rounds whose
    /// graph delta is metric-only (the steady state between measurement
    /// epochs) replay it instead of re-walking the caller relation.
    mutable select::InlineCompensationCache inlineCache_;
};

}  // namespace capi::dyncapi

// Selection pipeline: evaluates a parsed spec against a call graph.
//
// Definitions form a dependency DAG through their %ref edges. Without a
// pool (the default) they are evaluated in spec order exactly as CaPI does;
// with a pool of more than one worker, independent definitions run
// concurrently on it, each released when its last dependency finishes, and
// the hot intra-definition primitives (reachability BFS, word combinators,
// per-function filters) shard over the same pool. Either way every stage
// runs the same body and the FunctionSets are bit-identical. The last
// definition is the pipeline entry point whose result is the raw selection
// (paper Sec. III-A). A failing stage skips only the stages after it, so a
// run reports the lowest failing definition, the error a serial run hits
// first.
//
// An optional SelectorCache memoizes per-definition results keyed by
// canonical selector hash and stamped with the call-graph generation, so
// repeated refinement rounds reuse prior stage results. Runs with a cache
// are incremental: the cache reconciles with the graph's mutation journal
// (footprint-disjoint entries survive a delta), and the pipeline propagates
// dirtiness through the %ref DAG so only transitively-affected stages
// re-evaluate — a stage that reproduces its previous bits exactly keeps its
// dependents clean.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "select/registry.hpp"
#include "select/selector_cache.hpp"
#include "spec/ast.hpp"

namespace capi::support {
class ThreadPool;
}

namespace capi::select {

struct PipelineOptions {
    /// Definition-level and intra-definition parallelism. Null runs fully
    /// serially (the reference semantics); &support::Executor::pool()
    /// borrows the process-wide pool, and a caller-owned pool caps the
    /// width. Results are bit-identical at any width.
    support::ThreadPool* pool = nullptr;

    /// Cross-run memoization of stage results; may be shared between
    /// concurrent runs. Null disables caching.
    SelectorCache* cache = nullptr;
};

struct PipelineRun {
    FunctionSet result;  ///< Result of the entry-point definition.
    /// Name (or synthesized "<anonymous:i>") and wall time per definition,
    /// in definition order regardless of execution interleaving.
    std::vector<std::pair<std::string, std::uint64_t>> timingsNs;
    /// Per-definition result sizes, for selection reports.
    std::vector<std::pair<std::string, std::size_t>> sizes;
    /// Definitions answered from the SelectorCache.
    std::size_t cacheHits = 0;
};

class Pipeline {
public:
    /// Builds and validates selector trees for every definition, and
    /// extracts the %ref dependency DAG.
    /// Throws on unknown selector types or malformed arguments.
    explicit Pipeline(const spec::SpecAst& ast,
                      const SelectorRegistry& registry = SelectorRegistry::builtin());

    /// Evaluates the pipeline bottom-to-top over `graph`.
    PipelineRun run(const cg::CallGraph& graph) const { return run(graph, {}); }
    PipelineRun run(const cg::CallGraph& graph,
                    const PipelineOptions& options) const;

    std::size_t definitionCount() const { return stages_.size(); }

    /// Stage indices stage i depends on (its resolved %refs); for tests and
    /// diagnostics.
    const std::vector<std::size_t>& dependenciesOf(std::size_t stage) const {
        return stages_[stage].deps;
    }

private:
    struct Stage {
        std::string name;  ///< Display name; real name for named definitions.
        bool isNamed;
        SelectorPtr selector;
        /// Earlier stages this one references via %name (deduplicated).
        /// A %ref resolves to the latest preceding definition of that name,
        /// matching serial shadowing semantics.
        std::vector<std::size_t> deps;
        std::vector<std::size_t> dependents;
        /// Stable identity with refs resolved; cache key component.
        std::uint64_t canonicalHash = 0;
    };

    /// Runs evaluate(i) for every stage on `pool`, each stage released once
    /// its last dependency finished; returns when all stages ran.
    void schedule(support::ThreadPool& pool,
                  const std::function<void(std::size_t)>& evaluate) const;

    std::vector<Stage> stages_;
};

}  // namespace capi::select

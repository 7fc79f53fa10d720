// Selector interface and evaluation context.
//
// A selector determines, from the whole-program call graph, the set of
// functions matching its inclusion condition (paper Sec. III-A). Selectors
// compose: combinators take other selectors as input. Named instances are
// evaluated once and memoized in the EvalContext.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cg/call_graph.hpp"
#include "cg/csr_view.hpp"
#include "select/footprint.hpp"
#include "select/function_set.hpp"
#include "support/thread_pool.hpp"

namespace capi::select {

/// Per-evaluation state: the graph plus results of named selector instances.
struct EvalContext {
    explicit EvalContext(const cg::CallGraph& g) : graph(g) {}

    const cg::CallGraph& graph;
    std::unordered_map<std::string, FunctionSet> named;

    /// Intra-definition parallelism: when non-null, selectors shard their
    /// hot loops (reachability BFS, word combinators, per-function filters)
    /// over this pool. Results are bit-identical to the serial path.
    support::ThreadPool* pool = nullptr;

    /// Runs body(wordBegin, wordEnd) over the words of a node bitset,
    /// sharded over `pool` once the set spans kShardThreshold nodes. Each
    /// call owns a disjoint word range, so DynamicBitset::setWord/set
    /// inside it stay race-free and the result is bit-identical to one
    /// serial pass.
    void forEachWordShard(
        std::size_t wordCount,
        const std::function<void(std::size_t, std::size_t)>& body) const {
        support::parallelFor(pool, wordCount, /*minGrain=*/256, body,
                             support::kShardThreshold / 64);
    }

    /// Footprint collection target for the stage being evaluated (set by
    /// Pipeline when a SelectorCache is attached; null otherwise). Selectors
    /// report their reads through the touch* helpers below; nested child
    /// evaluations accumulate into the same footprint, so a stage's record
    /// covers its whole selector tree. All touch calls must happen on the
    /// stage's own thread (outside sharded loops).
    Footprint* footprint = nullptr;

    void touchDescSet(const support::DynamicBitset& read) {
        if (footprint != nullptr && !footprint->allDesc) {
            accumulate(footprint->descNodes, read);
            footprint->readsDesc = true;
        }
    }
    void touchMetricsSet(const support::DynamicBitset& read) {
        if (footprint != nullptr && !footprint->allMetrics) {
            accumulate(footprint->metricNodes, read);
            footprint->readsMetrics = true;
        }
    }
    void touchEdgesSet(const support::DynamicBitset& read) {
        if (footprint != nullptr && !footprint->allEdges) {
            accumulate(footprint->edgeNodes, read);
            footprint->readsEdges = true;
        }
    }
    void touchAllDesc() {
        if (footprint != nullptr) footprint->allDesc = true;
    }
    void touchAllMetrics() {
        if (footprint != nullptr) footprint->allMetrics = true;
    }
    void touchAllEdges() {
        if (footprint != nullptr) footprint->allEdges = true;
    }
    void touchUniverse() {
        if (footprint != nullptr) footprint->universeDependent = true;
    }

    /// The flat CSR snapshot of `graph` at its current generation — the
    /// structure every graph-walking selector traverses. Lazily resolved;
    /// concurrent stages holding separate EvalContexts still share one view
    /// because snapshots are memoized per generation stamp.
    const cg::CsrView& csr() const {
        if (csr_ == nullptr) {
            csr_ = cg::CsrView::snapshot(graph);
        }
        return *csr_;
    }

    /// Per-instance wall-clock nanoseconds, in evaluation order (diagnostics).
    std::vector<std::pair<std::string, std::uint64_t>> timings;

private:
    /// Footprint kind-sets are lazily sized: widen to the read's universe
    /// first, then union over the common word prefix (operator|= assumes
    /// equal sizes; reads within one evaluation share one universe, but the
    /// helper stays safe if they ever do not).
    static void accumulate(support::DynamicBitset& into,
                           const support::DynamicBitset& read) {
        if (into.size() < read.size()) {
            into.resize(read.size());
        }
        const std::size_t words = read.wordCount() < into.wordCount()
                                      ? read.wordCount()
                                      : into.wordCount();
        for (std::size_t wi = 0; wi < words; ++wi) {
            into.setWord(wi, into.word(wi) | read.word(wi));
        }
    }

    mutable std::shared_ptr<const cg::CsrView> csr_;
};

class Selector {
public:
    virtual ~Selector() = default;

    /// Evaluates the selector and records its read footprint into
    /// ctx.footprint (when collection is on). Selector types that do not
    /// declare footprint tracking are recorded as having read everything —
    /// safe by default: their cached results never survive a graph delta.
    FunctionSet evaluate(EvalContext& ctx) const {
        if (ctx.footprint != nullptr && !tracksFootprint()) {
            ctx.touchAllDesc();
            ctx.touchAllMetrics();
            ctx.touchAllEdges();
            ctx.touchUniverse();
        }
        return evaluateImpl(ctx);
    }

    /// One-line description for reports and error messages.
    virtual std::string describe() const = 0;

protected:
    /// The selector body. Implementations that return true from
    /// tracksFootprint() MUST report every node whose desc/metrics/edges
    /// they read via the ctx.touch* helpers (see footprint.hpp for the
    /// soundness contract); pure combinators qualify trivially because
    /// their children report through the same context.
    virtual FunctionSet evaluateImpl(EvalContext& ctx) const = 0;

    virtual bool tracksFootprint() const { return false; }
};

using SelectorPtr = std::unique_ptr<Selector>;

/// Comparison operators accepted by the metric selectors
/// (spelled ">=", "<", "==", ... in spec strings).
enum class CompareOp { Lt, Le, Gt, Ge, Eq, Ne };

CompareOp parseCompareOp(const std::string& text);
const char* compareOpName(CompareOp op);

inline bool compareMetric(std::uint64_t value, CompareOp op, std::int64_t threshold) {
    const auto v = static_cast<std::int64_t>(value);
    switch (op) {
        case CompareOp::Lt: return v < threshold;
        case CompareOp::Le: return v <= threshold;
        case CompareOp::Gt: return v > threshold;
        case CompareOp::Ge: return v >= threshold;
        case CompareOp::Eq: return v == threshold;
        case CompareOp::Ne: return v != threshold;
    }
    return false;
}

}  // namespace capi::select

#include "select/inline_compensation.hpp"

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cg/csr_view.hpp"
#include "cg/delta.hpp"
#include "support/bitset.hpp"

namespace capi::select {

namespace {

/// True when the journal delta contains no node, call-edge or override
/// record. Metric/desc touches are structurally irrelevant here (names are
/// pinned, and compensation reads nothing else of a desc), and an
/// entry-point change does not alter the caller relation.
bool callerRelationUnchanged(const cg::GraphDelta& delta) {
    return delta.addedNodes.empty() && delta.removedNodes.empty() &&
           delta.addedCallEdges.empty() && delta.removedCallEdges.empty() &&
           delta.addedOverrides.empty() && delta.removedOverrides.empty();
}

}  // namespace

void InlineCompensationCache::Scratch::grow(std::size_t nodes) {
    verdicts.resize(nodes, Verdict::Unknown);
}

bool InlineCompensationCache::Scratch::symbolPresent(const cg::CsrView& csr,
                                                     const SymbolOracle& oracle,
                                                     cg::FunctionId id) {
    if (verdicts[id] == Verdict::Unknown) {
        verdicts[id] =
            oracle.hasSymbol(csr.name(id)) ? Verdict::Present : Verdict::Absent;
    }
    return verdicts[id] == Verdict::Present;
}

InlineCompensationStats compensateInlining(const cg::CallGraph& graph,
                                           FunctionSet& selection,
                                           const SymbolOracle& oracle,
                                           InlineCompensationCache* cache) {
    using Scratch = InlineCompensationCache::Scratch;
    Scratch fresh;
    Scratch& scratch = cache != nullptr ? cache->scratch_ : fresh;
    if (cache != nullptr) {
        // One journal read validates both the replay memo and the verdicts.
        std::optional<cg::GraphDelta> delta;
        if (cache->oracle_ == &oracle) {
            delta = graph.deltaSince(cache->generation_);
        }
        if (!delta.has_value()) {
            // Trimmed history or another oracle: nothing carries over.
            cache->valid_ = false;
            scratch.verdicts.clear();
        } else if (cache->valid_ && callerRelationUnchanged(*delta) &&
                   cache->input_ == selection) {
            // Same input, same caller relation, same oracle: replay. The
            // stamp advances so the next probe diffs against the shortest
            // journal suffix instead of re-scanning metric churn back to the
            // recompute.
            cache->generation_ = graph.generation();
            ++cache->reuses_;
            selection = cache->output_;
            InlineCompensationStats stats = cache->stats_;
            stats.reused = true;
            return stats;
        } else {
            // Removed nodes lost their names; added ones get fresh slots.
            for (cg::FunctionId id : delta->removedNodes) {
                if (id < scratch.verdicts.size()) {
                    scratch.verdicts[id] = Scratch::Verdict::Unknown;
                }
            }
        }
    }
    scratch.grow(graph.size());

    InlineCompensationStats stats;
    FunctionSet beforeCompensation;
    if (cache != nullptr) {
        beforeCompensation = selection;  // Memo key; `selection` mutates below.
    }
    // The caller walk below is pure graph traversal: run it over the flat
    // CSR rows. Oracle probes read names from the same snapshot's arena and
    // are memoized per id, so the walk never enters a FunctionDesc.
    std::shared_ptr<const cg::CsrView> snapshot = cg::CsrView::snapshot(graph);
    const cg::CsrView& csr = *snapshot;

    // Step 1: selected functions whose symbol is gone -> assumed inlined.
    std::vector<cg::FunctionId> inlined;
    selection.forEach([&](cg::FunctionId id) {
        if (!scratch.symbolPresent(csr, oracle, id)) {
            inlined.push_back(id);
        }
    });

    FunctionSet afterRemoval = selection;
    for (cg::FunctionId id : inlined) {
        afterRemoval.remove(id);
    }
    stats.inlinedRemoved = inlined.size();
    stats.removed = inlined;

    // Step 2: find the first available (non-inlined) callers of the inlined
    // selected functions in one walk up the caller relation, seeded from
    // all of them at once. Callers that are themselves inlined are walked
    // through. One visited set for the whole walk keeps cycles terminating
    // and visits a caller chain that several inlined functions share once;
    // a node is reached iff some inlined function reaches it through inlined
    // nodes only, so the result is the union of per-function walks. The
    // sources start visited: they are inlined, and their callers are seeded.
    FunctionSet additions(graph.size());
    support::DynamicBitset visited(graph.size());
    std::vector<cg::FunctionId>& queue = scratch.queue;
    queue.clear();
    for (cg::FunctionId id : inlined) {
        visited.set(id);
        std::span<const cg::FunctionId> callers = csr.callers(id);
        queue.insert(queue.end(), callers.begin(), callers.end());
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const cg::FunctionId caller = queue[head];
        if (visited.test(caller)) {
            continue;
        }
        visited.set(caller);
        if (scratch.symbolPresent(csr, oracle, caller)) {
            additions.add(caller);
        } else {
            std::span<const cg::FunctionId> next = csr.callers(caller);
            queue.insert(queue.end(), next.begin(), next.end());
        }
    }

    // #added counts only functions the post-removal selection did not
    // already contain (Table I semantics).
    additions.forEach([&](cg::FunctionId id) {
        if (!afterRemoval.contains(id)) {
            stats.added.push_back(id);
        }
    });
    stats.callersAdded = stats.added.size();

    afterRemoval |= additions;
    selection = std::move(afterRemoval);
    if (cache != nullptr) {
        cache->valid_ = true;
        cache->generation_ = graph.generation();
        cache->oracle_ = &oracle;
        cache->input_ = std::move(beforeCompensation);
        cache->output_ = selection;
        cache->stats_ = stats;
        ++cache->recomputes_;
    }
    return stats;
}

}  // namespace capi::select

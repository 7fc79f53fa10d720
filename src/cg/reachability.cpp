#include "cg/reachability.hpp"

#include <mutex>
#include <vector>

#include "support/thread_pool.hpp"

namespace capi::cg {

using support::DynamicBitset;

namespace {

/// Below this many frontier members a BFS level is expanded serially: the
/// shard bookkeeping (one partial bitset per chunk) costs more than the
/// neighbor scan it parallelizes.
constexpr std::size_t kParallelFrontierThreshold = 256;

std::span<const FunctionId> rowOf(const CsrView& csr, FunctionId id, EdgeDir dir) {
    return dir == EdgeDir::Callees ? csr.callees(id) : csr.callers(id);
}

/// Serial queue BFS over either edge direction (the original algorithm;
/// kept as the small-graph / no-pool path and as the oracle the parallel
/// traversal must match bit for bit).
DynamicBitset serialClosure(const CsrView& csr, const DynamicBitset& seeds,
                            EdgeDir dir) {
    DynamicBitset visited(csr.size());
    std::vector<FunctionId> queue;
    seeds.forEach([&](std::size_t id) {
        visited.set(id);
        queue.push_back(static_cast<FunctionId>(id));
    });
    for (std::size_t head = 0; head < queue.size(); ++head) {
        for (FunctionId next : rowOf(csr, queue[head], dir)) {
            if (!visited.test(next)) {
                visited.set(next);
                queue.push_back(next);
            }
        }
    }
    return visited;
}

/// One frontier expansion, sharded over word ranges once the frontier has
/// kParallelFrontierThreshold members. Each shard expands the frontier bits
/// inside its own word range into a private partial bitset and ORs it into
/// the result. Set union is order-independent, so the result is
/// bit-identical to a serial scan.
DynamicBitset expandFrontier(const CsrView& csr, const DynamicBitset& frontier,
                             EdgeDir dir, support::ThreadPool* pool) {
    DynamicBitset next(csr.size());
    std::mutex merge;
    support::ThreadPool* shards =
        support::shouldShard(pool, frontier.count(), kParallelFrontierThreshold)
            ? pool
            : nullptr;
    support::parallelFor(
        shards, frontier.wordCount(), /*minGrain=*/64,
        [&](std::size_t wlo, std::size_t whi) {
            DynamicBitset partial(csr.size());
            frontier.forEachInWordRange(wlo, whi, [&](std::size_t id) {
                for (FunctionId n : rowOf(csr, static_cast<FunctionId>(id), dir)) {
                    partial.set(n);
                }
            });
            std::lock_guard<std::mutex> lock(merge);
            next |= partial;
        },
        /*threshold=*/0);
    return next;
}

/// Level-synchronous frontier BFS built on expandFrontier().
DynamicBitset parallelClosure(const CsrView& csr, const DynamicBitset& seeds,
                              EdgeDir dir, support::ThreadPool* pool) {
    DynamicBitset visited(csr.size());
    seeds.forEach([&](std::size_t id) { visited.set(id); });
    DynamicBitset frontier = visited;
    while (frontier.any()) {
        DynamicBitset next = expandFrontier(csr, frontier, dir, pool);
        next -= visited;
        visited |= next;
        frontier = std::move(next);
    }
    return visited;
}

DynamicBitset closure(const CsrView& csr, const DynamicBitset& seeds,
                      EdgeDir dir, support::ThreadPool* pool) {
    if (support::shouldShard(pool, csr.size(), kParallelFrontierThreshold)) {
        return parallelClosure(csr, seeds, dir, pool);
    }
    return serialClosure(csr, seeds, dir);
}

}  // namespace

DynamicBitset neighborUnion(const CsrView& csr, const DynamicBitset& seeds,
                            EdgeDir dir, support::ThreadPool* pool) {
    return expandFrontier(csr, seeds, dir, pool);
}

DynamicBitset reachableFrom(const CsrView& csr, const DynamicBitset& roots,
                            support::ThreadPool* pool) {
    return closure(csr, roots, EdgeDir::Callees, pool);
}

DynamicBitset reachesTo(const CsrView& csr, const DynamicBitset& targets,
                        support::ThreadPool* pool) {
    return closure(csr, targets, EdgeDir::Callers, pool);
}

DynamicBitset onCallPath(const CsrView& csr, const DynamicBitset& targets,
                         support::ThreadPool* pool, DynamicBitset* touched) {
    const DynamicBitset& forward = csr.reachableFromEntry(pool);
    DynamicBitset backward = reachesTo(csr, targets, pool);
    if (touched != nullptr) {
        *touched = forward;
        *touched |= backward;
    }
    backward &= forward;
    return backward;
}

DynamicBitset reachableFrom(const CallGraph& graph, const DynamicBitset& roots,
                            support::ThreadPool* pool) {
    return reachableFrom(*CsrView::snapshot(graph), roots, pool);
}

DynamicBitset reachesTo(const CallGraph& graph, const DynamicBitset& targets,
                        support::ThreadPool* pool) {
    return reachesTo(*CsrView::snapshot(graph), targets, pool);
}

DynamicBitset onCallPath(const CallGraph& graph, const DynamicBitset& targets,
                         support::ThreadPool* pool) {
    return onCallPath(*CsrView::snapshot(graph), targets, pool);
}

DynamicBitset reachableFrom(const CallGraph& graph, FunctionId root,
                            support::ThreadPool* pool) {
    DynamicBitset roots(graph.size());
    if (root != kInvalidFunction) {
        roots.set(root);
    }
    return reachableFrom(graph, roots, pool);
}

}  // namespace capi::cg

#include "cg/csr_view.hpp"

#include <algorithm>
#include <atomic>

#include "cg/call_graph.hpp"
#include "cg/reachability.hpp"
#include "obs/metrics.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace capi::cg {

namespace {

/// Smallest node range a build shard copies. support::parallelFor cuts
/// shards at multiples of 64, so each owns whole words of the has-body mask.
constexpr std::size_t kBuildGrain = 1024;

struct SnapshotCounters {
    std::atomic<std::uint64_t> fullBuilds{0};
    std::atomic<std::uint64_t> sharedHits{0};
};

SnapshotCounters& counters() {
    static SnapshotCounters c;
    // Static process-wide counters fold straight into the metrics registry;
    // both singletons live until process exit.
    static const std::uint64_t collectorId =
        obs::MetricsRegistry::global().addCollector(
            [](std::vector<obs::Sample>& out) {
                auto counter = [&out](const char* name,
                                      const std::atomic<std::uint64_t>& v) {
                    out.push_back({name, obs::MetricKind::Counter,
                                   static_cast<double>(
                                       v.load(std::memory_order_relaxed)),
                                   0, {}});
                };
                counter("capi_csr_full_builds_total", c.fullBuilds);
                counter("capi_csr_shared_hits_total", c.sharedHits);
            });
    (void)collectorId;
    return c;
}

}  // namespace

/// Per-node sizes are counted into offsets[id + 1], prefix-summed (O(V),
/// serial) and each row is then copied into its offset-determined slice —
/// sharded over `pool` for large graphs, bit-identical at any width because
/// every element's position is fixed by the prefix sums alone. The
/// per-node rows are already sorted and unique, so a straight copy
/// preserves that invariant.
template <typename Items, typename RowOf, typename Visit>
void CsrView::flatten(std::size_t n, RowOf&& rowOf, Visit&& visit,
                      support::ThreadPool* pool, Flat<Items>& out) {
    out.offsets.assign(n + 1, 0);
    support::parallelFor(pool, n, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
            out.offsets[id + 1] =
                static_cast<std::uint32_t>(rowOf(static_cast<FunctionId>(id)).size());
        }
    });
    for (std::size_t id = 0; id < n; ++id) {
        out.offsets[id + 1] += out.offsets[id];
    }
    out.items.resize(out.offsets[n]);
    support::parallelFor(pool, n, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
            const auto fid = static_cast<FunctionId>(id);
            const auto& row = rowOf(fid);
            std::copy(row.begin(), row.end(), out.items.begin() + out.offsets[id]);
            visit(fid);
        }
    });
}

CsrView::CsrView(const CallGraph& graph, support::ThreadPool* pool)
    : generation_(graph.generation()),
      nodeCount_(graph.size()),
      entry_(graph.entryPoint()),
      metrics_(graph.size()),
      flags_(graph.size()),
      hasBody_(graph.size()) {
    const std::size_t n = nodeCount_;
    auto none = [](FunctionId) {};
    flatten(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.callees(id);
    }, none, pool, callees_);
    flatten(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.callers(id);
    }, none, pool, callers_);
    flatten(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.overrides(id);
    }, none, pool, overrides_);
    flatten(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.overriddenBy(id);
    }, none, pool, overriddenBy_);
    // The per-node columns ride the name copy pass: each shard writes its
    // own ids' slots (and whole has-body words).
    flatten(n, [&](FunctionId id) -> const std::string& { return graph.name(id); },
            [&](FunctionId id) {
                const FunctionDesc& desc = graph.desc(id);
                metrics_[id] = desc.metrics;
                flags_[id] = packFlags(desc.flags);
                if (desc.flags.hasBody) {
                    hasBody_.set(id);
                }
            },
            pool, names_);
}

const support::DynamicBitset& CsrView::reachableFromEntry(
    support::ThreadPool* pool) const {
    std::call_once(entryClosureOnce_, [&] {
        support::DynamicBitset roots(nodeCount_);
        if (entry_ != kInvalidFunction) {
            roots.set(entry_);
        }
        entryClosure_ = reachableFrom(*this, roots, pool);
    });
    return entryClosure_;
}

std::shared_ptr<const CsrView> CsrView::snapshot(const CallGraph& graph) {
    // Concurrent callers queue on the graph's mutex behind the one build and
    // then share its result. Full builds borrow the process-wide pool; below
    // the shard threshold they run inline.
    std::lock_guard<std::mutex> lock(graph.snapshotMutex_);
    if (graph.snapshot_ != nullptr &&
        graph.snapshot_->generation() == graph.generation()) {
        counters().sharedHits.fetch_add(1, std::memory_order_relaxed);
        return graph.snapshot_;
    }
    // Drop the stale view first: it is freed before the new one is
    // allocated (unless a caller still holds it), and a build that throws
    // leaves the slot empty.
    graph.snapshot_.reset();
    graph.snapshot_ = std::make_shared<const CsrView>(graph, &support::Executor::pool());
    counters().fullBuilds.fetch_add(1, std::memory_order_relaxed);
    return graph.snapshot_;
}

CsrView::SnapshotStats CsrView::snapshotStats() noexcept {
    SnapshotStats stats;
    stats.fullBuilds = counters().fullBuilds.load(std::memory_order_relaxed);
    stats.sharedHits = counters().sharedHits.load(std::memory_order_relaxed);
    return stats;
}

}  // namespace capi::cg

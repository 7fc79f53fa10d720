#include "cg/csr_view.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <future>
#include <mutex>
#include <unordered_map>

#include "cg/call_graph.hpp"
#include "cg/reachability.hpp"
#include "obs/metrics.hpp"
#include "support/bitset.hpp"
#include "support/executor.hpp"
#include "support/thread_pool.hpp"

namespace capi::cg {

namespace {

/// Snapshot chain depth kept per graph: the current view plus the
/// predecessor the next delta will patch from.
constexpr std::size_t kMaxViewsPerGraph = 2;

/// Smallest node range a build shard copies. support::parallelFor cuts
/// shards at multiples of 64, so each owns whole words of the has-body mask.
constexpr std::size_t kBuildGrain = 1024;

struct RegistryCounters {
    std::atomic<std::uint64_t> fullBuilds{0};
    std::atomic<std::uint64_t> patchBuilds{0};
    std::atomic<std::uint64_t> sharedHits{0};
    std::atomic<std::uint64_t> graphsReleased{0};
};

RegistryCounters& counters() {
    static RegistryCounters c;
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
                counter("capi_csr_patch_builds_total", c.patchBuilds);
                counter("capi_csr_shared_hits_total", c.sharedHits);
                counter("capi_csr_graphs_released_total", c.graphsReleased);
            });
    (void)collectorId;
    return c;
}

std::atomic<bool>& patchingFlag() {
    static std::atomic<bool> enabled{true};
    return enabled;
}

}  // namespace

/// Flattens one adjacency relation into (start, len) rows over one edge
/// array. The per-node vectors are already sorted and unique, so a straight
/// copy preserves that invariant. Per-node sizes are counted, prefix-summed
/// (O(V), serial) and each row is then copied into its offset-determined
/// slice — sharded over `pool` for large graphs, bit-identical at any width
/// because every element's position is fixed by the prefix sums alone.
template <typename RowGetter>
std::shared_ptr<const CsrView::Rows> CsrView::buildRows(
    std::size_t n, RowGetter&& rowOf, support::ThreadPool* pool) {
    auto rows = std::make_shared<CsrView::Rows>();
    rows->start.resize(n);
    rows->len.resize(n);
    auto edges = std::make_shared<std::vector<FunctionId>>();
    support::parallelFor(pool, n, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
            rows->len[id] =
                static_cast<std::uint32_t>(rowOf(static_cast<FunctionId>(id)).size());
        }
    });
    std::uint32_t running = 0;
    for (std::size_t id = 0; id < n; ++id) {
        rows->start[id] = running;
        running += rows->len[id];
    }
    edges->resize(running);
    support::parallelFor(pool, n, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
            const auto& row = rowOf(static_cast<FunctionId>(id));
            std::copy(row.begin(), row.end(), edges->begin() + rows->start[id]);
        }
    });
    rows->pool = std::move(edges);
    return rows;
}

CsrView::CsrView(const CallGraph& graph, support::ThreadPool* pool) {
    const std::size_t n = graph.size();
    generation_ = graph.generation();
    nodeCount_ = n;
    entry_ = graph.entryPoint();
    callees_ = buildRows(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.callees(id);
    }, pool);
    callers_ = buildRows(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.callers(id);
    }, pool);
    overrides_ = buildRows(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.overrides(id);
    }, pool);
    overriddenBy_ = buildRows(n, [&](FunctionId id) -> const std::vector<FunctionId>& {
        return graph.overriddenBy(id);
    }, pool);
    callEdgeCount_ = callees_->pool->size();

    auto names = std::make_shared<NameArena>();
    names->start.resize(n);
    names->len.resize(n);
    auto arena = std::make_shared<std::string>();
    auto metrics = std::make_shared<std::vector<FunctionMetrics>>(n);
    auto flags = std::make_shared<std::vector<std::uint8_t>>(n);
    auto hasBody = std::make_shared<support::DynamicBitset>(n);
    support::parallelFor(pool, n, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
            names->len[id] = static_cast<std::uint32_t>(
                graph.name(static_cast<FunctionId>(id)).size());
        }
    });
    std::uint32_t running = 0;
    for (std::size_t id = 0; id < n; ++id) {
        names->start[id] = running;
        running += names->len[id];
    }
    arena->resize(running);
    support::parallelFor(pool, n, kBuildGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t id = lo; id < hi; ++id) {
            const auto fid = static_cast<FunctionId>(id);
            const std::string& name = graph.name(fid);
            std::copy(name.begin(), name.end(), arena->begin() + names->start[id]);
            const FunctionDesc& desc = graph.desc(fid);
            (*metrics)[id] = desc.metrics;
            (*flags)[id] = packFlags(desc.flags);
            if (desc.flags.hasBody) {
                hasBody->set(id);
            }
        }
    });
    names->pool = std::move(arena);
    names_ = std::move(names);
    metrics_ = std::move(metrics);
    flags_ = std::move(flags);
    hasBody_ = std::move(hasBody);
}

std::shared_ptr<const CsrView> CsrView::tryPatch(const CsrView& prev,
                                                 const CallGraph& graph,
                                                 const GraphDelta& delta) {
    const std::size_t nOld = prev.nodeCount_;
    const std::size_t nNew = graph.size();
    if (nNew < nOld) {
        return nullptr;  // Tombstoned graphs never shrink; foreign lineage.
    }

    // Churn threshold: past this many touched nodes a full rebuild's
    // contiguous passes beat per-row patching (and the tail would bloat).
    support::DynamicBitset dirty = delta.dirtyNodes(nNew);
    const std::size_t dirtyCount = dirty.count();
    if (dirtyCount + (nNew - nOld) >
        std::max<std::size_t>(1024, nNew / 8)) {
        return nullptr;
    }

    // Per-relation dirty rows (ids < nOld; appended nodes are always
    // (re)read). removeFunction journals each incident edge, so endpoints of
    // removed nodes are covered by the edge records.
    support::DynamicBitset calleeDirty(nOld);
    support::DynamicBitset callerDirty(nOld);
    support::DynamicBitset overridesDirty(nOld);
    support::DynamicBitset overriddenByDirty(nOld);
    support::DynamicBitset metricDirty(nOld);
    support::DynamicBitset flagDirty(nOld);
    support::DynamicBitset nameDirty(nOld);
    auto mark = [nOld](support::DynamicBitset& bits, FunctionId id) {
        if (id < nOld) {
            bits.set(id);
        }
    };
    delta.forEachChange([&](DeltaKind kind, FunctionId a, FunctionId b) {
        switch (kind) {
            case DeltaKind::CallEdgeAdd:
            case DeltaKind::CallEdgeRemove:
                mark(calleeDirty, a);   // a = caller's callee row.
                mark(callerDirty, b);   // b = callee's caller row.
                break;
            case DeltaKind::OverrideAdd:
            case DeltaKind::OverrideRemove:
                mark(overridesDirty, b);     // b = derived's overrides row.
                mark(overriddenByDirty, a);  // a = base's overriddenBy row.
                break;
            case DeltaKind::NodeRemove:
                mark(calleeDirty, a);
                mark(callerDirty, a);
                mark(overridesDirty, a);
                mark(overriddenByDirty, a);
                mark(metricDirty, a);
                mark(flagDirty, a);
                mark(nameDirty, a);
                break;
            case DeltaKind::MetricTouch:
                mark(metricDirty, a);
                break;
            case DeltaKind::DescTouch:  // A merge sighting may gain a body.
                mark(metricDirty, a);
                mark(flagDirty, a);
                break;
            case DeltaKind::NodeAdd:     // Appended rows always (re)read.
            case DeltaKind::EntryChange:  // entry_ recomputed from the graph.
                break;
        }
    });

    auto view = std::shared_ptr<CsrView>(new CsrView());
    view->generation_ = delta.toGeneration;
    view->nodeCount_ = nNew;
    view->entry_ = graph.entryPoint();
    view->patched_ = true;

    // Patches one relation: untouched relations share the predecessor's Rows
    // outright; touched ones copy the (start, len) indirection, keep the edge
    // pool shared, and append only the dirty rows to the tail. Returns false
    // when the accumulated tail outgrows the pool (chained patches past the
    // useful point) — the caller then falls back to the full build.
    auto patchRows = [&](const std::shared_ptr<const Rows>& prevRows,
                         const support::DynamicBitset& dirtyRows,
                         auto&& rowOf,
                         std::shared_ptr<const Rows>& out) -> bool {
        if (!dirtyRows.any() && nNew == nOld) {
            out = prevRows;
            return true;
        }
        auto rows = std::make_shared<Rows>();
        rows->pool = prevRows->pool;
        rows->tail = prevRows->tail;
        rows->start = prevRows->start;
        rows->len = prevRows->len;
        rows->start.resize(nNew, 0);
        rows->len.resize(nNew, 0);
        auto rewrite = [&](FunctionId id) {
            const auto& row = rowOf(id);
            rows->len[id] = static_cast<std::uint32_t>(row.size());
            if (row.empty()) {
                rows->start[id] = 0;
                return;
            }
            rows->start[id] =
                kTailBit | static_cast<std::uint32_t>(rows->tail.size());
            rows->tail.insert(rows->tail.end(), row.begin(), row.end());
        };
        dirtyRows.forEach([&](std::size_t id) {
            rewrite(static_cast<FunctionId>(id));
        });
        for (std::size_t id = nOld; id < nNew; ++id) {
            rewrite(static_cast<FunctionId>(id));
        }
        if (rows->tail.size() > rows->pool->size() / 2 + 4096) {
            return false;
        }
        out = rows;
        return true;
    };

    bool ok =
        patchRows(prev.callees_, calleeDirty,
                  [&](FunctionId id) -> const std::vector<FunctionId>& {
                      return graph.callees(id);
                  },
                  view->callees_) &&
        patchRows(prev.callers_, callerDirty,
                  [&](FunctionId id) -> const std::vector<FunctionId>& {
                      return graph.callers(id);
                  },
                  view->callers_) &&
        patchRows(prev.overrides_, overridesDirty,
                  [&](FunctionId id) -> const std::vector<FunctionId>& {
                      return graph.overrides(id);
                  },
                  view->overrides_) &&
        patchRows(prev.overriddenBy_, overriddenByDirty,
                  [&](FunctionId id) -> const std::vector<FunctionId>& {
                      return graph.overriddenBy(id);
                  },
                  view->overriddenBy_);
    if (!ok) {
        return nullptr;
    }
    view->callEdgeCount_ = 0;
    for (std::size_t id = 0; id < nNew; ++id) {
        view->callEdgeCount_ += view->callees_->len[id];
    }

    // Names change only through node add/remove (mutateDesc rejects renames).
    if (!nameDirty.any() && nNew == nOld) {
        view->names_ = prev.names_;
    } else {
        auto names = std::make_shared<NameArena>();
        names->pool = prev.names_->pool;
        names->tail = prev.names_->tail;
        names->start = prev.names_->start;
        names->len = prev.names_->len;
        names->start.resize(nNew, 0);
        names->len.resize(nNew, 0);
        auto rewriteName = [&](FunctionId id) {
            const std::string& name = graph.name(id);
            names->len[id] = static_cast<std::uint32_t>(name.size());
            if (name.empty()) {
                names->start[id] = 0;
                return;
            }
            names->start[id] =
                kTailBit | static_cast<std::uint32_t>(names->tail.size());
            names->tail += name;
        };
        nameDirty.forEach(
            [&](std::size_t id) { rewriteName(static_cast<FunctionId>(id)); });
        for (std::size_t id = nOld; id < nNew; ++id) {
            rewriteName(static_cast<FunctionId>(id));
        }
        view->names_ = std::move(names);
    }

    if (!metricDirty.any() && nNew == nOld) {
        view->metrics_ = prev.metrics_;
    } else {
        auto metrics = std::make_shared<std::vector<FunctionMetrics>>(*prev.metrics_);
        metrics->resize(nNew);
        auto reread = [&](std::size_t id) {
            (*metrics)[id] = graph.desc(static_cast<FunctionId>(id)).metrics;
        };
        metricDirty.forEach(reread);
        for (std::size_t id = nOld; id < nNew; ++id) {
            reread(id);
        }
        view->metrics_ = std::move(metrics);
    }

    if (!flagDirty.any() && nNew == nOld) {
        view->flags_ = prev.flags_;
        view->hasBody_ = prev.hasBody_;
    } else {
        auto flags = std::make_shared<std::vector<std::uint8_t>>(*prev.flags_);
        auto hasBody = std::make_shared<support::DynamicBitset>(*prev.hasBody_);
        flags->resize(nNew);
        hasBody->resize(nNew);
        auto reread = [&](std::size_t id) {
            const FunctionFlags& now = graph.desc(static_cast<FunctionId>(id)).flags;
            (*flags)[id] = packFlags(now);
            if (now.hasBody) {
                hasBody->set(id);
            } else {
                hasBody->reset(id);
            }
        };
        flagDirty.forEach(reread);
        for (std::size_t id = nOld; id < nNew; ++id) {
            reread(id);
        }
        view->flags_ = std::move(flags);
        view->hasBody_ = std::move(hasBody);
    }

    return view;
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

// ---------------------------------------------------------------- registry --

namespace {

using ViewFuture = std::shared_future<std::shared_ptr<const CsrView>>;

struct Registry {
    std::mutex mutex;
    struct Slot {
        /// Newest at the back; capped at kMaxViewsPerGraph.
        std::deque<std::pair<std::uint64_t, ViewFuture>> views;
    };
    std::unordered_map<std::uint64_t, Slot> slots;
};

/// Leaked on purpose (still reachable at exit): statically stored graphs —
/// bench fixtures, app caches — may be destroyed after any static registry
/// here, and their ~CallGraph must still be able to call releaseGraph().
Registry& registry() {
    static Registry* r = new Registry;
    return *r;
}

}  // namespace

std::shared_ptr<const CsrView> CsrView::snapshot(const CallGraph& graph) {
    Registry& reg = registry();
    const std::uint64_t graphId = graph.graphId();
    const std::uint64_t generation = graph.generation();

    std::promise<std::shared_ptr<const CsrView>> promise;
    ViewFuture future;
    ViewFuture priorFuture;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        Registry::Slot& slot = reg.slots[graphId];
        for (const auto& [gen, fut] : slot.views) {
            if (gen == generation) {
                counters().sharedHits.fetch_add(1, std::memory_order_relaxed);
                future = fut;
                break;
            }
        }
        if (!future.valid()) {
            if (!slot.views.empty()) {
                priorFuture = slot.views.back().second;
            }
            future = promise.get_future().share();
            slot.views.emplace_back(generation, future);
            while (slot.views.size() > kMaxViewsPerGraph) {
                // Evicting a future someone still waits on is fine: their
                // shared_future copies keep the state alive.
                slot.views.pop_front();
            }
            builder = true;
        }
    }
    if (!builder) {
        return future.get();  // Rethrows if the builder failed.
    }
    try {
        std::shared_ptr<const CsrView> view;
        if (priorFuture.valid() && incrementalPatching()) {
            std::shared_ptr<const CsrView> prior;
            try {
                prior = priorFuture.get();
            } catch (...) {
                prior = nullptr;  // Predecessor build failed; build full.
            }
            if (prior != nullptr) {
                std::optional<GraphDelta> delta =
                    graph.deltaSince(prior->generation());
                if (delta.has_value()) {
                    view = tryPatch(*prior, graph, *delta);
                }
            }
        }
        if (view != nullptr) {
            counters().patchBuilds.fetch_add(1, std::memory_order_relaxed);
        } else {
            // Full builds borrow the process-wide pool; below the shard
            // threshold they run inline.
            view = std::make_shared<const CsrView>(graph, &support::Executor::pool());
            counters().fullBuilds.fetch_add(1, std::memory_order_relaxed);
        }
        promise.set_value(view);
        return view;
    } catch (...) {
        // Unblock waiters with the error and drop the entry so the next
        // caller retries instead of inheriting a poisoned future.
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(reg.mutex);
        auto it = reg.slots.find(graphId);
        if (it != reg.slots.end()) {
            auto& views = it->second.views;
            views.erase(std::remove_if(views.begin(), views.end(),
                                       [&](const auto& entry) {
                                           return entry.first == generation;
                                       }),
                        views.end());
        }
        throw;
    }
}

void CsrView::releaseGraph(std::uint64_t graphId) noexcept {
    try {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        if (reg.slots.erase(graphId) != 0) {
            counters().graphsReleased.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (...) {
        // Called from a destructor; allocation failure while locking is the
        // only conceivable throw and dropping the eviction is harmless.
    }
}

void CsrView::setIncrementalPatching(bool enabled) noexcept {
    patchingFlag().store(enabled, std::memory_order_relaxed);
}

bool CsrView::incrementalPatching() noexcept {
    return patchingFlag().load(std::memory_order_relaxed);
}

CsrView::RegistryStats CsrView::registryStats() noexcept {
    RegistryStats stats;
    stats.fullBuilds = counters().fullBuilds.load(std::memory_order_relaxed);
    stats.patchBuilds = counters().patchBuilds.load(std::memory_order_relaxed);
    stats.sharedHits = counters().sharedHits.load(std::memory_order_relaxed);
    stats.graphsReleased =
        counters().graphsReleased.load(std::memory_order_relaxed);
    return stats;
}

std::size_t CsrView::registrySlotCount() noexcept {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    return reg.slots.size();
}

}  // namespace capi::cg

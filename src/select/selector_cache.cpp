#include "select/selector_cache.hpp"

#include <algorithm>
#include <atomic>
#include <optional>

#include "cg/call_graph.hpp"
#include "cg/delta.hpp"
#include "obs/metrics.hpp"

namespace capi::select {

namespace {

/// The per-kind dirty sets one GraphDelta induces, sized to the post-delta
/// universe. Computed once per distinct entry generation in beginRun.
struct DirtyInfo {
    bool known = false;  ///< Journal covered the stamp; survival possible.
    bool entryChanged = false;
    bool universeGrew = false;
    bool descAny = false;
    bool metricsAny = false;
    bool edgesAny = false;
    support::DynamicBitset desc;
    support::DynamicBitset metrics;
    support::DynamicBitset edges;
};

DirtyInfo dirtyInfoFor(const cg::CallGraph& graph, std::uint64_t fromGeneration) {
    DirtyInfo info;
    std::optional<cg::GraphDelta> delta = graph.deltaSince(fromGeneration);
    if (!delta.has_value()) {
        return info;  // History gone: every entry at this stamp is purged.
    }
    const std::size_t universe = graph.size();
    info.known = true;
    info.entryChanged = delta->entryChanged;
    info.universeGrew = !delta->addedNodes.empty();
    info.desc = support::DynamicBitset(universe);
    info.metrics = support::DynamicBitset(universe);
    info.edges = support::DynamicBitset(universe);
    auto mark = [universe](support::DynamicBitset& bits, cg::FunctionId id) {
        if (id < universe) {
            bits.set(id);
        }
    };
    delta->forEachChange([&](cg::DeltaKind kind, cg::FunctionId a,
                             cg::FunctionId b) {
        switch (kind) {
            case cg::DeltaKind::NodeAdd:
            case cg::DeltaKind::NodeRemove:
                mark(info.desc, a);
                mark(info.metrics, a);
                mark(info.edges, a);
                break;
            case cg::DeltaKind::DescTouch:
                // A desc mutator may rewrite flags AND metrics; only the
                // name is pinned. Dirty for both kinds.
                mark(info.desc, a);
                mark(info.metrics, a);
                break;
            case cg::DeltaKind::MetricTouch:
                mark(info.metrics, a);
                break;
            case cg::DeltaKind::CallEdgeAdd:
            case cg::DeltaKind::CallEdgeRemove:
            case cg::DeltaKind::OverrideAdd:
            case cg::DeltaKind::OverrideRemove:
                mark(info.edges, a);
                mark(info.edges, b);
                break;
            case cg::DeltaKind::EntryChange:
                break;  // Carried by info.entryChanged; purges everything.
        }
    });
    info.descAny = info.desc.any() || info.universeGrew;
    info.metricsAny = info.metrics.any() || info.universeGrew;
    info.edgesAny = info.edges.any() || info.universeGrew;
    return info;
}

bool entrySurvives(const Footprint& fp, const DirtyInfo& dirty) {
    if (!dirty.known || dirty.entryChanged) {
        return false;
    }
    if (fp.universeDependent && dirty.universeGrew) {
        return false;
    }
    if ((fp.allDesc && dirty.descAny) || (fp.allMetrics && dirty.metricsAny) ||
        (fp.allEdges && dirty.edgesAny)) {
        return false;
    }
    // Per-kind intersection: each kind's bounded node set is checked only
    // against that kind's dirty set, so (say) a metric-only touch inside a
    // traversal's reachable region no longer purges the traversal.
    if (fp.readsDesc && fp.descNodes.intersects(dirty.desc)) {
        return false;
    }
    if (fp.readsMetrics && fp.metricNodes.intersects(dirty.metrics)) {
        return false;
    }
    if (fp.readsEdges && fp.edgeNodes.intersects(dirty.edges)) {
        return false;
    }
    return true;
}

}  // namespace

SelectorCache::SelectorCache(std::size_t maxEntries)
    : maxEntriesPerShard_(maxEntries == 0
                              ? 0
                              : std::max<std::size_t>(1, maxEntries / kShardCount)) {
    // Export totals and the per-shard breakdown through the process metrics
    // registry, labeled by a process-unique instance sequence so concurrent
    // caches stay distinguishable.
    static std::atomic<std::uint64_t> nextSeq{0};
    const std::uint64_t seq = nextSeq.fetch_add(1, std::memory_order_relaxed);
    metricsCollectorId_ = obs::MetricsRegistry::global().addCollector(
        [this, seq](std::vector<obs::Sample>& out) {
            const Stats totals = stats();
            const std::string base = "{cache=\"" + std::to_string(seq) + "\"}";
            auto counter = [&out](std::string name, std::uint64_t value) {
                out.push_back({std::move(name), obs::MetricKind::Counter,
                               static_cast<double>(value), 0, {}});
            };
            counter("capi_select_cache_hits_total" + base, totals.hits);
            counter("capi_select_cache_misses_total" + base, totals.misses);
            counter("capi_select_cache_insertions_total" + base,
                    totals.insertions);
            counter("capi_select_cache_invalidations_total" + base,
                    totals.invalidations);
            counter("capi_select_cache_survivals_total" + base,
                    totals.survivals);
            counter("capi_select_cache_evictions_total" + base,
                    totals.evictions);
            out.push_back({"capi_select_cache_entries" + base,
                           obs::MetricKind::Gauge,
                           static_cast<double>(totals.entries), 0, {}});
            for (std::size_t i = 0; i < totals.perShard.size(); ++i) {
                const ShardStats& shard = totals.perShard[i];
                const std::string labels = "{cache=\"" + std::to_string(seq) +
                                           "\",shard=\"" + std::to_string(i) +
                                           "\"}";
                counter("capi_select_cache_shard_hits_total" + labels,
                        shard.hits);
                counter("capi_select_cache_shard_survivals_total" + labels,
                        shard.survivals);
                counter("capi_select_cache_shard_invalidations_total" + labels,
                        shard.invalidations);
                out.push_back({"capi_select_cache_shard_entries" + labels,
                               obs::MetricKind::Gauge,
                               static_cast<double>(shard.entries), 0, {}});
            }
        });
}

SelectorCache::~SelectorCache() {
    obs::MetricsRegistry::global().removeCollector(metricsCollectorId_);
}

void SelectorCache::beginRun(const cg::CallGraph& graph) {
    const std::uint64_t generation = graph.generation();
    const std::size_t universe = graph.size();
    // Lazily computed per distinct stale stamp; in the steady state every
    // stale entry shares the previous run's stamp, so this holds one value.
    std::unordered_map<std::uint64_t, DirtyInfo> dirtyByGeneration;
    // Widening (zeros for the new nodes) keeps FunctionSet equality usable
    // after a node-add: survivors need it for downstream word-level set
    // algebra, and stale re-validation anchors need it so a re-evaluated
    // stage that reproduces its old bits can still compare equal instead of
    // cascading purges through the %ref DAG. Copy-on-write — previous runs
    // may still hold the shared result.
    auto widenResult = [universe](Entry& entry) {
        if (entry.result->universe() < universe) {
            auto widened = std::make_shared<FunctionSet>(*entry.result);
            widened->bits().resize(universe);
            entry.result = std::move(widened);
        }
    };
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        for (auto& [key, entry] : shard.entries) {
            if (entry.stale || entry.generation == generation) {
                if (entry.stale) {
                    widenResult(entry);  // Universe may have grown again.
                }
                continue;
            }
            auto dirtyIt = dirtyByGeneration.find(entry.generation);
            if (dirtyIt == dirtyByGeneration.end()) {
                dirtyIt = dirtyByGeneration
                              .emplace(entry.generation,
                                       dirtyInfoFor(graph, entry.generation))
                              .first;
            }
            if (!entrySurvives(entry.footprint, dirtyIt->second)) {
                // Keep the bits as a stale re-validation anchor: when the
                // stage re-evaluates to identical output, its dependents
                // stay clean instead of cascading the purge down the DAG.
                entry.stale = true;
                widenResult(entry);
                ++shard.stats.invalidations;
                continue;
            }
            entry.generation = generation;
            // Survivors provably cannot contain any added node, so the
            // widened zeros are exact; the footprint widens with them.
            widenResult(entry);
            entry.footprint.resizeNodes(universe);
            ++shard.stats.survivals;
        }
    }
}

std::shared_ptr<const FunctionSet> SelectorCache::lookup(
    std::uint64_t graphGeneration, std::uint64_t selectorHash) {
    Shard& shard = shardFor(selectorHash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(selectorHash);
    if (it == shard.entries.end() || it->second.stale ||
        it->second.generation != graphGeneration) {
        ++shard.stats.misses;
        return nullptr;
    }
    ++shard.stats.hits;
    return it->second.result;
}

std::shared_ptr<const FunctionSet> SelectorCache::previousResult(
    std::uint64_t selectorHash) {
    Shard& shard = shardFor(selectorHash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(selectorHash);
    return it == shard.entries.end() ? nullptr : it->second.result;
}

void SelectorCache::store(std::uint64_t graphGeneration,
                          std::uint64_t selectorHash, const FunctionSet& result,
                          Footprint footprint) {
    if (maxEntriesPerShard_ == 0) {
        return;  // Immutable after construction; safe to check unlocked.
    }
    // Copy the bitset before taking the lock so concurrent stages don't
    // serialize on a ~51KB memcpy.
    auto shared = std::make_shared<const FunctionSet>(result);
    Shard& shard = shardFor(selectorHash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(selectorHash);
    if (it != shard.entries.end()) {
        // Same stage re-evaluated (stale deps forced a recompute, or a
        // concurrent stage raced us): replace result and footprint in
        // place, keeping the eviction-order slot.
        it->second =
            Entry{graphGeneration, std::move(shared), std::move(footprint)};
        ++shard.stats.insertions;
        return;
    }
    while (shard.entries.size() >= maxEntriesPerShard_ &&
           !shard.insertionOrder.empty()) {
        // Oldest-first eviction; the key may already be gone if a purge
        // removed it, so erase() on a miss is a harmless no-op.
        if (shard.entries.erase(shard.insertionOrder.front()) != 0) {
            ++shard.stats.evictions;
        }
        shard.insertionOrder.pop_front();
    }
    shard.entries.emplace(
        selectorHash,
        Entry{graphGeneration, std::move(shared), std::move(footprint)});
    shard.insertionOrder.push_back(selectorHash);
    ++shard.stats.insertions;
}

void SelectorCache::clear() {
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.clear();
        shard.insertionOrder.clear();
    }
}

std::size_t SelectorCache::size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.entries.size();
    }
    return total;
}

SelectorCache::Stats SelectorCache::stats() const {
    Stats stats;
    stats.perShard.reserve(kShardCount);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        ShardStats s = shard.stats;
        s.entries = shard.entries.size();
        stats.perShard.push_back(s);
        stats.hits += s.hits;
        stats.misses += s.misses;
        stats.insertions += s.insertions;
        stats.invalidations += s.invalidations;
        stats.survivals += s.survivals;
        stats.evictions += s.evictions;
        stats.entries += s.entries;
    }
    return stats;
}

}  // namespace capi::select

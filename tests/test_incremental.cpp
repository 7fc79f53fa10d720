// Incremental selection: the graph-delta journal, per-generation CSR snapshots,
// footprint-aware SelectorCache survival, and the incremental==full
// equivalence property over randomized mutation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "adapt/controller.hpp"
#include "binsim/compiler.hpp"
#include "binsim/execution_engine.hpp"
#include "cg/call_graph.hpp"
#include "cg/csr_view.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "dyncapi/graph_sync.hpp"
#include "dyncapi/refinement.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "select/pipeline.hpp"
#include "select/selector_cache.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;
using select::FunctionSet;
using select::Pipeline;
using select::PipelineOptions;

// ----------------------------------------------------------------- journal --

TEST(DeltaJournal, RecordsTypedMutations) {
    cg::CallGraph graph = testutil::listing3Graph();
    const std::uint64_t base = graph.generation();

    cg::FunctionDesc plugin;
    plugin.name = "plugin";
    plugin.flags.hasBody = true;
    cg::FunctionId added = graph.addFunction(plugin);
    graph.addCallEdge(graph.lookup("main"), added);
    graph.removeCallEdge(graph.lookup("solve"), graph.lookup("residual"));
    graph.touchMetrics(graph.lookup("Amul"),
                       [](cg::FunctionMetrics& m) { m.profiledVisits = 42; });
    graph.mutateDesc(graph.lookup("residual"),
                     [](cg::FunctionDesc& d) { d.flags.inlineSpecified = true; });

    std::optional<cg::GraphDelta> delta = graph.deltaSince(base);
    ASSERT_TRUE(delta.has_value());
    EXPECT_EQ(delta->addedNodes, std::vector<cg::FunctionId>{added});
    ASSERT_EQ(delta->addedCallEdges.size(), 1u);
    EXPECT_EQ(delta->addedCallEdges[0].second, added);
    ASSERT_EQ(delta->removedCallEdges.size(), 1u);
    EXPECT_EQ(delta->metricTouches,
              std::vector<cg::FunctionId>{graph.lookup("Amul")});
    // addFunction journals the NodeAdd; mutateDesc journals the DescTouch.
    EXPECT_EQ(delta->descTouches,
              std::vector<cg::FunctionId>{graph.lookup("residual")});
    EXPECT_FALSE(delta->entryChanged);
    EXPECT_FALSE(delta->empty());

    // A no-op window yields an engaged, empty delta.
    std::optional<cg::GraphDelta> none = graph.deltaSince(graph.generation());
    ASSERT_TRUE(none.has_value());
    EXPECT_TRUE(none->empty());

    // Unknown (future/foreign) stamps are not answerable.
    EXPECT_FALSE(graph.deltaSince(graph.generation() + 1000).has_value());
}

TEST(DeltaJournal, ForeignStampsInsideTheRangeAreNotAnswerable) {
    // Stamps are process-global: another graph's stamp can fall numerically
    // inside this graph's [floor, generation] window. deltaSince must refuse
    // it — answering would hand the caller a bogus partial delta.
    cg::CallGraph graph = testutil::listing3Graph();
    cg::CallGraph other;
    cg::FunctionDesc desc;
    desc.name = "foreign";
    other.addFunction(desc);  // Issues a stamp between graph's mutations.
    const std::uint64_t foreign = other.generation();
    graph.touchMetrics(0, [](cg::FunctionMetrics& m) { m.profiledVisits = 1; });
    ASSERT_GT(graph.generation(), foreign);
    EXPECT_FALSE(graph.deltaSince(foreign).has_value());
}

TEST(FootprintSurvival, SharedCacheAcrossGraphsNeverRevivesForeignEntries) {
    // One cache alternating between two graphs with different content: a
    // graph switch must behave as a full purge (the other graph's stamps are
    // not answerable), never serve the other graph's bits.
    cg::CallGraph a = testutil::listing3Graph();
    cg::CallGraph b = testutil::makeGraph(
        {{.name = "main"}, {.name = "lonely", .flops = 99, .loopDepth = 3}},
        {{"main", "lonely"}});
    Pipeline pipeline(spec::parseSpec("onCallPathTo(flops(\">=\", 10, %%))"));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;

    FunctionSet onA = pipeline.run(a, options).result;
    // Mutate A so its window covers B's construction stamps, then run B.
    a.addCallEdge(a.lookup("main"), a.lookup("residual"));
    FunctionSet onB = pipeline.run(b, options).result;
    EXPECT_EQ(onB.universe(), b.size());
    EXPECT_TRUE(onB.contains(b.lookup("lonely")));

    select::PipelineRun backOnA = pipeline.run(a, options);
    EXPECT_EQ(backOnA.cacheHits, 0u);  // B's entries must not serve A.
    EXPECT_TRUE(backOnA.result == pipeline.run(a).result);
}

TEST(DeltaJournal, DrainAdvancesTheMark) {
    cg::CallGraph graph = testutil::listing3Graph();
    graph.drainDelta();  // Flush construction history.
    graph.touchMetrics(0, [](cg::FunctionMetrics& m) { m.profiledVisits = 1; });
    cg::GraphDelta first = graph.drainDelta();
    EXPECT_EQ(first.metricTouches.size(), 1u);
    cg::GraphDelta second = graph.drainDelta();
    EXPECT_TRUE(second.empty());
}

TEST(DeltaJournal, TrimmedHistoryReportsUnknown) {
    cg::CallGraph graph = testutil::listing3Graph();
    const std::uint64_t base = graph.generation();
    // Overflow the bounded journal (cap 2^16): alternate add/remove of one
    // edge far past the cap; the floor rises past `base`.
    cg::FunctionId a = graph.lookup("Amul");
    cg::FunctionId b = graph.lookup("residual");
    for (int i = 0; i < (1 << 16) + 100; ++i) {
        graph.addCallEdge(a, b);
        graph.removeCallEdge(a, b);
    }
    EXPECT_FALSE(graph.deltaSince(base).has_value());
    EXPECT_LE(graph.journalSize(), std::size_t{1} << 16);
    // Recent stamps are still answerable.
    std::uint64_t recent = graph.generation();
    graph.addCallEdge(a, b);
    ASSERT_TRUE(graph.deltaSince(recent).has_value());
    EXPECT_EQ(graph.deltaSince(recent)->addedCallEdges.size(), 1u);
}

TEST(DeltaJournal, RemoveFunctionTombstones) {
    cg::CallGraph graph = testutil::listing3Graph();
    const std::size_t size = graph.size();
    cg::FunctionId solve = graph.lookup("solve");
    cg::FunctionId main = graph.lookup("main");
    const std::uint64_t base = graph.generation();

    graph.removeFunction(solve);
    EXPECT_EQ(graph.size(), size);  // Universe is stable.
    EXPECT_FALSE(graph.alive(solve));
    EXPECT_EQ(graph.aliveCount(), size - 1);
    EXPECT_EQ(graph.lookup("solve"), cg::kInvalidFunction);
    EXPECT_TRUE(graph.name(solve).empty());
    EXPECT_TRUE(graph.callees(solve).empty());
    EXPECT_FALSE(graph.hasEdge(main, solve));

    std::optional<cg::GraphDelta> delta = graph.deltaSince(base);
    ASSERT_TRUE(delta.has_value());
    EXPECT_EQ(delta->removedNodes, std::vector<cg::FunctionId>{solve});
    EXPECT_FALSE(delta->removedCallEdges.empty());  // Incident edges journaled.

    // Mutating through a dead node is rejected; idempotent removal is not.
    EXPECT_THROW(graph.addCallEdge(main, solve), support::Error);
    graph.removeFunction(solve);  // No-op.

    // The name can return as a fresh node.
    cg::FunctionDesc desc;
    desc.name = "solve";
    desc.flags.hasBody = true;
    cg::FunctionId reborn = graph.addFunction(desc);
    EXPECT_NE(reborn, solve);
    EXPECT_EQ(graph.size(), size + 1);
}

// ------------------------------------------------------------ CSR snapshots --

cg::CallGraph randomGraph(std::uint64_t seed, std::size_t nodes) {
    support::SplitMix64 rng(seed);
    cg::CallGraph graph;
    for (std::size_t i = 0; i < nodes; ++i) {
        cg::FunctionDesc desc;
        desc.name = i == 0 ? "main" : "fn" + std::to_string(i);
        desc.prettyName = desc.name;
        desc.flags.hasBody = true;
        desc.flags.inlineSpecified = rng.nextBool(0.2);
        desc.flags.inSystemHeader = rng.nextBool(0.15);
        desc.metrics.flops = static_cast<std::uint32_t>(rng.nextBelow(40));
        desc.metrics.loopDepth = static_cast<std::uint32_t>(rng.nextBelow(4));
        desc.metrics.numStatements =
            1 + static_cast<std::uint32_t>(rng.nextBelow(30));
        graph.addFunction(desc);
    }
    for (std::size_t i = 1; i < nodes; ++i) {
        std::size_t parents = 1 + rng.nextBelow(3);
        for (std::size_t k = 0; k < parents; ++k) {
            graph.addCallEdge(static_cast<cg::FunctionId>(rng.nextBelow(i)),
                              static_cast<cg::FunctionId>(i));
        }
        if (rng.nextBool(0.05)) {
            graph.addCallEdge(static_cast<cg::FunctionId>(i),
                              static_cast<cg::FunctionId>(rng.nextBelow(nodes)));
        }
    }
    return graph;
}

/// Applies one random mutation batch; keeps node 0 ("main") alive.
void mutateRandomly(cg::CallGraph& graph, support::SplitMix64& rng,
                    std::size_t ops) {
    auto randomAlive = [&]() -> cg::FunctionId {
        for (int tries = 0; tries < 64; ++tries) {
            auto id = static_cast<cg::FunctionId>(rng.nextBelow(graph.size()));
            if (graph.alive(id)) {
                return id;
            }
        }
        return 0;
    };
    for (std::size_t op = 0; op < ops; ++op) {
        switch (rng.nextBelow(6)) {
            case 0:  // Edge add.
                graph.addCallEdge(randomAlive(), randomAlive());
                break;
            case 1: {  // Edge remove (first callee of a random node).
                cg::FunctionId from = randomAlive();
                if (!graph.callees(from).empty()) {
                    graph.removeCallEdge(from, graph.callees(from).front());
                }
                break;
            }
            case 2: {  // Node add, wired to the existing graph.
                cg::FunctionDesc desc;
                desc.name = "dl" + std::to_string(graph.generation());
                desc.prettyName = desc.name;
                desc.flags.hasBody = true;
                desc.metrics.flops = static_cast<std::uint32_t>(rng.nextBelow(40));
                desc.metrics.numStatements =
                    1 + static_cast<std::uint32_t>(rng.nextBelow(30));
                cg::FunctionId added = graph.addFunction(desc);
                graph.addCallEdge(randomAlive(), added);
                if (rng.nextBool(0.5)) {
                    graph.addCallEdge(added, randomAlive());
                }
                break;
            }
            case 3: {  // dlclose-style bulk removal.
                std::vector<cg::FunctionId> victims;
                std::size_t count = 1 + rng.nextBelow(3);
                for (std::size_t i = 0; i < count; ++i) {
                    cg::FunctionId id = randomAlive();
                    if (id != 0) {
                        victims.push_back(id);
                    }
                }
                graph.removeFunctions(victims);
                break;
            }
            case 4:  // Metric-only touch.
                graph.touchMetrics(randomAlive(), [&](cg::FunctionMetrics& m) {
                    m.numStatements =
                        1 + static_cast<std::uint32_t>(rng.nextBelow(30));
                });
                break;
            default:  // Desc touch.
                graph.mutateDesc(randomAlive(), [&](cg::FunctionDesc& d) {
                    d.flags.inlineSpecified = !d.flags.inlineSpecified;
                });
                break;
        }
    }
}

void expectCsrEquals(const cg::CsrView& a, const cg::CsrView& b) {
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.edgeCount(), b.edgeCount());
    EXPECT_EQ(a.entryPoint(), b.entryPoint());
    for (cg::FunctionId id = 0; id < a.size(); ++id) {
        ASSERT_TRUE(std::ranges::equal(a.callees(id), b.callees(id))) << id;
        ASSERT_TRUE(std::ranges::equal(a.callers(id), b.callers(id))) << id;
        ASSERT_TRUE(std::ranges::equal(a.overrides(id), b.overrides(id))) << id;
        ASSERT_TRUE(std::ranges::equal(a.overriddenBy(id), b.overriddenBy(id)))
            << id;
        ASSERT_EQ(a.name(id), b.name(id)) << id;
        ASSERT_EQ(a.numStatements(id), b.numStatements(id)) << id;
        ASSERT_TRUE(a.metrics(id) == b.metrics(id)) << id;
        ASSERT_TRUE(a.flags(id) == b.flags(id)) << id;
    }
    ASSERT_TRUE(a.definedMask() == b.definedMask());
    ASSERT_TRUE(a.reachableFromEntry(nullptr) == b.reachableFromEntry(nullptr));
}

class CsrPatchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrPatchProperty, PatchedSnapshotMatchesFullRebuild) {
    // After any mutation, the graph's held snapshot is the new generation's
    // and equals a direct build.
    cg::CallGraph graph = randomGraph(GetParam(), 300);
    support::SplitMix64 rng(GetParam() ^ 0x5eed);
    std::shared_ptr<const cg::CsrView> view = cg::CsrView::snapshot(graph);
    for (int round = 0; round < 12; ++round) {
        mutateRandomly(graph, rng, 1 + rng.nextBelow(6));
        view = cg::CsrView::snapshot(graph);
        ASSERT_EQ(view->generation(), graph.generation());
        cg::CsrView reference(graph);  // Direct full build, held view bypassed.
        expectCsrEquals(*view, reference);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrPatchProperty,
                         ::testing::Values(3u, 17u, 99u, 2027u));

// ----------------------------------------------------------- DSO graph sync --

TEST(DsoGraphBinding, UnloadReloadRoundTrips) {
    cg::CallGraph graph = testutil::listing3Graph();
    const std::size_t aliveBefore = graph.aliveCount();
    const std::size_t edgesBefore = graph.edgeCount();

    dyncapi::DsoGraphBinding plugin(graph, {"scalarSolve", "Amul", "residual"});
    EXPECT_TRUE(plugin.loaded());

    EXPECT_EQ(plugin.unload(graph), 3u);
    EXPECT_FALSE(plugin.loaded());
    EXPECT_EQ(graph.aliveCount(), aliveBefore - 3);
    EXPECT_EQ(graph.lookup("Amul"), cg::kInvalidFunction);
    EXPECT_TRUE(graph.callees(graph.lookup("solveSegregated")).empty());
    EXPECT_EQ(plugin.unload(graph), 0u);  // Idempotent.

    EXPECT_EQ(plugin.reload(graph), 3u);
    EXPECT_TRUE(plugin.loaded());
    EXPECT_EQ(graph.aliveCount(), aliveBefore);
    EXPECT_EQ(graph.edgeCount(), edgesBefore);
    cg::FunctionId amul = graph.lookup("Amul");
    ASSERT_NE(amul, cg::kInvalidFunction);
    EXPECT_TRUE(graph.hasEdge(graph.lookup("scalarSolve"), amul));
    EXPECT_TRUE(graph.hasEdge(graph.lookup("solve"),
                              graph.lookup("residual")));  // Cross-DSO edge back.
    EXPECT_EQ(graph.desc(amul).metrics.flops, 40u);
}

// ----------------------------------------------- footprint-aware cache runs --

TEST(FootprintSurvival, MutationOutsideFootprintKeepsCacheWarm) {
    // main -> a -> b, plus an island c -> d the selectors never visit.
    cg::CallGraph graph = testutil::makeGraph(
        {
            {.name = "main"},
            {.name = "a", .flops = 20},
            {.name = "b", .flops = 30},
            {.name = "c"},
            {.name = "d"},
        },
        {{"main", "a"}, {"a", "b"}, {"c", "d"}});
    Pipeline pipeline(spec::parseSpec("hot = flops(\">=\", 10, %%)\n"
                                      "onCallPathTo(%hot)\n"));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;

    FunctionSet cold = pipeline.run(graph, options).result;

    // An edge inside the island: dirty set {c, d} is disjoint from every
    // recorded footprint and no desc/metric/universe change happened — both
    // stages must survive and answer from cache.
    graph.addCallEdge(graph.lookup("d"), graph.lookup("c"));
    select::PipelineRun warm = pipeline.run(graph, options);
    EXPECT_EQ(warm.cacheHits, 2u);
    EXPECT_EQ(cache.stats().survivals, 2u);
    EXPECT_TRUE(warm.result == cold);

    // An edge entering the traversal's visited region purges the traversal
    // stage but not the flops filter (which reads no edges).
    graph.addCallEdge(graph.lookup("b"), graph.lookup("c"));
    select::PipelineRun dirty = pipeline.run(graph, options);
    EXPECT_EQ(dirty.cacheHits, 1u);
    EXPECT_TRUE(dirty.result.contains(graph.lookup("b")));
    EXPECT_FALSE(dirty.result.contains(graph.lookup("c")));  // c is not hot.

    // A metric touch on a node the filter read purges the filter (metric
    // footprints are per-node, not per-field), but re-evaluation reproduces
    // the same set — the statement count does not change flops membership —
    // so the dependent traversal is NOT dirtied and stays cached.
    graph.touchMetrics(graph.lookup("d"),
                       [](cg::FunctionMetrics& m) { m.numStatements = 50; });
    select::PipelineRun metric = pipeline.run(graph, options);
    EXPECT_EQ(metric.cacheHits, 1u);  // Traversal survived; filter re-ran.
    EXPECT_TRUE(metric.result == dirty.result);
}

TEST(FootprintSurvival, ImplicitEntryAppearancePurgesTraversals) {
    // No "main" and no explicit entry: onCallPathTo caches an empty result
    // with an empty footprint. Adding a node NAMED "main" changes
    // entryPoint() through the lookup fallback — the journal must carry an
    // entry change so the cached emptiness cannot survive.
    cg::CallGraph graph =
        testutil::makeGraph({{.name = "solo", .flops = 20}}, {});
    ASSERT_EQ(graph.entryPoint(), cg::kInvalidFunction);
    Pipeline pipeline(spec::parseSpec("onCallPathTo(flops(\">=\", 10, %%))"));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;
    EXPECT_TRUE(pipeline.run(graph, options).result.empty());

    cg::FunctionDesc desc;
    desc.name = "main";
    desc.flags.hasBody = true;
    cg::FunctionId main = graph.addFunction(desc);
    graph.addCallEdge(main, graph.lookup("solo"));
    select::PipelineRun rerun = pipeline.run(graph, options);
    EXPECT_TRUE(rerun.result.contains(graph.lookup("solo")));

    // And the reverse: removing the implicit entry is journaled too.
    graph.removeFunction(main);
    EXPECT_TRUE(pipeline.run(graph, options).result.empty());
}

TEST(FootprintSurvival, NodeAddRevalidationKeepsDependentsClean) {
    // A %%-fed filter is purged by a node-add (universe growth) but
    // re-evaluates to the same set; its dependent traversal, whose footprint
    // the edge-less new node cannot touch, must stay cached — the stale
    // anchor has to be widened to the new universe for the comparison to
    // ever succeed.
    cg::CallGraph graph = testutil::makeGraph(
        {{.name = "main"}, {.name = "a", .flops = 20}}, {{"main", "a"}});
    Pipeline pipeline(spec::parseSpec("hot = flops(\">=\", 10, %%)\n"
                                      "onCallPathTo(%hot)\n"));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;
    FunctionSet cold = pipeline.run(graph, options).result;

    cg::FunctionDesc desc;
    desc.name = "bystander";  // No edges, not hot: selection is unchanged.
    desc.flags.hasBody = true;
    graph.addFunction(desc);
    select::PipelineRun rerun = pipeline.run(graph, options);
    EXPECT_EQ(rerun.cacheHits, 1u);  // The traversal answered from cache.
    EXPECT_EQ(cache.stats().survivals, 1u);
    EXPECT_EQ(rerun.result.universe(), graph.size());
    EXPECT_TRUE(rerun.result.contains(graph.lookup("a")));
}

TEST(FootprintSurvival, EntryPointChangePurgesEverything) {
    cg::CallGraph graph = testutil::listing3Graph();
    Pipeline pipeline(spec::parseSpec("onCallPathTo(flops(\">=\", 10, %%))"));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;
    pipeline.run(graph, options);
    graph.setEntryPoint(graph.lookup("solve"));
    select::PipelineRun rerun = pipeline.run(graph, options);
    EXPECT_EQ(rerun.cacheHits, 0u);
    EXPECT_GT(cache.stats().invalidations, 0u);
}

TEST(FootprintSurvival, MetricTouchInsideTraversalRegionOnlyPurgesMetricReads) {
    // One stage combining a metric filter over a bounded candidate set with
    // a caller traversal: metricNodes = {b}, edgeNodes = the visited region
    // {main, a, b}. A per-epoch-style metric touch on a traversed-but-not-
    // metric-read node must keep the stage cached — with a single unioned
    // footprint, every visit fold inside the reachable region purged the
    // whole traversal.
    cg::CallGraph graph = testutil::makeGraph(
        {
            {.name = "main"},
            {.name = "a"},
            {.name = "b", .flops = 20},
        },
        {{"main", "a"}, {"a", "b"}});
    Pipeline pipeline(
        spec::parseSpec("onCallPathTo(flops(\">=\", 10, byName(\"b\", %%)))"));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;
    FunctionSet cold = pipeline.run(graph, options).result;
    ASSERT_TRUE(cold.contains(graph.lookup("a")));

    graph.touchMetrics(graph.lookup("a"),
                       [](cg::FunctionMetrics& m) { m.profiledVisits = 7; });
    select::PipelineRun warm = pipeline.run(graph, options);
    EXPECT_EQ(warm.cacheHits, 1u);
    EXPECT_EQ(cache.stats().survivals, 1u);
    EXPECT_TRUE(warm.result == cold);

    // A touch on the metric-read node itself still purges (and the
    // re-evaluation reproduces the same selection).
    graph.touchMetrics(graph.lookup("b"),
                       [](cg::FunctionMetrics& m) { m.profiledVisits = 9; });
    select::PipelineRun purged = pipeline.run(graph, options);
    EXPECT_EQ(purged.cacheHits, 0u);
    EXPECT_TRUE(purged.result == cold);
}

TEST(InlineCompensationCache, MetricOnlyDeltaReplaysTheCallerWalk) {
    // main -> caller -> leaf; the oracle knows everything but the leaf, so
    // compensation swaps leaf for caller.
    cg::CallGraph graph = testutil::makeGraph(
        {{.name = "main"}, {.name = "caller"}, {.name = "leaf"}},
        {{"main", "caller"}, {"caller", "leaf"}});
    select::SetSymbolOracle oracle({"main", "caller"});
    select::InlineCompensationCache cache;

    FunctionSet selection(graph.size());
    selection.add(graph.lookup("leaf"));

    FunctionSet first = selection;
    select::InlineCompensationStats stats =
        select::compensateInlining(graph, first, oracle, &cache);
    EXPECT_FALSE(stats.reused);
    EXPECT_EQ(stats.callersAdded, 1u);
    EXPECT_TRUE(first.contains(graph.lookup("caller")));
    EXPECT_FALSE(first.contains(graph.lookup("leaf")));

    // Metric-only churn (the controller's per-epoch visit folding) proves
    // through the journal that the caller relation is unchanged: replay.
    graph.touchMetrics(graph.lookup("caller"),
                       [](cg::FunctionMetrics& m) { m.profiledVisits = 5; });
    FunctionSet second = selection;
    select::InlineCompensationStats replay =
        select::compensateInlining(graph, second, oracle, &cache);
    EXPECT_TRUE(replay.reused);
    EXPECT_EQ(replay.callersAdded, 1u);
    EXPECT_EQ(cache.reuses(), 1u);
    EXPECT_TRUE(second == first);

    // A caller-relation change invalidates: a second route into the leaf
    // adds another compensation caller.
    graph.addCallEdge(graph.lookup("main"), graph.lookup("leaf"));
    FunctionSet third = selection;
    select::InlineCompensationStats recompute =
        select::compensateInlining(graph, third, oracle, &cache);
    EXPECT_FALSE(recompute.reused);
    EXPECT_TRUE(third.contains(graph.lookup("main")));
    EXPECT_EQ(cache.recomputes(), 2u);

    // And the refreshed memo serves again across the next metric touch.
    graph.touchMetrics(graph.lookup("main"),
                       [](cg::FunctionMetrics& m) { m.profiledVisits = 6; });
    FunctionSet fourth = selection;
    EXPECT_TRUE(select::compensateInlining(graph, fourth, oracle, &cache).reused);
    EXPECT_TRUE(fourth == third);
}

/// SetSymbolOracle that counts its probes, to show which verdicts a
/// compensation run had to ask for.
class CountingOracle final : public select::SymbolOracle {
public:
    explicit CountingOracle(std::unordered_set<std::string> symbols)
        : symbols_(std::move(symbols)) {}
    void add(const std::string& name) { symbols_.add(name); }
    bool hasSymbol(std::string_view name) const override {
        ++probes;
        return symbols_.hasSymbol(name);
    }
    mutable std::size_t probes = 0;

private:
    select::SetSymbolOracle symbols_;
};

TEST(InlineCompensationCache, SymbolVerdictsSurviveStructuralDeltas) {
    // main -> caller -> leaf and main -> other; only leaf lacks a symbol.
    cg::CallGraph graph = testutil::makeGraph(
        {{.name = "main"}, {.name = "caller"}, {.name = "leaf"}, {.name = "other"}},
        {{"main", "caller"}, {"caller", "leaf"}, {"main", "other"}});
    CountingOracle oracle({"main", "caller", "other"});
    select::InlineCompensationCache cache;
    auto id = [&](const char* name) { return graph.lookup(name); };

    // Compensates `ids` through the cache and without it; both must agree.
    // Returns the oracle probes the cached run made.
    auto compareRuns = [&](const CountingOracle& probe,
                           std::initializer_list<cg::FunctionId> ids) {
        FunctionSet input(graph.size());
        for (cg::FunctionId fn : ids) {
            input.add(fn);
        }
        FunctionSet cached = input;
        FunctionSet uncached = input;
        const std::size_t before = probe.probes;
        select::InlineCompensationStats viaCache =
            select::compensateInlining(graph, cached, probe, &cache);
        const std::size_t probes = probe.probes - before;
        select::InlineCompensationStats direct =
            select::compensateInlining(graph, uncached, probe);
        EXPECT_TRUE(cached == uncached);
        EXPECT_EQ(viaCache.removed, direct.removed);
        EXPECT_EQ(viaCache.added, direct.added);
        return probes;
    };

    EXPECT_EQ(compareRuns(oracle, {id("leaf"), id("other")}), 3u);  // + caller.
    // Another input on the same graph re-walks but asks the oracle nothing:
    // step 1 and the walk both read the memo.
    EXPECT_EQ(compareRuns(oracle, {id("caller"), id("leaf")}), 0u);

    // A node added with a symbol, calling the inlined leaf: only the new
    // node's verdict is unknown.
    cg::FunctionDesc fresh;
    fresh.name = fresh.prettyName = "fresh";
    fresh.flags.hasBody = true;
    graph.addCallEdge(graph.addFunction(fresh), id("leaf"));
    oracle.add("fresh");
    EXPECT_EQ(compareRuns(oracle, {id("leaf"), id("fresh")}), 1u);

    // A node added without a symbol on a second route into the leaf: the
    // walk passes through it up to main, whose verdict is new as well.
    cg::FunctionDesc ghost;
    ghost.name = ghost.prettyName = "ghost";
    ghost.flags.hasBody = true;
    const cg::FunctionId ghostId = graph.addFunction(ghost);
    graph.addCallEdge(id("main"), ghostId);
    graph.addCallEdge(ghostId, id("leaf"));
    EXPECT_EQ(compareRuns(oracle, {id("leaf"), ghostId}), 2u);

    // Removal tombstones a name: a selection holding the dead id must not
    // see the verdict of the name it lost.
    const cg::FunctionId freshId = id("fresh");
    graph.removeFunction(freshId);
    EXPECT_EQ(compareRuns(oracle, {freshId, id("other")}), 1u);
    // Compaction renumbers every id, which the journal cannot express, so
    // every verdict is dropped.
    graph.compact();
    EXPECT_EQ(compareRuns(oracle, {id("leaf"), id("ghost")}), 4u);  // + caller, main.

    // Verdicts belong to one oracle: another one starts from scratch.
    CountingOracle stripped({"main", "other"});
    compareRuns(stripped, {id("leaf"), id("ghost")});
    EXPECT_GT(stripped.probes, 0u);
}

TEST(RefinementSession, DeclarationGainingABodyIsSelectedNextStep) {
    // `kernel` is first sighted as a declaration (a call from another TU),
    // so the has-body mask drops it from the IC.
    cg::CallGraph graph = testutil::makeGraph(
        {{.name = "main"},
         {.name = "solver"},
         {.name = "kernel", .flops = 40, .hasBody = false}},
        {{"main", "solver"}, {"solver", "kernel"}});
    select::SetSymbolOracle oracle({"main", "solver", "kernel"});
    select::SelectionOptions base;
    base.symbolOracle = &oracle;
    const char* spec = "onCallPathTo(flops(\">=\", 10, %%))";

    dyncapi::RefinementSession session(graph);
    select::SelectionReport before = session.select(spec, "kernels", base);
    EXPECT_TRUE(before.ic.contains("solver"));
    EXPECT_FALSE(before.ic.contains("kernel"));

    // The defining TU's sighting merges into the node as a DescTouch; the
    // next snapshot's has-body mask carries it.
    cg::FunctionDesc definition = graph.desc(graph.lookup("kernel"));
    definition.flags.hasBody = true;
    graph.addFunction(definition);

    select::SelectionReport after = session.select(spec, "kernels", base);
    EXPECT_TRUE(after.ic.contains("kernel"));
    // A copy has a fresh identity, so its selection builds every index cold.
    const cg::CallGraph twin(graph);
    select::SelectionOptions cold = base;
    cold.specText = spec;
    cold.specName = "kernels";
    EXPECT_EQ(after.ic.functions, select::runSelection(twin, cold).ic.functions);
}

// --------------------------------------- incremental == full property sweep --

/// Names of the alive, defined functions a pipeline result selects — the
/// id-independent meaning of a selection (ids differ between the live graph
/// and its rebuilt twin; the IC is name-based downstream anyway).
std::vector<std::string> selectedNames(const cg::CallGraph& graph,
                                       const FunctionSet& result) {
    std::vector<std::string> names;
    result.forEach([&](cg::FunctionId id) {
        if (id < graph.size() && graph.alive(id) && graph.desc(id).flags.hasBody) {
            names.push_back(graph.name(id));
        }
    });
    std::sort(names.begin(), names.end());
    return names;
}

/// Rebuilds the graph's live content as a fresh CallGraph (fresh identity,
/// fresh stamps, no tombstones) — the full-recompute oracle.
cg::CallGraph rebuildTwin(const cg::CallGraph& graph) {
    cg::CallGraph twin;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (graph.alive(id)) {
            twin.addFunction(graph.desc(id));
        }
    }
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (!graph.alive(id)) {
            continue;
        }
        for (cg::FunctionId callee : graph.callees(id)) {
            twin.addCallEdge(twin.lookup(graph.name(id)),
                             twin.lookup(graph.name(callee)));
        }
        for (cg::FunctionId base : graph.overrides(id)) {
            twin.addOverride(twin.lookup(graph.name(base)),
                             twin.lookup(graph.name(id)));
        }
    }
    return twin;
}

const char* kIncrementalSpec =
    "hot = flops(\">=\", 10, %%)\n"
    "looped = loopDepth(\">=\", 1, %%)\n"
    "chatty = statements(\">=\", 15, %%)\n"
    "kernels = intersect(%hot, %looped)\n"
    "paths = onCallPathTo(%hot)\n"
    "near = join(callers(%hot), callees(%hot, 2))\n"
    "agg = statementAggregation(\">=\", 40, %near)\n"
    "wide = join(%paths, onCallPathFrom(%chatty))\n"
    "trimmed = coarse(%wide, %kernels)\n"
    "subtract(join(%trimmed, %agg), inSystemHeader(%%))\n";

class IncrementalEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalEquivalence, MatchesFullRecomputeAcrossMutationSequences) {
    // One seed drives 9 mutation rounds; each round is compared serial AND
    // parallel, so across the 12 seeds the suite checks 216 randomized
    // mutation sequences (every round extends the sequence).
    cg::CallGraph graph = randomGraph(GetParam() * 7919, 350);
    support::SplitMix64 rng(GetParam());
    Pipeline pipeline(spec::parseSpec(kIncrementalSpec));
    select::SelectorCache serialCache;
    select::SelectorCache parallelCache;

    PipelineOptions serialOpts;
    serialOpts.cache = &serialCache;
    PipelineOptions parallelOpts;
    parallelOpts.cache = &parallelCache;
    support::ThreadPool pool(4);
    parallelOpts.pool = &pool;

    pipeline.run(graph, serialOpts);  // Warm both caches before mutating.
    pipeline.run(graph, parallelOpts);

    for (int round = 0; round < 9; ++round) {
        mutateRandomly(graph, rng, 1 + rng.nextBelow(8));

        FunctionSet incrementalSerial = pipeline.run(graph, serialOpts).result;
        FunctionSet incrementalParallel =
            pipeline.run(graph, parallelOpts).result;
        EXPECT_TRUE(incrementalSerial == incrementalParallel)
            << "seed=" << GetParam() << " round=" << round;

        cg::CallGraph twin = rebuildTwin(graph);
        FunctionSet full = pipeline.run(twin).result;  // Cold, serial, fresh ids.
        EXPECT_EQ(selectedNames(graph, incrementalSerial),
                  selectedNames(twin, full))
            << "seed=" << GetParam() << " round=" << round;
    }
    // The sweep must actually exercise the incremental machinery, not
    // silently degrade to purge-everything.
    EXPECT_GT(serialCache.stats().survivals + serialCache.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u, 144u, 233u));

TEST(IncrementalEquivalence, FinalIcMatchesFullSelection) {
    cg::CallGraph graph = randomGraph(4242, 400);
    support::SplitMix64 rng(4242);
    support::ThreadPool pool(2);
    dyncapi::RefinementSession session(graph, &pool);
    session.select(kIncrementalSpec, "inc");
    for (int round = 0; round < 5; ++round) {
        mutateRandomly(graph, rng, 1 + rng.nextBelow(6));
        select::SelectionReport incremental =
            session.select(kIncrementalSpec, "inc");

        cg::CallGraph twin = rebuildTwin(graph);
        select::SelectionOptions fullOpts;
        fullOpts.specText = kIncrementalSpec;
        fullOpts.specName = "full";
        select::SelectionReport full = select::runSelection(twin, fullOpts);

        std::vector<std::string> a = incremental.ic.functions;
        std::vector<std::string> b = full.ic.functions;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b) << "round=" << round;
    }
}

// -------------------------------------------- controller metric journaling --

TEST(ControllerFolding, EpochFoldsVisitsAsMetricTouches) {
    binsim::AppModel model;
    model.name = "fold";
    auto add = [&](const char* name, double virtualNs) {
        binsim::AppFunction fn;
        fn.name = name;
        fn.unit = "f.cpp";
        fn.metrics.numInstructions = 100;
        fn.flags.hasBody = true;
        fn.workVirtualNs = virtualNs;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", 100.0);
    std::uint32_t kernel = add("kernel", 1000.0);
    model.entry = mainFn;
    model.functions[mainFn].calls.push_back({kernel, 8});

    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    binsim::Process process(binsim::compile(model, copts));
    dyncapi::DynCapi dyn(process);
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());

    adapt::Config options;
    options.budgetFraction = 0.5;
    options.perEventCostNs = 10.0;
    options.foldVisitMetricsInto = &graph;
    adapt::Controller controller(graph, dyn, options);
    controller.start(adapt::surveyOfDefinedFunctions(graph));

    const std::uint64_t beforeEpoch = graph.generation();
    scorep::Measurement measurement;
    scorep::CygProfileAdapter adapter(
        measurement, scorep::SymbolResolver::withSymbolInjection(process));
    dyn.attachCygHandler(adapter);
    binsim::ExecutionEngine engine(process);
    binsim::RunStats stats = engine.run();
    dyn.detachHandler();
    controller.epoch(measurement.mergedProfile(), measurement,
                     adapt::virtualEpochRuntimeNs(stats, measurement, 10.0,
                                                  10.0));

    cg::FunctionId kernelNode = graph.lookup("kernel");
    ASSERT_NE(kernelNode, cg::kInvalidFunction);
    EXPECT_EQ(graph.desc(kernelNode).metrics.profiledVisits, 8u);

    // The epoch journaled metric-only touches: a spec over the runtime
    // metric sees them while structural stages would have survived.
    std::optional<cg::GraphDelta> delta = graph.deltaSince(beforeEpoch);
    ASSERT_TRUE(delta.has_value());
    EXPECT_FALSE(delta->metricTouches.empty());
    EXPECT_TRUE(delta->addedCallEdges.empty());

    select::SelectionReport report = controller.session().select(
        "profiledVisits(\">=\", 5, %%)", "visits");
    EXPECT_TRUE(report.ic.contains("kernel"));
    EXPECT_FALSE(report.ic.contains("main"));
}

}  // namespace

// Tests for the cg::CsrView snapshot: adjacency identity with the mutable
// CallGraph representation on random graphs, snapshot sharing/invalidation
// across mutations (dlopen-style node additions), and equivalence of the
// CSR-backed selector rewrites against the seed Node-based algorithms.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "cg/call_graph.hpp"
#include "cg/csr_view.hpp"
#include "cg/reachability.hpp"
#include "select/pipeline.hpp"
#include "select/scc.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;

cg::CallGraph randomGraph(std::uint64_t seed, std::size_t nodes) {
    support::SplitMix64 rng(seed);
    cg::CallGraph graph;
    for (std::size_t i = 0; i < nodes; ++i) {
        cg::FunctionDesc desc;
        desc.name = i == 0 ? "main" : "fn" + std::to_string(i);
        desc.prettyName = desc.name;
        desc.flags.hasBody = true;
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
        if (rng.nextBool(0.03)) {
            graph.addOverride(static_cast<cg::FunctionId>(rng.nextBelow(i)),
                              static_cast<cg::FunctionId>(i));
        }
    }
    return graph;
}

template <typename Span>
std::vector<cg::FunctionId> toVec(Span span) {
    return {span.begin(), span.end()};
}

void expectViewMatchesGraph(const cg::CsrView& csr, const cg::CallGraph& graph) {
    ASSERT_EQ(csr.size(), graph.size());
    ASSERT_EQ(csr.generation(), graph.generation());
    ASSERT_EQ(csr.edgeCount(), graph.edgeCount());
    ASSERT_EQ(csr.entryPoint(), graph.entryPoint());
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        EXPECT_EQ(toVec(csr.callees(id)), graph.callees(id)) << "callees of " << id;
        EXPECT_EQ(toVec(csr.callers(id)), graph.callers(id)) << "callers of " << id;
        EXPECT_EQ(toVec(csr.overrides(id)), graph.overrides(id));
        EXPECT_EQ(toVec(csr.overriddenBy(id)), graph.overriddenBy(id));
        EXPECT_EQ(csr.name(id), graph.name(id));
        EXPECT_EQ(csr.callerCount(id), graph.callers(id).size());
        EXPECT_EQ(csr.calleeCount(id), graph.callees(id).size());
        EXPECT_EQ(csr.numStatements(id), graph.desc(id).metrics.numStatements);
        EXPECT_TRUE(csr.metrics(id) == graph.desc(id).metrics) << "metrics of " << id;
        EXPECT_TRUE(csr.flags(id) == graph.desc(id).flags) << "flags of " << id;
        EXPECT_EQ(csr.definedMask().test(id), graph.desc(id).flags.hasBody);
    }
}

/// Draws every metric and flag field of `id` at random, so the flat columns
/// are checked field by field (randomGraph sets only a few of them).
void randomizeDesc(cg::CallGraph& graph, cg::FunctionId id, support::SplitMix64& rng) {
    graph.mutateDesc(id, [&](cg::FunctionDesc& d) {
        auto metric = [&] { return static_cast<std::uint32_t>(rng.nextBelow(1000)); };
        d.metrics = {metric(), metric(), metric(), metric(), metric(), metric(), metric()};
        d.flags = {rng.nextBool(0.5), rng.nextBool(0.5), rng.nextBool(0.5), rng.nextBool(0.5),
                   rng.nextBool(0.5), rng.nextBool(0.5), rng.nextBool(0.5)};
    });
}

TEST(CsrView, PackedFlagsRoundTripEveryCombination) {
    for (unsigned bits = 0; bits < 128; ++bits) {
        EXPECT_EQ(cg::packFlags(cg::unpackFlags(static_cast<std::uint8_t>(bits))), bits);
    }
}

class CsrViewProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrViewProperty, AdjacencyIdenticalToNodeRepresentation) {
    cg::CallGraph graph = randomGraph(GetParam(), 500);
    expectViewMatchesGraph(cg::CsrView(graph), graph);
}

TEST_P(CsrViewProperty, RebuildAfterMutationTracksNewAdjacency) {
    cg::CallGraph graph = randomGraph(GetParam() ^ 0x5eed, 300);
    auto before = cg::CsrView::snapshot(graph);
    expectViewMatchesGraph(*before, graph);

    // dlopen-style runtime update: new nodes and edges appear.
    cg::FunctionDesc desc;
    desc.name = "dso_entry";
    desc.flags.hasBody = true;
    desc.metrics.numStatements = 7;
    cg::FunctionId late = graph.addFunction(desc);
    graph.addCallEdge(graph.entryPoint(), late);
    graph.addCallEdge(late, static_cast<cg::FunctionId>(1));

    auto after = cg::CsrView::snapshot(graph);
    ASSERT_NE(before.get(), after.get());
    EXPECT_EQ(before->size(), 300u);  // The old snapshot is frozen.
    expectViewMatchesGraph(*after, graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrViewProperty,
                         ::testing::Values(1u, 7u, 42u, 2026u, 956416u));

TEST(CsrView, ParallelBuildEqualsSerialBuild) {
    // Above the sharded-build threshold (2^14 nodes), so the pooled ctor
    // actually takes the parallel path; both views must match the graph
    // element for element — the parallel build is bit-identical by
    // construction (offsets fix every write position). Explicit pool so the
    // sharded path runs even on single-core hosts.
    cg::CallGraph graph = randomGraph(77, 20000);
    support::ThreadPool pool(4);
    cg::CsrView serial(graph);
    cg::CsrView parallel(graph, &pool);
    expectViewMatchesGraph(serial, graph);
    expectViewMatchesGraph(parallel, graph);
    EXPECT_EQ(parallel.edgeCount(), serial.edgeCount());
}

TEST(CsrView, ParallelBuildBelowThresholdFallsBackToSerial) {
    cg::CallGraph graph = randomGraph(78, 500);
    support::ThreadPool pool(4);
    cg::CsrView view(graph, &pool);
    expectViewMatchesGraph(view, graph);
}

TEST(CsrView, MetricAndFlagColumnsMatchDescInFullAndPatchedBuilds) {
    cg::CallGraph graph = randomGraph(21, 500);
    support::SplitMix64 rng(21);
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        randomizeDesc(graph, id, rng);
    }
    expectViewMatchesGraph(cg::CsrView(graph), graph);
    support::ThreadPool pool(4);
    expectViewMatchesGraph(cg::CsrView(graph, &pool), graph);

    // A metric-only touch, a whole-desc rewrite and an appended node, each
    // read into the columns of the next snapshot.
    auto before = cg::CsrView::snapshot(graph);
    graph.touchMetrics(3, [](cg::FunctionMetrics& m) { m.profiledVisits = 4242; });
    randomizeDesc(graph, 9, rng);
    cg::FunctionDesc late;
    late.name = "late";
    late.flags.isMpi = true;
    late.metrics.loopDepth = 3;
    graph.addFunction(late);
    auto after = cg::CsrView::snapshot(graph);
    expectViewMatchesGraph(*after, graph);
    EXPECT_EQ(after->metrics(3).profiledVisits, 4242u);
    EXPECT_TRUE(after->flags(graph.lookup("late")).isMpi);
    EXPECT_EQ(before->size(), 500u);  // The old snapshot is frozen.
    EXPECT_TRUE(before->flags(9) != after->flags(9) ||
                before->metrics(9) != after->metrics(9));
}

TEST(CsrView, SnapshotIsSharedPerGeneration) {
    cg::CallGraph graph = randomGraph(3, 100);
    auto a = cg::CsrView::snapshot(graph);
    auto b = cg::CsrView::snapshot(graph);
    EXPECT_EQ(a.get(), b.get());

    graph.addCallEdge(0, 1);  // Might already exist...
    cg::FunctionDesc desc;
    desc.name = "fresh";
    graph.addFunction(desc);  // ...this definitely mutates.
    auto c = cg::CsrView::snapshot(graph);
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(c->size(), graph.size());
}

TEST(CsrView, MovesCarryTheHeldSnapshotAndCopiesStartWithout) {
    cg::CallGraph graph = randomGraph(8, 50);
    auto held = cg::CsrView::snapshot(graph);
    // A copy builds its own view, so a selection on a copy runs cold.
    const cg::CallGraph copy(graph);
    EXPECT_NE(cg::CsrView::snapshot(copy).get(), held.get());
    const cg::CallGraph moved = std::move(graph);
    EXPECT_EQ(cg::CsrView::snapshot(moved).get(), held.get());
}

TEST(CsrView, MutateDescBumpsGenerationAndRefreshesSnapshot) {
    cg::CallGraph graph = randomGraph(5, 50);
    auto before = cg::CsrView::snapshot(graph);
    std::uint64_t stamp = graph.generation();
    graph.mutateDesc(7, [](cg::FunctionDesc& d) { d.metrics.numStatements = 999; });
    EXPECT_NE(graph.generation(), stamp);
    auto after = cg::CsrView::snapshot(graph);
    ASSERT_NE(before.get(), after.get());
    EXPECT_EQ(after->numStatements(7), 999u);
}

TEST(CallGraphMutation, ThrowingMutatorStillBumpsGeneration) {
    cg::CallGraph graph = randomGraph(9, 20);
    std::uint64_t stamp = graph.generation();
    EXPECT_THROW(graph.mutateDesc(3,
                                  [](cg::FunctionDesc& d) {
                                      d.metrics.flops = 123;  // Partial write...
                                      throw support::Error("mutator failed");
                                  }),
                 support::Error);
    // ...so the graph must read as changed: caches rebuild instead of
    // serving the half-mutated revision as fresh.
    EXPECT_NE(graph.generation(), stamp);
}

TEST(CallGraphMutation, RenameIsRejectedAndReverted) {
    cg::CallGraph graph = randomGraph(13, 20);
    std::string original = graph.name(4);
    EXPECT_THROW(
        graph.mutateDesc(4, [](cg::FunctionDesc& d) { d.name = "renamed"; }),
        support::Error);
    EXPECT_EQ(graph.name(4), original);
    EXPECT_EQ(graph.lookup(original), 4u);
    EXPECT_EQ(graph.lookup("renamed"), cg::kInvalidFunction);

    // A mutator that renames and then throws must not leave the rename in
    // place either — the name index key stays authoritative.
    EXPECT_THROW(graph.mutateDesc(4,
                                  [](cg::FunctionDesc& d) {
                                      d.name = "sneaky";
                                      throw support::Error("mutator failed");
                                  }),
                 support::Error);
    EXPECT_EQ(graph.name(4), original);
    EXPECT_EQ(graph.lookup(original), 4u);
}

TEST(CsrView, EmptyGraph) {
    cg::CallGraph graph;
    cg::CsrView csr(graph);
    EXPECT_EQ(csr.size(), 0u);
    EXPECT_EQ(csr.edgeCount(), 0u);
    EXPECT_EQ(csr.entryPoint(), cg::kInvalidFunction);
}

// ------------------------- seed-algorithm oracles for the CSR rewrites ----

select::FunctionSet runSpecOn(const cg::CallGraph& graph, const std::string& text) {
    select::Pipeline pipeline(spec::parseSpec(text));
    return pipeline.run(graph).result;
}

/// The seed BFS formulation of coarse() (pre-CSR implementation), kept here
/// verbatim as the oracle the flat-filter rewrite must reproduce.
select::FunctionSet coarseBfsOracle(const cg::CallGraph& graph,
                                    select::FunctionSet result,
                                    const select::FunctionSet& critical) {
    std::vector<bool> visited(graph.size(), false);
    std::deque<cg::FunctionId> queue;
    cg::FunctionId entry = graph.entryPoint();
    if (entry != cg::kInvalidFunction) {
        queue.push_back(entry);
        visited[entry] = true;
    }
    auto drainQueue = [&] {
        while (!queue.empty()) {
            cg::FunctionId u = queue.front();
            queue.pop_front();
            for (cg::FunctionId v : graph.callees(u)) {
                if (result.contains(v) && graph.callers(v).size() == 1 &&
                    !critical.contains(v)) {
                    result.remove(v);
                }
                if (!visited[v]) {
                    visited[v] = true;
                    queue.push_back(v);
                }
            }
        }
    };
    drainQueue();
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (!visited[id]) {
            visited[id] = true;
            queue.push_back(id);
            drainQueue();
        }
    }
    return result;
}

class CsrSelectorOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrSelectorOracle, CoarseFlatFilterMatchesSeedBfs) {
    cg::CallGraph graph = randomGraph(GetParam() ^ 0xC0A2, 400);
    auto input = runSpecOn(graph, "statements(\">=\", 5, %%)");
    auto critical = runSpecOn(graph, "flops(\">=\", 30, %%)");

    EXPECT_TRUE(runSpecOn(graph, "coarse(statements(\">=\", 5, %%))") ==
                coarseBfsOracle(graph, input,
                                select::FunctionSet(graph.size())));
    EXPECT_TRUE(runSpecOn(graph,
                          "coarse(statements(\">=\", 5, %%), "
                          "flops(\">=\", 30, %%))") ==
                coarseBfsOracle(graph, input, critical));
}

TEST_P(CsrSelectorOracle, NeighborSelectorMatchesNodeWalk) {
    cg::CallGraph graph = randomGraph(GetParam() ^ 0x40DE, 400);
    auto input = runSpecOn(graph, "flops(\">=\", 20, %%)");

    // 1-hop oracle straight off the Node vectors (the seed implementation).
    select::FunctionSet expected(graph.size());
    input.forEach([&](cg::FunctionId id) {
        for (cg::FunctionId n : graph.callers(id)) {
            expected.add(n);
        }
    });
    EXPECT_TRUE(runSpecOn(graph, "callers(flops(\">=\", 20, %%))") == expected);

    // 2-hop == callers(callers(a)) union callers(a).
    select::FunctionSet secondHop(graph.size());
    expected.forEach([&](cg::FunctionId id) {
        for (cg::FunctionId n : graph.callers(id)) {
            secondHop.add(n);
        }
    });
    select::FunctionSet twoHops = expected;
    twoHops |= secondHop;
    EXPECT_TRUE(runSpecOn(graph, "callers(flops(\">=\", 20, %%), 2)") == twoHops);
}

TEST_P(CsrSelectorOracle, SccOverCsrMatchesGraphWrapper) {
    cg::CallGraph graph = randomGraph(GetParam() ^ 0x5CC, 400);
    select::SccResult direct = select::computeScc(cg::CsrView(graph));
    select::SccResult viaGraph = select::computeScc(graph);
    EXPECT_EQ(direct.componentCount, viaGraph.componentCount);
    EXPECT_EQ(direct.component, viaGraph.component);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrSelectorOracle,
                         ::testing::Values(1u, 7u, 42u, 2026u, 956416u));

TEST(CsrReachability, CallGraphOverloadsDelegateToSnapshot) {
    cg::CallGraph graph = randomGraph(11, 300);
    auto viaGraph = cg::reachableFrom(graph, graph.entryPoint());
    cg::CsrView csr(graph);
    support::DynamicBitset roots(graph.size());
    roots.set(graph.entryPoint());
    EXPECT_TRUE(viaGraph == cg::reachableFrom(csr, roots));
}

/// The entry closure straight from reachableFrom(), without the memo.
support::DynamicBitset entryClosureOf(const cg::CsrView& csr) {
    support::DynamicBitset roots(csr.size());
    if (csr.entryPoint() != cg::kInvalidFunction) {
        roots.set(csr.entryPoint());
    }
    return cg::reachableFrom(csr, roots);
}

TEST(CsrReachability, EntryClosureTracksEntryPointAndEdges) {
    cg::CallGraph graph = randomGraph(23, 400);
    auto first = cg::CsrView::snapshot(graph);
    EXPECT_TRUE(first->reachableFromEntry() == entryClosureOf(*first));
    EXPECT_TRUE(first->reachableFromEntry().test(first->entryPoint()));

    // A new entry point: the new snapshot computes its own closure.
    graph.setEntryPoint(42);
    auto moved = cg::CsrView::snapshot(graph);
    ASSERT_EQ(moved->entryPoint(), 42u);
    EXPECT_TRUE(moved->reachableFromEntry() == entryClosureOf(*moved));
    EXPECT_FALSE(moved->reachableFromEntry() == first->reachableFromEntry());

    // An edge from the entry to a node outside its closure widens it.
    cg::FunctionId outside = cg::kInvalidFunction;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (!moved->reachableFromEntry().test(id)) {
            outside = id;
            break;
        }
    }
    ASSERT_NE(outside, cg::kInvalidFunction);
    graph.addCallEdge(42, outside);
    auto widened = cg::CsrView::snapshot(graph);
    EXPECT_TRUE(widened->reachableFromEntry() == entryClosureOf(*widened));
    EXPECT_TRUE(widened->reachableFromEntry().test(outside));
    EXPECT_FALSE(moved->reachableFromEntry().test(outside));  // Frozen.
}

TEST(CsrReachability, EntryClosureIsEmptyWithoutEntryPoint) {
    cg::CallGraph graph = capi::testutil::makeGraph(
        {{.name = "a"}, {.name = "b"}, {.name = "c"}}, {{"a", "b"}, {"b", "c"}});
    cg::CsrView csr(graph);
    ASSERT_EQ(csr.entryPoint(), cg::kInvalidFunction);
    EXPECT_EQ(csr.reachableFromEntry().size(), 3u);
    EXPECT_FALSE(csr.reachableFromEntry().any());
    support::DynamicBitset targets(3);
    targets.set(2);
    EXPECT_FALSE(cg::onCallPath(csr, targets).any());
}

TEST(CsrReachability, PooledOnCallPathEqualsSerial) {
    // Above the sharding thresholds; separate views, so the serial and the
    // pooled call each compute their own entry closure.
    cg::CallGraph graph = randomGraph(31, 20000);
    ASSERT_NE(graph.entryPoint(), cg::kInvalidFunction);
    support::ThreadPool pool(4);
    cg::CsrView serialView(graph);
    cg::CsrView pooledView(graph);
    support::DynamicBitset targets(graph.size());
    for (cg::FunctionId id = 0; id < graph.size(); id += 97) {
        targets.set(id);
    }
    support::DynamicBitset serialTouched;
    support::DynamicBitset pooledTouched;
    support::DynamicBitset serial =
        cg::onCallPath(serialView, targets, nullptr, &serialTouched);
    support::DynamicBitset pooled =
        cg::onCallPath(pooledView, targets, &pool, &pooledTouched);
    EXPECT_TRUE(serial == pooled);
    EXPECT_TRUE(serialTouched == pooledTouched);

    // Both equal the two closures intersected, taken without the memo.
    support::DynamicBitset forward =
        cg::reachableFrom(graph, graph.entryPoint());
    support::DynamicBitset backward = cg::reachesTo(serialView, targets);
    support::DynamicBitset touched = forward;
    touched |= backward;
    forward &= backward;
    EXPECT_TRUE(serial == forward);
    EXPECT_TRUE(serialTouched == touched);
    EXPECT_TRUE(pooledView.reachableFromEntry() == serialView.reachableFromEntry());
}

TEST(CsrReachability, ConcurrentPooledSelectionsShareOneEntryClosure) {
    // Four onCallPathTo stages per run and three runs at once, all on the
    // same fresh snapshot: the first use of its entry closure races between
    // pipeline stages and between runs.
    const std::string spec =
        "a = onCallPathTo(flops(\">=\", 10, %%))\n"
        "b = onCallPathTo(flops(\">=\", 30, %%))\n"
        "c = onCallPathTo(loopDepth(\">=\", 2, %%))\n"
        "d = onCallPathTo(statements(\">=\", 25, %%))\n"
        "join(%a, %b, %c, %d)\n";
    const cg::CallGraph reference = randomGraph(37, 20000);
    const select::FunctionSet expected = runSpecOn(reference, spec);
    ASSERT_TRUE(expected.count() > 0);

    const cg::CallGraph graph = randomGraph(37, 20000);
    support::ThreadPool pool(4);
    const cg::CsrView::SnapshotStats before = cg::CsrView::snapshotStats();
    std::vector<select::FunctionSet> results(3);
    std::vector<std::thread> runs;
    for (std::size_t i = 0; i < results.size(); ++i) {
        runs.emplace_back([&, i] {
            select::Pipeline pipeline(spec::parseSpec(spec));
            select::PipelineOptions options;
            options.pool = &pool;
            results[i] = pipeline.run(graph, options).result;
        });
    }
    for (std::thread& run : runs) {
        run.join();
    }
    // The three runs waited for one build of the graph's snapshot.
    EXPECT_EQ(cg::CsrView::snapshotStats().fullBuilds, before.fullBuilds + 1);
    for (const select::FunctionSet& result : results) {
        EXPECT_TRUE(result == expected);
    }
}

TEST(NeighborSelector, HugeHopCountTerminatesAtFixpoint) {
    // Cyclic graph + astronomically large k: the expansion must stop once no
    // new nodes appear, and the result equals any k >= the graph diameter.
    cg::CallGraph graph = randomGraph(17, 300);
    graph.addCallEdge(5, 0);  // Guarantee a cycle through main.
    auto bounded = runSpecOn(graph, "callers(flops(\">=\", 20, %%), 300)");
    auto huge =
        runSpecOn(graph, "callers(flops(\">=\", 20, %%), 1000000000)");
    EXPECT_TRUE(huge == bounded);
}

TEST(NeighborSelector, RejectsNonPositiveHopCount) {
    EXPECT_THROW(select::Pipeline(spec::parseSpec("callers(%%, 0)")),
                 support::Error);
    EXPECT_THROW(select::Pipeline(spec::parseSpec("callees(%%, -2)")),
                 support::Error);
}

}  // namespace

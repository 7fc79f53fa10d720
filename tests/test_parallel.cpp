// Tests for the parallel selection engine: thread pool, %ref dependency
// extraction, DAG-scheduled pipeline (bit-identical to serial), sharded
// reachability, and the selector-result memoization cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "cg/call_graph.hpp"
#include "cg/reachability.hpp"
#include "dyncapi/refinement.hpp"
#include "select/pipeline.hpp"
#include "select/selector_cache.hpp"
#include "spec/deps.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;
using select::FunctionSet;
using select::Pipeline;
using select::PipelineOptions;

// ------------------------------------------------------------ thread pool ---

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    support::ThreadPool pool(4);
    constexpr std::size_t kCount = 10000;
    std::vector<std::atomic<int>> seen(kCount);
    pool.parallelFor(kCount, 64, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            seen[i].fetch_add(1);
        }
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(seen[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    support::ThreadPool pool(2);
    std::atomic<std::size_t> total{0};
    pool.parallelFor(8, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            pool.parallelFor(100, 10, [&](std::size_t jlo, std::size_t jhi) {
                total.fetch_add(jhi - jlo);
            });
        }
    });
    EXPECT_EQ(total.load(), 8u * 100u);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
    support::ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(1000, 10,
                         [&](std::size_t lo, std::size_t) {
                             if (lo >= 500) {
                                 throw support::Error("boom");
                             }
                         }),
        support::Error);
}

TEST(ThreadPool, SubmittedTasksRun) {
    support::ThreadPool pool(2);
    std::mutex m;
    std::condition_variable cv;
    int ran = 0;
    for (int i = 0; i < 16; ++i) {
        pool.submit([&] {
            std::lock_guard<std::mutex> lock(m);
            ++ran;
            cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return ran == 16; }));
}

// -------------------------------------------------- dependency extraction ---

TEST(SpecDeps, CollectRefsFindsNestedReferences) {
    spec::SpecAst ast = spec::parseSpec(
        "subtract(join(%kernels, callers(%mpi)), inSystemHeader(%kernels))");
    auto refs = spec::collectRefs(*ast.definitions[0].expr);
    EXPECT_EQ(refs, (std::vector<std::string>{"kernels", "mpi"}));
}

TEST(SpecDeps, PipelineDagMirrorsRefStructure) {
    spec::SpecAst ast = spec::parseSpec(
        "a = flops(\">=\", 1, %%)\n"
        "b = statements(\">=\", 2, %%)\n"
        "c = join(%a, %b)\n"
        "subtract(%c, %a)\n");
    Pipeline pipeline(ast);
    ASSERT_EQ(pipeline.definitionCount(), 4u);
    EXPECT_TRUE(pipeline.dependenciesOf(0).empty());
    EXPECT_TRUE(pipeline.dependenciesOf(1).empty());
    EXPECT_EQ(pipeline.dependenciesOf(2), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(pipeline.dependenciesOf(3), (std::vector<std::size_t>{2, 0}));
}

TEST(SpecDeps, CanonicalHashResolvesThroughReferences) {
    // Same entry selector, but one spec routes it through a named alias:
    // resolved hashes must agree so the cache can share results.
    spec::SpecAst direct = spec::parseSpec("flops(\">=\", 10, %%)");
    spec::SpecAst aliased = spec::parseSpec("k = flops(\">=\", 10, %%)\n%k\n");

    std::unordered_map<std::string, std::uint64_t> bindings;
    std::uint64_t directHash =
        spec::canonicalSelectorHash(*direct.definitions[0].expr, bindings);
    bindings["k"] =
        spec::canonicalSelectorHash(*aliased.definitions[0].expr, bindings);
    std::uint64_t aliasHash =
        spec::canonicalSelectorHash(*aliased.definitions[1].expr, bindings);
    EXPECT_EQ(bindings["k"], directHash);
    EXPECT_EQ(aliasHash, directHash);

    // Different thresholds must not collide.
    spec::SpecAst other = spec::parseSpec("flops(\">=\", 11, %%)");
    EXPECT_NE(spec::canonicalSelectorHash(*other.definitions[0].expr, {}),
              directHash);
}

// --------------------------------------------------------- random fixtures ---

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

/// A wide multi-definition spec exercising every parallelized primitive:
/// filters, reachability, combinators, SCC condensation, coarse, k-hop
/// neighbor expansion, refs and a diamond-shaped DAG.
const char* kWideSpec =
    "hot = flops(\">=\", 10, %%)\n"
    "looped = loopDepth(\">=\", 1, %%)\n"
    "chatty = statements(\">=\", 15, %%)\n"
    "excluded = join(inSystemHeader(%%), inlineSpecified(%%))\n"
    "kernels = intersect(%hot, %looped)\n"
    "paths = onCallPathTo(%kernels)\n"
    "near = join(callers(%kernels), callees(%kernels, 2))\n"
    "agg = statementAggregation(\">=\", 40, %near)\n"
    "wide = join(%paths, onCallPathFrom(%chatty))\n"
    "trimmed = coarse(%wide, %kernels)\n"
    "subtract(join(%trimmed, %agg), %excluded)\n";

// ------------------------------------------------- serial/parallel parity ---

class ParallelPipelineProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ParallelPipelineProperty, ParallelResultsBitIdenticalToSerial) {
    cg::CallGraph graph = randomGraph(GetParam(), 600);
    Pipeline pipeline(spec::parseSpec(kWideSpec));

    select::PipelineRun serial = pipeline.run(graph);  // default: no pool
    for (std::size_t threads : {2, 4, 8}) {
        support::ThreadPool pool(threads);
        PipelineOptions options;
        options.pool = &pool;
        select::PipelineRun parallel = pipeline.run(graph, options);
        EXPECT_TRUE(parallel.result == serial.result)
            << "threads=" << threads << " seed=" << GetParam();
        ASSERT_EQ(parallel.sizes.size(), serial.sizes.size());
        for (std::size_t i = 0; i < serial.sizes.size(); ++i) {
            EXPECT_EQ(parallel.sizes[i], serial.sizes[i]) << "stage " << i;
        }
    }
}

TEST_P(ParallelPipelineProperty, ReachabilitySharededMatchesSerialBfs) {
    cg::CallGraph graph = randomGraph(GetParam() ^ 0xABCD, 800);
    support::ThreadPool pool(4);
    support::DynamicBitset roots(graph.size());
    support::SplitMix64 rng(GetParam());
    for (int i = 0; i < 5; ++i) {
        roots.set(rng.nextBelow(graph.size()));
    }
    EXPECT_TRUE(cg::reachableFrom(graph, roots) ==
                cg::reachableFrom(graph, roots, &pool));
    EXPECT_TRUE(cg::reachesTo(graph, roots) ==
                cg::reachesTo(graph, roots, &pool));
    EXPECT_TRUE(cg::onCallPath(graph, roots) ==
                cg::onCallPath(graph, roots, &pool));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelPipelineProperty,
                         ::testing::Values(1u, 7u, 42u, 2026u, 956416u));

TEST(ParallelSelectors, LargeGraphEngagesShardedPathsBitIdentically) {
    // 600-node property graphs stay below the intra-stage sharding
    // thresholds; this graph is large enough that coarse, the SCC
    // condensation and the k-hop expansions actually take their parallel
    // paths, which must still be bit-identical to serial.
    cg::CallGraph graph = randomGraph(99, 20000);
    support::ThreadPool pool(4);
    for (const char* specText : {
             "coarse(statements(\">=\", 5, %%))",
             "coarse(%%, flops(\">=\", 30, %%))",
             "statementAggregation(\">=\", 60)",
             "statementAggregation(\"<\", 45, loopDepth(\">=\", 1, %%))",
             "callers(flops(\">=\", 25, %%))",
             "callers(flops(\">=\", 25, %%), 3)",
             "callees(flops(\">=\", 25, %%), 2)",
         }) {
        Pipeline pipeline(spec::parseSpec(specText));
        select::FunctionSet serial = pipeline.run(graph).result;
        PipelineOptions options;
        options.pool = &pool;
        EXPECT_TRUE(pipeline.run(graph, options).result == serial)
            << "spec: " << specText;
    }
}

// -------------------------------------------------------------- executor ---

TEST(Executor, PoolIsProcessWideAndReused) {
    support::ThreadPool& a = support::Executor::pool();
    support::ThreadPool& b = support::Executor::pool();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.threadCount(), 1u);
}

TEST(Executor, PipelineBorrowsSharedPoolForParallelRuns) {
    cg::CallGraph graph = randomGraph(31, 400);
    Pipeline pipeline(spec::parseSpec(kWideSpec));
    select::FunctionSet serial = pipeline.run(graph).result;
    PipelineOptions options;
    options.pool = &support::Executor::pool();
    EXPECT_TRUE(pipeline.run(graph, options).result == serial);
    EXPECT_TRUE(pipeline.run(graph, options).result == serial);
}

TEST(ParallelPipeline, RefBeforeDefinitionThrowsInBothModes) {
    cg::CallGraph graph = randomGraph(3, 50);
    Pipeline pipeline(spec::parseSpec("join(%undefined, %%)"));
    EXPECT_THROW(pipeline.run(graph), support::Error);
    support::ThreadPool pool(4);
    PipelineOptions options;
    options.pool = &pool;
    EXPECT_THROW(pipeline.run(graph, options), support::Error);
}

std::string errorOf(const Pipeline& pipeline, const cg::CallGraph& graph,
                    const PipelineOptions& options) {
    try {
        pipeline.run(graph, options);
    } catch (const support::Error& e) {
        return e.what();
    }
    return "<no error>";
}

TEST(ParallelPipeline, PoolReportsTheErrorASerialRunMeetsFirst) {
    // `c` has no resolved dependency and fails at once, while `b` waits for
    // the slow reachability stage `a`. A pool must still run `b` — it comes
    // before `c` in definition order — and report its error, as a serial
    // run does.
    cg::CallGraph graph = randomGraph(77, 200000);
    Pipeline pipeline(spec::parseSpec("a = onCallPathTo(%%)\n"
                                      "b = join(%a, %undefinedFirst)\n"
                                      "c = join(%undefinedSecond)\n"
                                      "%c\n"));
    const std::string serial = errorOf(pipeline, graph, {});
    EXPECT_NE(serial.find("undefinedFirst"), std::string::npos) << serial;
    support::ThreadPool pool(4);
    EXPECT_EQ(errorOf(pipeline, graph, {.pool = &pool}), serial);
}

TEST(ParallelPipeline, LongRefChainRunsWithAndWithoutPool) {
    // 100k definitions, each referencing the one before: parsing stays
    // linear, and the scheduler releases each dependent without recursing.
    constexpr std::size_t kLength = 100000;
    std::string text = "d0 = flops(\">=\", 10, %%)\n";
    for (std::size_t i = 1; i < kLength; ++i) {
        text += "d" + std::to_string(i) + " = %d" + std::to_string(i - 1) + "\n";
    }
    Pipeline pipeline(spec::parseSpec(text));
    ASSERT_EQ(pipeline.definitionCount(), kLength);
    cg::CallGraph graph = randomGraph(8, 200);
    select::PipelineRun serial = pipeline.run(graph);
    support::ThreadPool pool(4);
    select::PipelineRun parallel = pipeline.run(graph, {.pool = &pool});
    EXPECT_TRUE(parallel.result == serial.result);
    EXPECT_TRUE(serial.result == Pipeline(spec::parseSpec("flops(\">=\", 10, %%)"))
                                     .run(graph)
                                     .result);
    EXPECT_EQ(parallel.sizes, serial.sizes);
}

TEST(ParallelPipeline, SharedExternalPoolAcrossRuns) {
    cg::CallGraph graph = randomGraph(11, 300);
    Pipeline pipeline(spec::parseSpec(kWideSpec));
    support::ThreadPool pool(4);
    PipelineOptions options;
    options.pool = &pool;
    select::PipelineRun first = pipeline.run(graph, options);
    select::PipelineRun second = pipeline.run(graph, options);
    EXPECT_TRUE(first.result == second.result);
    EXPECT_TRUE(first.result == pipeline.run(graph).result);
}

// ----------------------------------------------------------- memoization ---

TEST(SelectorCache, SecondRunIsServedFromCache) {
    cg::CallGraph graph = randomGraph(5, 400);
    Pipeline pipeline(spec::parseSpec(kWideSpec));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;

    select::PipelineRun cold = pipeline.run(graph, options);
    EXPECT_EQ(cold.cacheHits, 0u);
    select::PipelineRun warm = pipeline.run(graph, options);
    EXPECT_EQ(warm.cacheHits, pipeline.definitionCount());
    EXPECT_TRUE(warm.result == cold.result);

    // Parallel run against the same cache: still all hits, same bits.
    support::ThreadPool pool(4);
    options.pool = &pool;
    select::PipelineRun parallel = pipeline.run(graph, options);
    EXPECT_EQ(parallel.cacheHits, pipeline.definitionCount());
    EXPECT_TRUE(parallel.result == cold.result);
}

TEST(SelectorCache, SharedStagesHitAcrossDifferentSpecs) {
    cg::CallGraph graph = randomGraph(6, 400);
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;

    Pipeline a(spec::parseSpec("hot = flops(\">=\", 10, %%)\n"
                               "onCallPathTo(%hot)\n"));
    a.run(graph, options);
    // Different spec text, but the first definition is canonically identical.
    Pipeline b(spec::parseSpec("hot2 = flops(\">=\", 10, %%)\n"
                               "join(%hot2, %%)\n"));
    select::PipelineRun run = b.run(graph, options);
    EXPECT_EQ(run.cacheHits, 1u);
}

TEST(SelectorCache, GraphMutationInvalidatesEntries) {
    cg::CallGraph graph = randomGraph(9, 300);
    Pipeline pipeline(spec::parseSpec(kWideSpec));
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;

    pipeline.run(graph, options);
    std::uint64_t before = graph.generation();

    // Runtime update: a new node and edge (a dlopen'd DSO, say).
    cg::FunctionDesc desc;
    desc.name = "late_loaded";
    desc.flags.hasBody = true;
    desc.metrics.flops = 99;
    desc.metrics.loopDepth = 2;
    cg::FunctionId late = graph.addFunction(desc);
    graph.addCallEdge(graph.entryPoint(), late);
    EXPECT_NE(graph.generation(), before);

    select::PipelineRun fresh = pipeline.run(graph, options);
    EXPECT_EQ(fresh.cacheHits, 0u);  // Every stage recomputed.
    EXPECT_GT(cache.stats().invalidations, 0u);
    EXPECT_EQ(fresh.result.universe(), graph.size());
    // The new kernel function is hot and on a path from main.
    EXPECT_TRUE(fresh.result.contains(late));
}

TEST(SelectorCache, ResultsWithCacheMatchResultsWithout) {
    cg::CallGraph graph = randomGraph(13, 500);
    Pipeline pipeline(spec::parseSpec(kWideSpec));
    select::SelectorCache cache;
    support::ThreadPool pool(4);
    PipelineOptions cached;
    cached.cache = &cache;
    cached.pool = &pool;
    select::FunctionSet bare = pipeline.run(graph).result;
    EXPECT_TRUE(pipeline.run(graph, cached).result == bare);
    EXPECT_TRUE(pipeline.run(graph, cached).result == bare);
}

TEST(SelectorCache, SizeCapEvictsOldestEntriesPerShard) {
    // The cap is distributed over the hash shards; hashes that differ only
    // above the shard-selection bits land in one shard and compete there.
    select::SelectorCache cache(/*maxEntries=*/select::SelectorCache::kShardCount);
    cg::CallGraph graph = randomGraph(17, 100);
    select::FunctionSet result(graph.size());
    const std::uint64_t gen = graph.generation();
    for (std::uint64_t i = 0; i < 5; ++i) {
        cache.store(gen, i << 8, result);  // (hash >> 4) % 16 == 0 for all.
    }
    EXPECT_EQ(cache.size(), 1u);  // Shard 0 holds maxEntries/kShardCount = 1.
    EXPECT_EQ(cache.stats().evictions, 4u);
    // The newest entry won; older same-shard entries were evicted.
    EXPECT_NE(cache.lookup(gen, 4u << 8), nullptr);
    EXPECT_EQ(cache.lookup(gen, 0u), nullptr);
}

TEST(SelectorCache, PerShardStatsSumToTotals) {
    cg::CallGraph graph = randomGraph(18, 200);
    select::SelectorCache cache;
    PipelineOptions options;
    options.cache = &cache;
    Pipeline pipeline(spec::parseSpec(kWideSpec));
    pipeline.run(graph, options);
    pipeline.run(graph, options);
    select::SelectorCache::Stats stats = cache.stats();
    ASSERT_EQ(stats.perShard.size(), select::SelectorCache::kShardCount);
    select::SelectorCache::ShardStats sums;
    for (const auto& shard : stats.perShard) {
        sums.hits += shard.hits;
        sums.misses += shard.misses;
        sums.insertions += shard.insertions;
        sums.invalidations += shard.invalidations;
        sums.survivals += shard.survivals;
        sums.evictions += shard.evictions;
        sums.entries += shard.entries;
    }
    EXPECT_EQ(sums.hits, stats.hits);
    EXPECT_EQ(sums.misses, stats.misses);
    EXPECT_EQ(sums.insertions, stats.insertions);
    EXPECT_EQ(sums.invalidations, stats.invalidations);
    EXPECT_EQ(sums.survivals, stats.survivals);
    EXPECT_EQ(sums.evictions, stats.evictions);
    EXPECT_EQ(sums.entries, stats.entries);
    EXPECT_EQ(stats.hits, pipeline.definitionCount());
    EXPECT_EQ(stats.entries, pipeline.definitionCount());
}

// ---------------------------------------------------- refinement session ---

TEST(RefinementSession, ReselectionReusesStageResults) {
    cg::CallGraph graph = randomGraph(21, 400);
    support::ThreadPool pool(2);
    dyncapi::RefinementSession session(graph, &pool);

    select::SelectionReport first = session.select(kWideSpec, "wide");
    EXPECT_EQ(first.pipelineRun.cacheHits, 0u);

    // A refinement round typically tweaks a leaf threshold; the shared
    // prefix (hot/looped/chatty/excluded/kernels/paths/wide) is reused.
    std::string refined(kWideSpec);
    refined += "# tightened entry\n";
    select::SelectionReport second = session.select(refined, "wide+r");
    EXPECT_GT(second.pipelineRun.cacheHits, 0u);
    EXPECT_EQ(second.selectedFinal, first.selectedFinal);

    // A graph update purges what the delta could have changed (the %% -fed
    // filter stages see the universe grow) but the traversal stages, whose
    // recorded footprints cannot contain an edge-less new node, survive the
    // delta and keep answering from cache.
    cg::FunctionDesc desc;
    desc.name = "plugin_fn";
    desc.flags.hasBody = true;
    graph.addFunction(desc);
    select::SelectionReport third = session.select(kWideSpec, "wide2");
    EXPECT_LT(third.pipelineRun.cacheHits, session.cache().stats().insertions);
    EXPECT_GT(session.cache().stats().invalidations, 0u);
    EXPECT_GT(session.cache().stats().survivals, 0u);
    EXPECT_EQ(third.selectedFinal, first.selectedFinal);  // plugin_fn matches nothing.
    EXPECT_EQ(third.ic.functions, first.ic.functions);
}

}  // namespace

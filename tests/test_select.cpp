// Unit and property tests for the selection library: selectors, pipeline,
// set algebra, coarse selection, statement aggregation, SCC, inlining
// compensation and the selection driver.
#include <gtest/gtest.h>

#include "cg/call_graph.hpp"
#include "select/inline_compensation.hpp"
#include "select/pipeline.hpp"
#include "select/registry.hpp"
#include "select/scc.hpp"
#include "select/selection_driver.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;
using capi::testutil::makeGraph;
using select::FunctionSet;

/// Runs a (import-free) spec against a graph and returns the resulting set.
FunctionSet runSpec(const cg::CallGraph& graph, const std::string& text) {
    spec::SpecAst ast = spec::parseSpec(text);
    select::Pipeline pipeline(ast);
    return pipeline.run(graph).result;
}

std::vector<std::string> namesOf(const cg::CallGraph& g, const FunctionSet& s) {
    std::vector<std::string> out;
    s.forEach([&](cg::FunctionId id) { out.push_back(g.name(id)); });
    return out;
}

cg::CallGraph mixedGraph() {
    return makeGraph(
        {
            {.name = "main", .statements = 4},
            {.name = "MPI_Send", .systemHeader = true, .isMpi = true, .hasBody = false},
            {.name = "exchange", .statements = 6},
            {.name = "kernelA", .flops = 20, .loopDepth = 2, .statements = 25},
            {.name = "kernelB", .flops = 5, .loopDepth = 1, .statements = 8},
            {.name = "tinyInline", .statements = 1, .inlineSpecified = true},
            {.name = "sysHelper", .statements = 2, .systemHeader = true},
            {.name = "unreachable", .flops = 100, .loopDepth = 3, .statements = 50},
        },
        {
            {"main", "exchange"},
            {"main", "kernelA"},
            {"exchange", "MPI_Send"},
            {"kernelA", "tinyInline"},
            {"kernelA", "kernelB"},
            {"kernelB", "sysHelper"},
        });
}

// The isMpi flag is set by makeGraph via FnSpec only when listed; patch in a
// helper since FnSpec covers the common flags.

// -------------------------------------------------------------- selectors --

TEST(Selectors, EverythingSelectsAllNodes) {
    cg::CallGraph g = mixedGraph();
    EXPECT_EQ(runSpec(g, "join(%%)").count(), g.size());
}

TEST(Selectors, ByNameGlob) {
    cg::CallGraph g = mixedGraph();
    auto names = namesOf(g, runSpec(g, "byName(\"kernel*\", %%)"));
    EXPECT_EQ(names, (std::vector<std::string>{"kernelA", "kernelB"}));
}

TEST(Selectors, FlagSelectors) {
    cg::CallGraph g = mixedGraph();
    EXPECT_EQ(namesOf(g, runSpec(g, "inlineSpecified(%%)")),
              (std::vector<std::string>{"tinyInline"}));
    auto sys = namesOf(g, runSpec(g, "inSystemHeader(%%)"));
    EXPECT_EQ(sys, (std::vector<std::string>{"MPI_Send", "sysHelper"}));
    auto defined = runSpec(g, "defined(%%)");
    EXPECT_EQ(defined.count(), g.size() - 1);  // all but MPI_Send
}

TEST(Selectors, MetricComparisons) {
    cg::CallGraph g = mixedGraph();
    EXPECT_EQ(namesOf(g, runSpec(g, "flops(\">=\", 10, %%)")),
              (std::vector<std::string>{"kernelA", "unreachable"}));
    EXPECT_EQ(namesOf(g, runSpec(g, "flops(\"==\", 5, %%)")),
              (std::vector<std::string>{"kernelB"}));
    EXPECT_EQ(runSpec(g, "loopDepth(\">\", 0, %%)").count(), 3u);
    EXPECT_EQ(runSpec(g, "statements(\"<\", 2, %%)").count(), 2u);
}

TEST(Selectors, KernelCompositionFromListing1) {
    cg::CallGraph g = mixedGraph();
    auto kernels = namesOf(g, runSpec(g, "flops(\">=\", 10, loopDepth(\">=\", 1, %%))"));
    EXPECT_EQ(kernels, (std::vector<std::string>{"kernelA", "unreachable"}));
}

TEST(Selectors, OnCallPathToSelectsChainOnly) {
    cg::CallGraph g = mixedGraph();
    auto path = namesOf(
        g, runSpec(g, "onCallPathTo(flops(\">=\", 10, loopDepth(\">=\", 1, %%)))"));
    // unreachable has the metrics but no path from main.
    EXPECT_EQ(path, (std::vector<std::string>{"main", "kernelA"}));
}

TEST(Selectors, OnCallPathFromIsForwardClosure) {
    cg::CallGraph g = mixedGraph();
    auto reach = namesOf(g, runSpec(g, "onCallPathFrom(byName(\"kernelA\", %%))"));
    EXPECT_EQ(reach, (std::vector<std::string>{"kernelA", "kernelB", "tinyInline",
                                               "sysHelper"}));
}

TEST(Selectors, CallersAndCallees) {
    cg::CallGraph g = mixedGraph();
    EXPECT_EQ(namesOf(g, runSpec(g, "callers(byName(\"kernelB\", %%))")),
              (std::vector<std::string>{"kernelA"}));
    auto callees = namesOf(g, runSpec(g, "callees(byName(\"kernelA\", %%))"));
    EXPECT_EQ(callees, (std::vector<std::string>{"kernelB", "tinyInline"}));
}

TEST(Selectors, NamedReferencesAndSubtract) {
    cg::CallGraph g = mixedGraph();
    auto result = namesOf(g, runSpec(g,
                                     "excluded = join(inSystemHeader(%%), inlineSpecified(%%))\n"
                                     "kernels = flops(\">=\", 10, %%)\n"
                                     "subtract(%kernels, %excluded)\n"));
    EXPECT_EQ(result, (std::vector<std::string>{"kernelA", "unreachable"}));
}

TEST(Selectors, UseBeforeDefinitionFails) {
    cg::CallGraph g = mixedGraph();
    EXPECT_THROW(runSpec(g, "join(%undefined)"), support::Error);
}

TEST(Selectors, UnknownTypeFailsAtBuildTime) {
    EXPECT_THROW(select::Pipeline(spec::parseSpec("frobnicate(%%)")),
                 support::ParseError);
}

TEST(Selectors, ArityErrors) {
    EXPECT_THROW(select::Pipeline(spec::parseSpec("subtract(%%)")),
                 support::ParseError);
    EXPECT_THROW(select::Pipeline(spec::parseSpec("flops(10, \">=\", %%)")),
                 support::ParseError);
    EXPECT_THROW(select::Pipeline(spec::parseSpec("byName(%%, %%)")),
                 support::ParseError);
}

TEST(Selectors, BadComparisonOperator) {
    EXPECT_THROW(select::Pipeline(spec::parseSpec("flops(\"~=\", 1, %%)")),
                 support::Error);
}

// ------------------------------------------------------------ set algebra --

class SetAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetAlgebraTest, AlgebraicLaws) {
    // Universe of 200 functions; three pseudo-random sets from the seed.
    const std::size_t n = 200;
    capi::support::SplitMix64 rng(GetParam());
    FunctionSet a(n), b(n), c(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.nextBool(0.3)) a.add(static_cast<cg::FunctionId>(i));
        if (rng.nextBool(0.5)) b.add(static_cast<cg::FunctionId>(i));
        if (rng.nextBool(0.7)) c.add(static_cast<cg::FunctionId>(i));
    }

    // Commutativity of union / intersection.
    FunctionSet ab = a;
    ab |= b;
    FunctionSet ba = b;
    ba |= a;
    EXPECT_TRUE(ab == ba);

    FunctionSet ai = a;
    ai &= b;
    FunctionSet bi = b;
    bi &= a;
    EXPECT_TRUE(ai == bi);

    // De Morgan: complement(a | b) == complement(a) & complement(b).
    FunctionSet lhs = a;
    lhs |= b;
    lhs.complement();
    FunctionSet ca = a;
    ca.complement();
    FunctionSet cb = b;
    cb.complement();
    FunctionSet rhs = ca;
    rhs &= cb;
    EXPECT_TRUE(lhs == rhs);

    // a - b == a & complement(b).
    FunctionSet diff = a;
    diff -= b;
    FunctionSet viaComp = a;
    viaComp &= cb;
    EXPECT_TRUE(diff == viaComp);

    // Associativity of union through three sets.
    FunctionSet left = a;
    left |= b;
    left |= c;
    FunctionSet right = b;
    right |= c;
    right |= a;
    EXPECT_TRUE(left == right);

    // Subtraction never grows a set.
    EXPECT_LE(diff.count(), a.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetAlgebraTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654321u));

// ----------------------------------------------------------------- coarse --

TEST(Coarse, RemovesSoleCallerChain) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    // Select the whole solver chain, then coarsen without a critical set:
    // every sole-caller member of the chain collapses away.
    auto result = namesOf(g, runSpec(g, "coarse(defined(%%))"));
    // main has no caller (kept); solve is main's sole callee but main is its
    // only caller -> removed; residual has two callers -> kept.
    EXPECT_EQ(result, (std::vector<std::string>{"main", "residual"}));
}

TEST(Coarse, CriticalSetIsRetained) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    auto result = namesOf(
        g, runSpec(g, "critical = flops(\">=\", 10, loopDepth(\">=\", 1, %%))\n"
                      "coarse(defined(%%), %critical)\n"));
    // Amul and residual are critical kernels and must survive coarsening.
    EXPECT_EQ(result, (std::vector<std::string>{"main", "Amul", "residual"}));
}

TEST(Coarse, MultiCallerFunctionsSurvive) {
    auto g = makeGraph({{.name = "main"},
                        {.name = "a"},
                        {.name = "b"},
                        {.name = "shared"}},
                       {{"main", "a"}, {"main", "b"}, {"a", "shared"}, {"b", "shared"}});
    auto result = namesOf(g, runSpec(g, "coarse(%%)"));
    // a and b are sole-caller (only main), shared has two callers.
    EXPECT_EQ(result, (std::vector<std::string>{"main", "shared"}));
}

TEST(Coarse, UnselectedFunctionsUntouched) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    auto result = namesOf(g, runSpec(g, "coarse(byName(\"residual\", %%))"));
    EXPECT_EQ(result, (std::vector<std::string>{"residual"}));
}

// ---------------------------------------------------------------- SCC ------

TEST(Scc, SingletonComponents) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    select::SccResult scc = select::computeScc(g);
    EXPECT_EQ(scc.componentCount, g.size());
}

TEST(Scc, CollapsesCycle) {
    auto g = makeGraph({{.name = "main"}, {.name = "a"}, {.name = "b"}, {.name = "c"}},
                       {{"main", "a"}, {"a", "b"}, {"b", "c"}, {"c", "a"}});
    select::SccResult scc = select::computeScc(g);
    EXPECT_EQ(scc.componentCount, 2u);
    EXPECT_EQ(scc.component[g.lookup("a")], scc.component[g.lookup("b")]);
    EXPECT_EQ(scc.component[g.lookup("b")], scc.component[g.lookup("c")]);
    EXPECT_NE(scc.component[g.lookup("main")], scc.component[g.lookup("a")]);
}

TEST(Scc, TarjanOrderPutsCalleesFirst) {
    auto g = makeGraph({{.name = "main"}, {.name = "leaf"}}, {{"main", "leaf"}});
    select::SccResult scc = select::computeScc(g);
    EXPECT_LT(scc.component[g.lookup("leaf")], scc.component[g.lookup("main")]);
}

TEST(Scc, DeepChainDoesNotOverflowStack) {
    // 200k-deep chain: a recursive Tarjan would crash here.
    cg::CallGraph g;
    cg::FunctionDesc d;
    const int depth = 200000;
    for (int i = 0; i < depth; ++i) {
        d.name = "f" + std::to_string(i);
        g.addFunction(d);
    }
    for (int i = 0; i + 1 < depth; ++i) {
        g.addCallEdge(static_cast<cg::FunctionId>(i),
                      static_cast<cg::FunctionId>(i + 1));
    }
    select::SccResult scc = select::computeScc(g);
    EXPECT_EQ(scc.componentCount, static_cast<std::size_t>(depth));
}

// ------------------------------------------------- statement aggregation ---

TEST(StatementAggregation, AggregatesAlongCallChain) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    // Chain statements: main(5) -> solve(8) -> solveSegregated(2)
    //   -> scalarSolve(2) -> Amul(30): aggregate at Amul = 47.
    auto deep = namesOf(g, runSpec(g, "statementAggregation(\">=\", 47)"));
    EXPECT_EQ(deep, (std::vector<std::string>{"Amul"}));
    auto most = runSpec(g, "statementAggregation(\">=\", 13)");
    // main(5) fails, solve(13) passes, everything below accumulates more.
    EXPECT_EQ(most.count(), g.size() - 1);
    EXPECT_FALSE(most.contains(g.lookup("main")));
}

TEST(StatementAggregation, CycleMembersShareAggregate) {
    auto g = makeGraph({{.name = "main", .statements = 1},
                        {.name = "a", .statements = 10},
                        {.name = "b", .statements = 10}},
                       {{"main", "a"}, {"a", "b"}, {"b", "a"}});
    // a and b form one SCC with 20 local statements; aggregate = 21 for both.
    auto result = runSpec(g, "statementAggregation(\">=\", 21)");
    EXPECT_TRUE(result.contains(g.lookup("a")));
    EXPECT_TRUE(result.contains(g.lookup("b")));
    EXPECT_FALSE(result.contains(g.lookup("main")));
}

TEST(StatementAggregation, OptionalInputRestricts) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    auto result =
        namesOf(g, runSpec(g, "statementAggregation(\">=\", 13, byName(\"solve*\", %%))"));
    EXPECT_EQ(result, (std::vector<std::string>{"solve", "solveSegregated"}));
}

// --------------------------------------------------- inline compensation ---

TEST(InlineCompensation, RemovesInlinedAndAddsFirstAvailableCaller) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    // Symbols for everything except scalarSolve and Amul (both "inlined").
    select::SetSymbolOracle oracle;
    for (const char* sym : {"main", "solve", "solveSegregated", "residual"}) {
        oracle.add(sym);
    }
    FunctionSet selection(g.size());
    selection.add(g.lookup("Amul"));  // only the kernel is selected

    select::InlineCompensationStats stats =
        select::compensateInlining(g, selection, oracle);

    // Amul inlined -> removed; its caller scalarSolve is also inlined, so the
    // first available caller is solveSegregated.
    EXPECT_EQ(stats.inlinedRemoved, 1u);
    EXPECT_EQ(stats.callersAdded, 1u);
    EXPECT_FALSE(selection.contains(g.lookup("Amul")));
    EXPECT_TRUE(selection.contains(g.lookup("solveSegregated")));
    EXPECT_EQ(selection.count(), 1u);
}

TEST(InlineCompensation, AlreadySelectedCallerCountsNoAddition) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    select::SetSymbolOracle oracle;
    for (const char* sym : {"main", "solve", "solveSegregated", "scalarSolve"}) {
        oracle.add(sym);
    }
    FunctionSet selection(g.size());
    selection.add(g.lookup("Amul"));
    selection.add(g.lookup("scalarSolve"));

    select::InlineCompensationStats stats =
        select::compensateInlining(g, selection, oracle);
    EXPECT_EQ(stats.inlinedRemoved, 1u);
    EXPECT_EQ(stats.callersAdded, 0u);  // scalarSolve was already selected
    EXPECT_TRUE(selection.contains(g.lookup("scalarSolve")));
    EXPECT_EQ(selection.count(), 1u);
}

TEST(InlineCompensation, NoInlinedFunctionsIsANoOp) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    select::SetSymbolOracle oracle;
    for (cg::FunctionId id = 0; id < g.size(); ++id) {
        oracle.add(g.name(id));
    }
    FunctionSet selection(g.size());
    selection.add(g.lookup("Amul"));
    FunctionSet before = selection;

    select::InlineCompensationStats stats =
        select::compensateInlining(g, selection, oracle);
    EXPECT_EQ(stats.inlinedRemoved, 0u);
    EXPECT_EQ(stats.callersAdded, 0u);
    EXPECT_TRUE(selection == before);
}

TEST(InlineCompensation, RecursiveInlineCycleTerminates) {
    auto g = makeGraph({{.name = "main"}, {.name = "a"}, {.name = "b"}},
                       {{"main", "a"}, {"a", "b"}, {"b", "a"}});
    select::SetSymbolOracle oracle;
    oracle.add("main");  // a and b both inlined, mutually recursive
    FunctionSet selection(g.size());
    selection.add(g.lookup("a"));
    selection.add(g.lookup("b"));

    select::InlineCompensationStats stats =
        select::compensateInlining(g, selection, oracle);
    EXPECT_EQ(stats.inlinedRemoved, 2u);
    EXPECT_TRUE(selection.contains(g.lookup("main")));
    EXPECT_EQ(selection.count(), 1u);
}

TEST(InlineCompensation, SharedInlinedCallerChainIsWalkedOnce) {
    // s1 and s2 are selected and inlined, and both are called by the inlined
    // c, which is called by the inlined m and by p2: a diamond over c. The
    // first available callers are p (through c and m), p2 (through c), r
    // (a direct caller of s1 only), t (a direct caller of s2 only) and q (a
    // direct caller of s2, already selected, so not counted as added).
    auto g = makeGraph({{.name = "main"}, {.name = "p"}, {.name = "p2"}, {.name = "q"},
                        {.name = "r"}, {.name = "t"}, {.name = "m"}, {.name = "c"},
                        {.name = "s1"}, {.name = "s2"}},
                       {{"main", "p"}, {"main", "p2"}, {"main", "q"}, {"main", "r"},
                        {"main", "t"}, {"p", "m"}, {"m", "c"}, {"p2", "c"},
                        {"c", "s1"}, {"c", "s2"}, {"r", "s1"}, {"t", "s2"},
                        {"q", "s2"}});
    select::SetSymbolOracle oracle;
    for (const char* sym : {"main", "p", "p2", "q", "r", "t"}) {
        oracle.add(sym);
    }
    FunctionSet selection(g.size());
    selection.add(g.lookup("s1"));
    selection.add(g.lookup("s2"));
    selection.add(g.lookup("q"));

    select::InlineCompensationStats stats =
        select::compensateInlining(g, selection, oracle);
    EXPECT_EQ(stats.inlinedRemoved, 2u);
    EXPECT_EQ(stats.removed,
              (std::vector<cg::FunctionId>{g.lookup("s1"), g.lookup("s2")}));
    EXPECT_EQ(stats.added, (std::vector<cg::FunctionId>{g.lookup("p"), g.lookup("p2"),
                                                        g.lookup("r"), g.lookup("t")}));
    EXPECT_EQ(stats.callersAdded, 4u);
    FunctionSet expected(g.size());
    for (const char* name : {"p", "p2", "q", "r", "t"}) {
        expected.add(g.lookup(name));
    }
    EXPECT_TRUE(selection == expected);
}

// ------------------------------------------------------- selection driver --

TEST(SelectionDriver, ReportsTable1Columns) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    select::SetSymbolOracle oracle;
    for (const char* sym : {"main", "solve", "solveSegregated", "residual"}) {
        oracle.add(sym);
    }

    select::SelectionOptions options;
    options.specText =
        "kernels = flops(\">=\", 10, loopDepth(\">=\", 1, %%))\n"
        "onCallPathTo(%kernels)\n";
    options.specName = "kernels";
    options.symbolOracle = &oracle;

    select::SelectionReport report = select::runSelection(g, options);
    // Pre: main, solve, solveSegregated, scalarSolve, Amul, residual = 6.
    EXPECT_EQ(report.selectedPre, 6u);
    // scalarSolve and Amul are inlined away; their compensation callers are
    // already selected -> #added = 0, final = 4.
    EXPECT_EQ(report.added, 0u);
    EXPECT_EQ(report.selectedFinal, 4u);
    EXPECT_TRUE(report.ic.contains("solveSegregated"));
    EXPECT_FALSE(report.ic.contains("Amul"));
    EXPECT_GT(report.selectionSeconds, 0.0);
    EXPECT_GT(report.selectedPrePercent(), 0.0);
}

TEST(SelectionDriver, DefinedOnlyExcludesDeclarations) {
    cg::CallGraph g = mixedGraph();
    select::SelectionOptions options;
    options.specText = "byName(\"MPI_*\", %%)";
    options.applyInlineCompensation = false;
    select::SelectionReport report = select::runSelection(g, options);
    EXPECT_EQ(report.selectedPre, 0u);  // MPI_Send has no body

    options.definedOnly = false;
    report = select::runSelection(g, options);
    EXPECT_EQ(report.selectedPre, 1u);
}

TEST(SelectionDriver, PipelineTimingsCoverAllStages) {
    cg::CallGraph g = mixedGraph();
    select::SelectionOptions options;
    options.specText = "a = join(%%)\nb = subtract(%a, inlineSpecified(%%))\njoin(%b)\n";
    options.applyInlineCompensation = false;
    select::SelectionReport report = select::runSelection(g, options);
    EXPECT_EQ(report.pipelineRun.timingsNs.size(), 3u);
    EXPECT_EQ(report.pipelineRun.sizes.size(), 3u);
    EXPECT_EQ(report.pipelineRun.timingsNs[0].first, "a");
    EXPECT_EQ(report.pipelineRun.timingsNs[2].first, "<anonymous:0>");
}

}  // namespace

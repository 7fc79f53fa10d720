// Unit tests for the call-graph substrate: construction and the name index,
// MetaCG build/merge, virtual-call over-approximation, function-pointer
// resolution, MetaCG JSON read/write (golden bytes, hostile input against the
// old tree reader, file reads from directories and FIFOs), reachability and
// profile validation.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <tuple>

#include "apps/lulesh.hpp"
#include "apps/openfoam.hpp"
#include "cg/call_graph.hpp"
#include "cg/metacg_builder.hpp"
#include "cg/metacg_json.hpp"
#include "cg/reachability.hpp"
#include "cg/validation.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace {

using namespace capi;
using capi::testutil::makeGraph;

// ----------------------------------------------------------- CallGraph -----

TEST(CallGraph, AddFunctionDeduplicatesByName) {
    cg::CallGraph g;
    cg::FunctionDesc d;
    d.name = "f";
    cg::FunctionId a = g.addFunction(d);
    cg::FunctionId b = g.addFunction(d);
    EXPECT_EQ(a, b);
    EXPECT_EQ(g.size(), 1u);
}

TEST(CallGraph, DefinitionWinsOverDeclaration) {
    cg::CallGraph g;
    cg::FunctionDesc decl;
    decl.name = "f";
    decl.flags.hasBody = false;
    g.addFunction(decl);

    cg::FunctionDesc def;
    def.name = "f";
    def.flags.hasBody = true;
    def.metrics.flops = 99;
    def.translationUnit = "f.cpp";
    g.addFunction(def);

    cg::FunctionId id = g.lookup("f");
    EXPECT_TRUE(g.desc(id).flags.hasBody);
    EXPECT_EQ(g.desc(id).metrics.flops, 99u);
    EXPECT_EQ(g.desc(id).translationUnit, "f.cpp");
}

TEST(CallGraph, EdgesAreDeduplicated) {
    auto g = makeGraph({{.name = "a"}, {.name = "b"}}, {{"a", "b"}, {"a", "b"}});
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_TRUE(g.hasEdge(g.lookup("a"), g.lookup("b")));
    EXPECT_FALSE(g.hasEdge(g.lookup("b"), g.lookup("a")));
}

TEST(CallGraph, CallersMirrorCallees) {
    auto g = makeGraph({{.name = "a"}, {.name = "b"}, {.name = "c"}},
                       {{"a", "c"}, {"b", "c"}});
    cg::FunctionId c = g.lookup("c");
    ASSERT_EQ(g.callers(c).size(), 2u);
    EXPECT_EQ(g.callers(c)[0], g.lookup("a"));
    EXPECT_EQ(g.callers(c)[1], g.lookup("b"));
}

TEST(CallGraph, EntryPointDefaultsToMain) {
    auto g = makeGraph({{.name = "main"}, {.name = "x"}}, {});
    EXPECT_EQ(g.entryPoint(), g.lookup("main"));
    g.setEntryPoint(g.lookup("x"));
    EXPECT_EQ(g.entryPoint(), g.lookup("x"));
}

TEST(CallGraph, LookupMissReturnsInvalid) {
    cg::CallGraph g;
    EXPECT_EQ(g.lookup("nope"), cg::kInvalidFunction);
}

/// Every pool name resolves in `graph` exactly as in `expected`, and each
/// hit names its own node.
void expectLookupsMatch(const cg::CallGraph& graph,
                        const std::map<std::string, cg::FunctionId>& expected,
                        const std::vector<std::string>& pool, int step) {
    ASSERT_EQ(graph.aliveCount(), expected.size()) << "step " << step;
    for (const std::string& name : pool) {
        const auto it = expected.find(name);
        const cg::FunctionId want = it == expected.end() ? cg::kInvalidFunction : it->second;
        ASSERT_EQ(graph.lookup(name), want) << "step " << step << ", name " << name;
        if (want != cg::kInvalidFunction) {
            ASSERT_EQ(graph.name(want), name) << "step " << step;
        }
    }
}

TEST(CallGraph, NameIndexMatchesReferenceUnderRandomChurn) {
    // Small graphs over a small name pool: the index stays at 16-64 slots,
    // so probe runs overlap, wrap around the table end, and removals shift
    // entries that share home slots. Every step re-checks every name.
    std::vector<std::string> pool;
    for (int i = 0; i < 40; ++i) {
        pool.push_back("fn" + std::to_string(i));
    }
    support::SplitMix64 rng(0x1DE7'0B5E);
    for (int round = 0; round < 40; ++round) {
        cg::CallGraph graph;
        std::map<std::string, cg::FunctionId> expected;
        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = rng.nextBelow(100);
            if (op < 45) {
                // Add a fresh name, re-add a removed one, or merge into a
                // live one.
                cg::FunctionDesc desc;
                desc.name = pool[rng.nextBelow(pool.size())];
                const auto it = expected.find(desc.name);
                const cg::FunctionId want =
                    it != expected.end() ? it->second
                                         : static_cast<cg::FunctionId>(graph.size());
                const std::string name = desc.name;
                ASSERT_EQ(graph.addFunction(std::move(desc)), want);
                expected[name] = want;
            } else if (op < 85) {
                if (expected.empty()) continue;
                auto it = expected.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(rng.nextBelow(expected.size())));
                graph.removeFunction(it->second);
                expected.erase(it);
            } else if (op < 91) {
                const cg::CallGraph::CompactionResult result = graph.compact();
                for (auto& [name, id] : expected) {
                    id = result.remap[id];
                }
            } else if (op < 94) {
                cg::CallGraph copy(graph);
                expectLookupsMatch(copy, expected, pool, step);
                cg::CallGraph assigned = makeGraph({{.name = "fn0"}, {.name = "other"}}, {});
                assigned = copy;
                expectLookupsMatch(assigned, expected, pool, step);
                // Carry on with the copy: its index is the one mutated next.
                graph = std::move(assigned);
            } else if (op < 97) {
                cg::CallGraph moved(std::move(graph));
                // The husk is an empty graph that takes new names.
                EXPECT_EQ(graph.aliveCount(), 0u);
                EXPECT_EQ(graph.lookup("fn1"), cg::kInvalidFunction);
                cg::FunctionDesc desc;
                desc.name = "fn1";
                graph.addFunction(std::move(desc));
                EXPECT_EQ(graph.lookup("fn1"), 0u);
                graph = std::move(moved);
            } else {
                // The copy and the original mutate independently.
                cg::CallGraph copy = graph;
                cg::FunctionDesc desc;
                desc.name = "only-in-copy";
                copy.addFunction(std::move(desc));
                EXPECT_EQ(graph.lookup("only-in-copy"), cg::kInvalidFunction);
                EXPECT_NE(copy.lookup("only-in-copy"), cg::kInvalidFunction);
            }
            expectLookupsMatch(graph, expected, pool, step);
        }
    }
}

// -------------------------------------------------------- MetaCgBuilder ----

cg::SourceModel twoUnitModel() {
    cg::SourceModel model;

    cg::TranslationUnit tu1;
    tu1.name = "main.cpp";
    {
        cg::SourceFunction fn;
        fn.desc.name = "main";
        fn.desc.flags.hasBody = true;
        fn.callSites.push_back({cg::CallSite::Kind::Direct, "helper", ""});
        fn.callSites.push_back({cg::CallSite::Kind::Direct, "compute", ""});
        tu1.functions.push_back(std::move(fn));
    }
    {
        cg::SourceFunction fn;
        fn.desc.name = "helper";
        fn.desc.flags.hasBody = true;
        tu1.functions.push_back(std::move(fn));
    }

    cg::TranslationUnit tu2;
    tu2.name = "compute.cpp";
    {
        cg::SourceFunction fn;
        fn.desc.name = "compute";
        fn.desc.flags.hasBody = true;
        fn.desc.metrics.flops = 64;
        fn.callSites.push_back({cg::CallSite::Kind::Direct, "helper", ""});
        tu2.functions.push_back(std::move(fn));
    }

    model.units.push_back(std::move(tu1));
    model.units.push_back(std::move(tu2));
    return model;
}

TEST(MetaCgBuilder, LocalGraphInsertsDeclarationsForExternalCallees) {
    cg::SourceModel model = twoUnitModel();
    cg::LocalCallGraph local = cg::MetaCgBuilder::buildLocal(model.units[0]);
    // main.cpp defines main+helper and calls compute (external).
    EXPECT_EQ(local.graph.size(), 3u);
    cg::FunctionId compute = local.graph.lookup("compute");
    ASSERT_NE(compute, cg::kInvalidFunction);
    EXPECT_FALSE(local.graph.desc(compute).flags.hasBody);
}

TEST(MetaCgBuilder, MergeUnifiesAcrossUnits) {
    cg::MetaCgBuilder builder;
    cg::CallGraph whole = builder.build(twoUnitModel());
    EXPECT_EQ(whole.size(), 3u);
    cg::FunctionId compute = whole.lookup("compute");
    EXPECT_TRUE(whole.desc(compute).flags.hasBody);
    EXPECT_EQ(whole.desc(compute).metrics.flops, 64u);
    EXPECT_EQ(whole.desc(compute).translationUnit, "compute.cpp");
    EXPECT_TRUE(whole.hasEdge(whole.lookup("main"), compute));
    EXPECT_TRUE(whole.hasEdge(compute, whole.lookup("helper")));
    EXPECT_EQ(builder.stats().translationUnits, 2u);
}

TEST(MetaCgBuilder, VirtualCallsOverApproximate) {
    cg::SourceModel model;
    cg::TranslationUnit tu;
    tu.name = "virt.cpp";

    auto addFn = [&](const std::string& name, bool isVirtual = false) {
        cg::SourceFunction fn;
        fn.desc.name = name;
        fn.desc.flags.hasBody = true;
        fn.desc.flags.isVirtual = isVirtual;
        tu.functions.push_back(std::move(fn));
        return tu.functions.size() - 1;
    };
    std::size_t mainIdx = addFn("main");
    addFn("Base::solve", true);
    addFn("Mid::solve", true);
    addFn("Derived::solve", true);
    tu.functions[mainIdx].callSites.push_back(
        {cg::CallSite::Kind::Virtual, "Base::solve", ""});

    model.units.push_back(std::move(tu));
    model.overrides.push_back({"Base::solve", "Mid::solve"});
    model.overrides.push_back({"Mid::solve", "Derived::solve"});

    cg::MetaCgBuilder builder;
    cg::CallGraph whole = builder.build(model);

    cg::FunctionId mainId = whole.lookup("main");
    // Over-approximation: edges to the static target and all transitive
    // overriders, so every possible dispatch target is a call path.
    EXPECT_TRUE(whole.hasEdge(mainId, whole.lookup("Base::solve")));
    EXPECT_TRUE(whole.hasEdge(mainId, whole.lookup("Mid::solve")));
    EXPECT_TRUE(whole.hasEdge(mainId, whole.lookup("Derived::solve")));
    EXPECT_EQ(builder.stats().virtualEdges, 3u);
}

TEST(MetaCgBuilder, FunctionPointerUniqueCandidateResolves) {
    cg::SourceModel model;
    cg::TranslationUnit tu;
    tu.name = "fp.cpp";

    cg::SourceFunction mainFn;
    mainFn.desc.name = "main";
    mainFn.desc.flags.hasBody = true;
    mainFn.callSites.push_back({cg::CallSite::Kind::FunctionPointer, "", "void(int)"});
    mainFn.callSites.push_back({cg::CallSite::Kind::FunctionPointer, "", "void(double)"});
    tu.functions.push_back(std::move(mainFn));

    cg::SourceFunction cb;
    cb.desc.name = "callback";
    cb.desc.flags.hasBody = true;
    cb.desc.flags.addressTaken = true;
    cb.desc.signature = "void(int)";
    tu.functions.push_back(std::move(cb));

    // Two candidates for void(double): ambiguous, must stay unresolved.
    for (const char* name : {"cb_d1", "cb_d2"}) {
        cg::SourceFunction fn;
        fn.desc.name = name;
        fn.desc.flags.hasBody = true;
        fn.desc.flags.addressTaken = true;
        fn.desc.signature = "void(double)";
        tu.functions.push_back(std::move(fn));
    }

    model.units.push_back(std::move(tu));
    cg::MetaCgBuilder builder;
    cg::CallGraph whole = builder.build(model);

    EXPECT_TRUE(whole.hasEdge(whole.lookup("main"), whole.lookup("callback")));
    EXPECT_FALSE(whole.hasEdge(whole.lookup("main"), whole.lookup("cb_d1")));
    EXPECT_EQ(builder.stats().pointerEdgesResolved, 1u);
    EXPECT_EQ(builder.stats().pointerSitesUnresolved, 1u);
    ASSERT_EQ(builder.unresolvedPointerCalls().size(), 1u);
    EXPECT_EQ(builder.unresolvedPointerCalls()[0].signature, "void(double)");
}

// ----------------------------------------------------------- MetaCG JSON ---

/// The MetaCG reader before it streamed: two passes over a parsed tree
/// (nodes with their metadata, then call edges and overrides). The
/// hostile-input test holds readMetaCg to it.
cg::CallGraph referenceFromMetaCgDom(const support::Json& doc) {
    using support::Json;
    const Json* header = doc.find("_MetaCG");
    if (header == nullptr) {
        throw support::Error("MetaCG: missing _MetaCG header");
    }
    if (header->getString("version", "") != "2.0") {
        throw support::Error("MetaCG: unsupported version '" +
                             header->getString("version", "<none>") + "'");
    }
    const Json* cgObj = doc.find("_CG");
    if (cgObj == nullptr || !cgObj->isObject()) {
        throw support::Error("MetaCG: missing _CG section");
    }

    cg::CallGraph graph;

    // Pass 1: nodes with metadata.
    for (const auto& [name, fn] : cgObj->asObject()) {
        cg::FunctionDesc desc;
        desc.name = name;
        desc.flags.hasBody = fn.getBool("hasBody", false);
        desc.flags.isVirtual = fn.getBool("isVirtual", false);
        if (const Json* metaBlob = fn.find("meta")) {
            if (const Json* m = metaBlob->find("capiMetrics")) {
                desc.prettyName = m->getString("prettyName", name);
                desc.translationUnit = m->getString("translationUnit", "");
                desc.sourceFile = m->getString("sourceFile", "");
                desc.line = static_cast<std::uint32_t>(m->getInt("line", 0));
                desc.signature = m->getString("signature", "");
                desc.metrics.numStatements =
                    static_cast<std::uint32_t>(m->getInt("numStatements", 0));
                desc.metrics.flops = static_cast<std::uint32_t>(m->getInt("flops", 0));
                desc.metrics.loopDepth =
                    static_cast<std::uint32_t>(m->getInt("loopDepth", 0));
                desc.metrics.cyclomaticComplexity =
                    static_cast<std::uint32_t>(m->getInt("cyclomaticComplexity", 1));
                desc.metrics.numCallSites =
                    static_cast<std::uint32_t>(m->getInt("numCallSites", 0));
                desc.metrics.numInstructions =
                    static_cast<std::uint32_t>(m->getInt("numInstructions", 0));
                desc.flags.inlineSpecified = m->getBool("inlineSpecified", false);
                desc.flags.inSystemHeader = m->getBool("inSystemHeader", false);
                desc.flags.isMpi = m->getBool("isMpi", false);
                desc.flags.addressTaken = m->getBool("addressTaken", false);
                desc.flags.hiddenVisibility = m->getBool("hiddenVisibility", false);
            }
        }
        if (desc.prettyName.empty()) {
            desc.prettyName = name;
        }
        graph.addFunction(desc);
    }

    // Pass 2: edges and override relations.
    for (const auto& [name, fn] : cgObj->asObject()) {
        cg::FunctionId caller = graph.lookup(name);
        if (const Json* callees = fn.find("callees")) {
            for (const Json& calleeName : callees->asArray()) {
                cg::FunctionId callee = graph.lookup(calleeName.asString());
                if (callee == cg::kInvalidFunction) {
                    throw support::Error("MetaCG: edge to unknown function '" +
                                         calleeName.asString() + "'");
                }
                graph.addCallEdge(caller, callee);
            }
        }
        if (const Json* overrides = fn.find("overrides")) {
            for (const Json& baseName : overrides->asArray()) {
                cg::FunctionId base = graph.lookup(baseName.asString());
                if (base != cg::kInvalidFunction) {
                    graph.addOverride(base, caller);
                }
            }
        }
    }
    return graph;
}

auto descFields(const cg::FunctionDesc& d) {
    return std::tie(d.name, d.prettyName, d.translationUnit, d.sourceFile, d.line,
                    d.signature, d.flags.hasBody, d.flags.inlineSpecified,
                    d.flags.inSystemHeader, d.flags.isVirtual, d.flags.isMpi,
                    d.flags.addressTaken, d.flags.hiddenVisibility,
                    d.metrics.numStatements, d.metrics.flops, d.metrics.loopDepth,
                    d.metrics.cyclomaticComplexity, d.metrics.numCallSites,
                    d.metrics.numInstructions, d.metrics.profiledVisits);
}

/// Empty when the graphs are equal node by node — descriptor, callees,
/// callers, overrides and overriddenBy — else the first difference.
std::string graphDifference(const cg::CallGraph& a, const cg::CallGraph& b) {
    if (a.size() != b.size()) {
        return "size " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
    }
    for (cg::FunctionId id = 0; id < a.size(); ++id) {
        const cg::CallGraph::Node& x = a.node(id);
        const cg::CallGraph::Node& y = b.node(id);
        if (descFields(x.desc) != descFields(y.desc) || x.callees != y.callees ||
            x.callers != y.callers || x.overrides != y.overrides ||
            x.overriddenBy != y.overriddenBy || x.alive != y.alive) {
            return "node " + std::to_string(id) + " ('" + x.desc.name + "')";
        }
    }
    if (a.entryPoint() != b.entryPoint()) return "entry point";
    return "";
}


TEST(MetaCgJson, RoundTripPreservesStructureAndMetadata) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    g.addOverride(g.lookup("solve"), g.lookup("scalarSolve"));

    support::Json doc = cg::toMetaCgJson(g);
    cg::CallGraph round = cg::fromMetaCgJson(doc);

    ASSERT_EQ(round.size(), g.size());
    for (cg::FunctionId id = 0; id < g.size(); ++id) {
        cg::FunctionId rid = round.lookup(g.name(id));
        ASSERT_NE(rid, cg::kInvalidFunction);
        EXPECT_EQ(round.desc(rid).metrics.flops, g.desc(id).metrics.flops);
        EXPECT_EQ(round.desc(rid).metrics.loopDepth, g.desc(id).metrics.loopDepth);
        EXPECT_EQ(round.desc(rid).flags.hasBody, g.desc(id).flags.hasBody);
        EXPECT_EQ(round.callees(rid).size(), g.callees(id).size());
    }
    EXPECT_TRUE(round.hasEdge(round.lookup("scalarSolve"), round.lookup("Amul")));
    EXPECT_EQ(round.node(round.lookup("solve")).overriddenBy.size(), 1u);
    EXPECT_EQ(round.edgeCount(), g.edgeCount());
}

TEST(MetaCgJson, RejectsMissingHeader) {
    support::Json doc = support::Json::object();
    doc["_CG"] = support::Json::object();
    EXPECT_THROW(cg::fromMetaCgJson(doc), support::Error);
}

TEST(MetaCgJson, RejectsWrongVersion) {
    support::Json doc = support::Json::object();
    doc["_MetaCG"]["version"] = support::Json("1.0");
    doc["_CG"] = support::Json::object();
    EXPECT_THROW(cg::fromMetaCgJson(doc), support::Error);
}

TEST(MetaCgJson, RejectsEdgeToUnknownFunction) {
    support::Json doc = support::Json::object();
    doc["_MetaCG"]["version"] = support::Json("2.0");
    support::Json fn = support::Json::object();
    support::Json callees = support::Json::array();
    callees.push_back(support::Json("ghost"));
    fn["callees"] = callees;
    doc["_CG"]["f"] = fn;
    EXPECT_THROW(cg::fromMetaCgJson(doc), support::Error);
}

TEST(MetaCgJson, ReadsHeaderAfterGraph) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    const std::string text = cg::writeMetaCg(g);
    // Move the `_MetaCG` member behind `_CG`.
    const std::size_t cg = text.find("\"_CG\"");
    ASSERT_NE(cg, std::string::npos);
    const std::string header = text.substr(4, cg - 4);  // `"_MetaCG": {...},\n  `
    const std::string body = text.substr(cg, text.size() - 2 - cg);
    const std::string reordered = "{" + body + ",\n" + header.substr(0, header.rfind(',')) + "\n}";
    cg::CallGraph round = cg::readMetaCg(reordered);
    EXPECT_EQ(cg::writeMetaCg(round), text);
}

TEST(MetaCgJson, RejectsDuplicateFunctionKeys) {
    const std::string text = R"({"_MetaCG": {"version": "2.0"}, "_CG": {
        "f": {"hasBody": false}, "g": {"callees": ["f"]}, "f": {"hasBody": true}}})";
    try {
        cg::readMetaCg(text);
        FAIL() << "expected support::Error";
    } catch (const support::Error& e) {
        EXPECT_NE(std::string(e.what()).find("'f' listed twice"), std::string::npos) << e.what();
    }
    // The one place the stream reader and a parsed tree part ways: the tree
    // keeps the first position and the last value.
    support::Json doc = support::Json::parse(text);
    const support::JsonObject& fns = doc.find("_CG")->asObject();
    ASSERT_EQ(fns.size(), 2u);
    EXPECT_EQ(fns.begin()->first, "f");
    EXPECT_TRUE(fns.begin()->second.getBool("hasBody", false));
}

TEST(MetaCgJson, RejectsMalformedSectionsTyped) {
    const std::string header = R"("_MetaCG": {"version": "2.0"})";
    const std::string malformed[] = {
             std::string("[]"),
             "{" + header + "}",
             "{" + header + R"(, "_CG": [])" + "}",
             "{" + header + R"(, "_CG": {"f": {"callees": "g"}}})",
             "{" + header + R"(, "_CG": {"f": {"overrides": [1]}}})",
             "{" + header + R"(, "_CG": {"f": {}}} trailing)",
             R"({"_MetaCG": {"version": 2}, "_CG": {}})",
             R"({"_MetaCG": {"version": "2.0"}, "_MetaCG": {}, "_CG": {}})",
         };
    for (const std::string& text : malformed) {
        EXPECT_THROW(cg::readMetaCg(text), support::Error) << text;
    }
    // A later member replaces an earlier one: a bad first `_CG` is harmless.
    EXPECT_EQ(cg::readMetaCg("{" + header + R"(, "_CG": {"f": {"callees": 1}},
                              "_CG": {"g": {}}})").size(), 1u);
}

TEST(MetaCgJson, ReadsEscapedNamesAndSkipsUnknownMembers) {
    const std::string text = R"({"tool": {"nested": [1, {"x": null}]},
        "\u005fMetaCG": {"version": "2\u002e0", "extra": true},
        "_CG": {
          "m\u0061in": {"callees": ["w\u00e9rk", "main"], "unknown": [[]], "hasBody": true,
                   "meta": {"capiMetrics": {"line": 7.9, "flops": "many", "prettyName": ""}}},
          "w\u00e9rk": {"overrides": ["missing"], "isVirtual": 1}
        }})";
    cg::CallGraph g = cg::readMetaCg(text);
    ASSERT_EQ(g.size(), 2u);
    const cg::FunctionId main = g.lookup("main");
    const cg::FunctionId work = g.lookup("w\xc3\xa9rk");
    ASSERT_EQ(main, 0u);
    ASSERT_EQ(work, 1u);
    EXPECT_TRUE(g.hasEdge(main, work));
    EXPECT_TRUE(g.hasEdge(main, main));
    EXPECT_TRUE(g.desc(main).flags.hasBody);
    EXPECT_EQ(g.desc(main).line, 7u);
    EXPECT_EQ(g.desc(main).metrics.flops, 0u);
    EXPECT_EQ(g.desc(main).prettyName, "main");
    EXPECT_FALSE(g.desc(work).flags.isVirtual);
    EXPECT_TRUE(g.overrides(work).empty());
}

TEST(MetaCgJson, WriterReproducesGoldenBytes) {
    // tests/data/metacg_golden_lulesh.json was written by the tree-based
    // writer (`metacg_tool --app lulesh --nodes 300`).
    std::ifstream in(CAPI_TEST_DATA_DIR "/metacg_golden_lulesh.json", std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file";
    std::ostringstream golden;
    golden << in.rdbuf();

    apps::LuleshParams params;
    params.targetNodes = 300;
    cg::MetaCgBuilder builder;
    const cg::CallGraph graph = builder.build(apps::makeLulesh(params).toSourceModel());
    const std::string text = cg::writeMetaCg(graph);
    ASSERT_EQ(text.size(), golden.str().size());
    EXPECT_TRUE(text == golden.str())
        << "first difference at byte "
        << std::mismatch(text.begin(), text.end(), golden.str().begin()).first - text.begin();

    std::ostringstream streamed;
    cg::writeMetaCg(graph, streamed);
    EXPECT_TRUE(streamed.str() == golden.str());
    EXPECT_EQ(graphDifference(cg::readMetaCg(golden.str()), graph), "");
}

std::string readGoldenLulesh() {
    std::ifstream in(CAPI_TEST_DATA_DIR "/metacg_golden_lulesh.json", std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(MetaCgJson, ReadFileFailsTypedOnDirectoryAndMissingFile) {
    const std::string dir = ::testing::TempDir();
    try {
        cg::readMetaCgFile(dir);
        FAIL() << "expected support::Error";
    } catch (const support::Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find(dir), std::string::npos) << message;
        EXPECT_NE(message.find(std::system_category().message(EISDIR)), std::string::npos)
            << message;
    }
    const std::string missing = dir + "/capi_no_such_graph_" + std::to_string(::getpid());
    try {
        cg::readMetaCgFile(missing);
        FAIL() << "expected support::Error";
    } catch (const support::Error& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find(missing), std::string::npos) << message;
        EXPECT_NE(message.find(std::system_category().message(ENOENT)), std::string::npos)
            << message;
    }
}

TEST(MetaCgJson, ReadFileLoadsFromFifo) {
    // A FIFO has no size to read up front: the read runs to EOF, growing
    // its buffer past the first 64 KiB.
    const std::string golden = readGoldenLulesh();
    ASSERT_GT(golden.size(), std::size_t{1} << 16);
    const std::string fifo =
        ::testing::TempDir() + "/capi_metacg_fifo_" + std::to_string(::getpid());
    ::unlink(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    std::thread writer([&] {
        std::ofstream out(fifo, std::ios::binary);
        out.write(golden.data(), static_cast<std::streamsize>(golden.size()));
    });
    std::optional<cg::CallGraph> graph;
    std::string error;
    try {
        graph.emplace(cg::readMetaCgFile(fifo));
    } catch (const support::Error& e) {
        error = e.what();
    }
    writer.join();
    ::unlink(fifo.c_str());
    ASSERT_TRUE(graph.has_value()) << error;
    EXPECT_EQ(graphDifference(*graph, cg::readMetaCg(golden)), "");
}

TEST(MetaCgJson, WriterEmitsCanonicalTreeText) {
    // Escapes, overrides and tombstones: the streamed text is exactly what
    // dumping its own parse tree prints, so no key repeats and every value
    // is in the tree writer's form.
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.targetNodes = 60;
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(apps::makeOpenFoam(params).toSourceModel());
    cg::FunctionDesc odd;
    odd.name = "quote\"back\\slash\ttab\x01\xc3\xa9";
    odd.prettyName = "line\nbreak";
    const cg::FunctionId oddId = graph.addFunction(odd);
    graph.addCallEdge(graph.lookup("main"), oddId);
    graph.removeFunction(3);
    graph.removeFunction(5);
    const std::string text = cg::writeMetaCg(graph);
    EXPECT_TRUE(text == cg::toMetaCgJson(graph).dump(true));
    EXPECT_EQ(cg::readMetaCg(text).lookup(odd.name), graph.size() - 2);
}

// --- hostile input: the stream reader against the tree walk it replaced ---

std::string metaCgText(const binsim::AppModel& model) {
    cg::MetaCgBuilder builder;
    return cg::writeMetaCg(builder.build(model.toSourceModel()));
}

/// End of the JSON value that starts at `pos` in well-formed text.
std::size_t valueEnd(const std::string& text, std::size_t pos) {
    int depth = 0;
    for (std::size_t i = pos; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '"') {
            for (++i; i < text.size() && text[i] != '"'; ++i) {
                if (text[i] == '\\') ++i;
            }
            if (depth == 0) return std::min(i + 1, text.size());
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth == 0) return i;
            if (--depth == 0) return i + 1;
        } else if (depth == 0 && (c == ',' || c == '\n')) {
            return i;
        }
    }
    return text.size();
}

/// Position just past `"key": ` at a random occurrence, or npos.
std::size_t randomValueOf(const std::string& text, const std::string& key,
                          support::SplitMix64& rng) {
    const std::string needle = "\"" + key + "\": ";
    std::size_t at = text.find(needle, rng.nextBelow(text.size()));
    if (at == std::string::npos) at = text.find(needle);
    return at == std::string::npos ? at : at + needle.size();
}

std::string nested(std::size_t depth, bool objects) {
    if (!objects) return std::string(depth, '[') + std::string(depth, ']');
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"d\": ";
    return text + "0" + std::string(depth, '}');
}

/// One seeded mutation of well-formed MetaCG text.
std::string mutate(std::string text, support::SplitMix64& rng) {
    if (text.empty()) return text;
    static const char* const kKeys[] = {
        "callees", "overrides", "callers", "hasBody", "isVirtual", "meta",
        "capiMetrics", "prettyName", "line", "numStatements", "isMpi",
        "cyclomaticComplexity", "_CG", "_MetaCG", "version"};
    static const char* const kValues[] = {
        "null", "true", "false", "0", "-7", "4294967301", "2.5", "1e300",
        "-1e300", "1e999", "\"s\"", "\"\"", "[]", "{}", "[\"main\"]", "[1, 2]",
        "{\"capiMetrics\": {\"line\": 3}}", "\"2.0\"", "01", "-", "+1",
        "[\"nowhere\"]"};
    const std::size_t size = text.size();
    switch (rng.nextBelow(10)) {
        case 0:  // truncate
            text.resize(rng.nextBelow(size));
            break;
        case 1:  // bit-flip
            for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
                text[rng.nextBelow(size)] ^= static_cast<char>(1u << rng.nextBelow(8));
            }
            break;
        case 2: {  // stomp
            static const std::string kBytes = "{}[]\":,\\ \n0123456789-+.eEtrufalsn\x01\xff";
            const std::size_t at = rng.nextBelow(size);
            for (std::uint64_t n = 1 + rng.nextBelow(8); n > 0 && at + n <= text.size(); --n) {
                text[at + n - 1] = kBytes[rng.nextBelow(kBytes.size())];
            }
            break;
        }
        case 3: {  // append
            static const char* const kTails[] = {" \n", "x", "{}", "]", ",", "\"", "null",
                                                 "\t\r\n  "};
            text += kTails[rng.nextBelow(std::size(kTails))];
            break;
        }
        case 4: {  // deep-nest: around the 512-level limit
            const std::string deep = nested(490 + rng.nextBelow(40), rng.nextBool(0.5));
            const std::size_t value = randomValueOf(text, "line", rng);
            if (rng.nextBool(0.5) && value != std::string::npos) {
                text.replace(value, valueEnd(text, value) - value, deep);
            } else {
                text.insert(1, "\"deep\": " + deep + ",");
            }
            break;
        }
        case 5: {  // swap a value's type
            const std::size_t value = randomValueOf(text, kKeys[rng.nextBelow(std::size(kKeys))], rng);
            if (value != std::string::npos) {
                text.replace(value, valueEnd(text, value) - value,
                             kValues[rng.nextBelow(std::size(kValues))]);
            }
            break;
        }
        case 6: {  // reorder `_MetaCG` / `_CG`, sometimes repeating either
            const std::size_t metaAt = randomValueOf(text, "_MetaCG", rng);
            const std::size_t cgAt = randomValueOf(text, "_CG", rng);
            if (metaAt == std::string::npos || cgAt == std::string::npos) break;
            const std::string meta = text.substr(metaAt, valueEnd(text, metaAt) - metaAt);
            const std::string cg = text.substr(cgAt, valueEnd(text, cgAt) - cgAt);
            switch (rng.nextBelow(4)) {
                case 0: text = "{\"_CG\": " + cg + ", \"_MetaCG\": " + meta + "}"; break;
                case 1: text = "{\"_CG\": {}, \"_MetaCG\": " + meta + ", \"_CG\": " + cg + "}"; break;
                case 2: text = "{\"_CG\": " + cg + ", \"_MetaCG\": " + meta + ", \"_CG\": {}}"; break;
                default:
                    text = "{\"_MetaCG\": " + meta + ", \"_CG\": " + cg +
                           ", \"_MetaCG\": {\"version\": \"1.0\"}}";
            }
            break;
        }
        case 7: {  // repeat a member, before or after the original
            const char* key = kKeys[rng.nextBelow(std::size(kKeys))];
            const std::size_t value = randomValueOf(text, key, rng);
            if (value == std::string::npos) break;
            const std::string other = std::string("\"") + key + "\": " +
                                      kValues[rng.nextBelow(std::size(kValues))];
            if (rng.nextBool(0.5)) {
                text.insert(valueEnd(text, value), ", " + other);
            } else {
                text.insert(value - std::strlen(key) - 4, other + ", ");
            }
            break;
        }
        case 8: {  // unknown members
            static const char* const kUnknown[] = {
                "\"x-tool\": {\"callees\": [\"nowhere\"]}", "\"x\": [1, {\"a\": [true, null]}]",
                "\"\\u0078\": \"\\u0041\"", "\"y\": -0.5e3"};
            for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
                const std::size_t brace = text.find('{', rng.nextBelow(size));
                if (brace == std::string::npos) continue;
                const std::size_t next = text.find_first_not_of(" \n", brace + 1);
                const bool empty = next != std::string::npos && text[next] == '}';
                text.insert(brace + 1, std::string(kUnknown[rng.nextBelow(std::size(kUnknown))]) +
                                           (empty ? "" : ", "));
            }
            break;
        }
        default: {  // \u escapes: in place of a plain character, or new ones
            const std::size_t quote = text.find('"', rng.nextBelow(size));
            if (quote == std::string::npos || quote + 2 >= text.size()) break;
            const std::size_t at = quote + 1;
            const unsigned char c = static_cast<unsigned char>(text[at]);
            if (rng.nextBool(0.7) && c >= 0x20 && c < 0x7f && c != '"' && c != '\\') {
                char escape[8];
                std::snprintf(escape, sizeof escape, "\\u%04X", c);
                text.replace(at, 1, escape);
            } else {
                static const char* const kEscapes[] = {"\\u00e9", "\\n", "\\/", "\\u0000", "\\uZZ"};
                text.insert(at, kEscapes[rng.nextBelow(std::size(kEscapes))]);
            }
            break;
        }
    }
    return text;
}

/// True when the `_CG` section a tree would keep (the last one) lists a
/// function twice.
bool lastCgHasDuplicateKey(const std::string& text) {
    support::JsonReader in(text);
    bool duplicate = false;
    in.beginObject();
    while (std::optional<std::string_view> key = in.nextMember()) {
        if (*key != "_CG" || in.peek() != support::JsonReader::Kind::Object) {
            in.skip();
            continue;
        }
        std::set<std::string> names;
        duplicate = false;
        in.beginObject();
        while (std::optional<std::string_view> name = in.nextMember()) {
            duplicate |= !names.emplace(*name).second;
            in.skip();
        }
    }
    return duplicate;
}

TEST(MetaCgJson, HostileInputMatchesTreeReaderOrFailsTyped) {
    apps::LuleshParams lulesh;
    lulesh.targetNodes = 60;
    apps::OpenFoamParams openfoam = apps::OpenFoamParams::executionScale();
    openfoam.targetNodes = 60;
    const std::string clean[] = {metaCgText(apps::makeLulesh(lulesh)),
                                 metaCgText(apps::makeOpenFoam(openfoam))};
    constexpr int kMutants = 2000;
    int accepted = 0;
    int rejected = 0;
    int duplicates = 0;
    support::SplitMix64 rng(0x5EED'0C6A);
    for (int i = 0; i < kMutants; ++i) {
        std::string text = mutate(clean[i % 2], rng);
        if (rng.nextBool(0.25)) text = mutate(std::move(text), rng);

        std::optional<cg::CallGraph> reference;
        std::optional<cg::CallGraph> streamed;
        std::string referenceError;
        std::string streamError;
        try {
            reference.emplace(referenceFromMetaCgDom(support::Json::parse(text)));
        } catch (const support::Error& e) {
            referenceError = e.what();
        }
        try {
            streamed.emplace(cg::readMetaCg(text));
        } catch (const support::Error& e) {
            streamError = e.what();
        }
        if (reference && streamed) {
            ++accepted;
            EXPECT_EQ(graphDifference(*reference, *streamed), "") << "mutant " << i;
        } else if (!reference && !streamed) {
            ++rejected;
        } else if (reference && streamError.find("listed twice") != std::string::npos) {
            ++duplicates;
            EXPECT_TRUE(lastCgHasDuplicateKey(text)) << "mutant " << i;
        } else {
            ADD_FAILURE() << "mutant " << i << ": tree reader "
                          << (reference ? "accepted" : "rejected: " + referenceError)
                          << ", stream reader "
                          << (streamed ? "accepted" : "rejected: " + streamError);
        }
    }
    // Both outcomes are well exercised.
    EXPECT_GT(accepted, kMutants / 5);
    EXPECT_GT(rejected, kMutants / 5);
    EXPECT_EQ(accepted + rejected + duplicates, kMutants);
}

// ---------------------------------------------------------- reachability ---

TEST(Reachability, ForwardClosure) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    auto reach = cg::reachableFrom(g, g.lookup("solveSegregated"));
    EXPECT_TRUE(reach.test(g.lookup("solveSegregated")));
    EXPECT_TRUE(reach.test(g.lookup("scalarSolve")));
    EXPECT_TRUE(reach.test(g.lookup("Amul")));
    EXPECT_TRUE(reach.test(g.lookup("residual")));
    EXPECT_FALSE(reach.test(g.lookup("main")));
    EXPECT_FALSE(reach.test(g.lookup("solve")));
}

TEST(Reachability, OnCallPathIntersectsForwardAndBackward) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    capi::support::DynamicBitset targets(g.size());
    targets.set(g.lookup("Amul"));
    auto path = cg::onCallPath(g, targets);
    // Everything from main down to Amul, but not residual.
    EXPECT_TRUE(path.test(g.lookup("main")));
    EXPECT_TRUE(path.test(g.lookup("solve")));
    EXPECT_TRUE(path.test(g.lookup("solveSegregated")));
    EXPECT_TRUE(path.test(g.lookup("scalarSolve")));
    EXPECT_TRUE(path.test(g.lookup("Amul")));
    EXPECT_FALSE(path.test(g.lookup("residual")));
}

TEST(Reachability, HandlesCycles) {
    auto g = makeGraph({{.name = "main"}, {.name = "a"}, {.name = "b"}},
                       {{"main", "a"}, {"a", "b"}, {"b", "a"}});
    auto reach = cg::reachableFrom(g, g.lookup("main"));
    EXPECT_EQ(reach.count(), 3u);
}

TEST(Reachability, InvalidEntryYieldsEmptyPathSet) {
    cg::CallGraph g;  // no "main"
    cg::FunctionDesc d;
    d.name = "f";
    g.addFunction(d);
    capi::support::DynamicBitset targets(g.size());
    targets.set(0);
    EXPECT_EQ(cg::onCallPath(g, targets).count(), 0u);
}

// ------------------------------------------------------------ validation ---

TEST(Validation, InsertsMissingEdgesAndNodes) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    std::vector<cg::ObservedEdge> observed = {
        {"main", "solve"},                 // already present
        {"solve", "Amul"},                 // missing edge (observed shortcut)
        {"Amul", "plugin_kernel"},         // unknown callee
    };
    cg::ValidationResult result = cg::validateAgainstProfile(g, observed);
    EXPECT_EQ(result.observedEdges, 3u);
    EXPECT_EQ(result.alreadyPresent, 1u);
    EXPECT_EQ(result.edgesInserted, 2u);
    EXPECT_EQ(result.nodesInserted, 1u);
    EXPECT_TRUE(g.hasEdge(g.lookup("solve"), g.lookup("Amul")));
    ASSERT_NE(g.lookup("plugin_kernel"), cg::kInvalidFunction);
    EXPECT_FALSE(g.desc(g.lookup("plugin_kernel")).flags.hasBody);
}

TEST(Validation, IdempotentOnSecondRun) {
    cg::CallGraph g = capi::testutil::listing3Graph();
    std::vector<cg::ObservedEdge> observed = {{"solve", "Amul"}};
    cg::validateAgainstProfile(g, observed);
    cg::ValidationResult second = cg::validateAgainstProfile(g, observed);
    EXPECT_EQ(second.edgesInserted, 0u);
    EXPECT_EQ(second.alreadyPresent, 1u);
}

// ---------------------------------------------------------- compaction -----

TEST(Compaction, NoTombstonesIsIdentityNoOp) {
    cg::CallGraph g = makeGraph({{"main"}, {"a"}, {"b"}},
                                {{"main", "a"}, {"a", "b"}});
    const std::uint64_t before = g.generation();
    cg::CallGraph::CompactionResult result = g.compact();
    EXPECT_EQ(result.removed, 0u);
    ASSERT_EQ(result.remap.size(), 3u);
    for (cg::FunctionId id = 0; id < 3; ++id) {
        EXPECT_EQ(result.remap[id], id);
    }
    // Content untouched: downstream caches keyed on the stamp stay valid.
    EXPECT_EQ(g.generation(), before);
    EXPECT_EQ(g.size(), 3u);
}

TEST(Compaction, ReclaimsTombstonesAndRemapsEdges) {
    cg::CallGraph g = makeGraph(
        {{"main"}, {"dead1"}, {"a"}, {"dead2"}, {"b"}},
        {{"main", "a"}, {"a", "b"}, {"main", "dead1"}, {"dead1", "dead2"}});
    g.removeFunction(g.lookup("dead1"));
    g.removeFunction(g.lookup("dead2"));
    ASSERT_EQ(g.size(), 5u);
    ASSERT_EQ(g.aliveCount(), 3u);

    cg::CallGraph::CompactionResult result = g.compact();
    EXPECT_EQ(result.removed, 2u);
    ASSERT_EQ(result.remap.size(), 5u);
    EXPECT_EQ(result.remap[0], 0u);                    // main
    EXPECT_EQ(result.remap[1], cg::kInvalidFunction);  // dead1
    EXPECT_EQ(result.remap[2], 1u);                    // a
    EXPECT_EQ(result.remap[3], cg::kInvalidFunction);  // dead2
    EXPECT_EQ(result.remap[4], 2u);                    // b

    EXPECT_EQ(g.size(), 3u);
    EXPECT_EQ(g.aliveCount(), 3u);
    EXPECT_EQ(g.lookup("main"), 0u);
    EXPECT_EQ(g.lookup("a"), 1u);
    EXPECT_EQ(g.lookup("b"), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 2));
    EXPECT_EQ(g.edgeCount(), 2u);
    // Mirror arrays remapped too.
    ASSERT_EQ(g.callers(2).size(), 1u);
    EXPECT_EQ(g.callers(2)[0], 1u);
    EXPECT_EQ(g.entryPoint(), 0u);
}

TEST(Compaction, RemapsOverridesAndExplicitEntry) {
    cg::CallGraph g = makeGraph({{"dead"}, {"Base::f"}, {"Derived::f"}}, {});
    g.addOverride(g.lookup("Base::f"), g.lookup("Derived::f"));
    g.setEntryPoint(g.lookup("Base::f"));
    g.removeFunction(g.lookup("dead"));

    cg::CallGraph::CompactionResult result = g.compact();
    EXPECT_EQ(result.removed, 1u);
    cg::FunctionId base = g.lookup("Base::f");
    cg::FunctionId derived = g.lookup("Derived::f");
    ASSERT_EQ(g.overrides(derived).size(), 1u);
    EXPECT_EQ(g.overrides(derived)[0], base);
    ASSERT_EQ(g.overriddenBy(base).size(), 1u);
    EXPECT_EQ(g.overriddenBy(base)[0], derived);
    EXPECT_EQ(g.entryPoint(), base);
}

TEST(Compaction, InvalidatesAllDeltaHistory) {
    cg::CallGraph g = makeGraph({{"main"}, {"dead"}, {"a"}}, {{"main", "a"}});
    const std::uint64_t preRemoval = g.generation();
    g.removeFunction(g.lookup("dead"));
    ASSERT_TRUE(g.deltaSince(preRemoval).has_value());

    g.compact();
    // Ids were renumbered: no journal suffix can express that, so every
    // pre-compaction stamp answers "history gone" (full invalidation).
    EXPECT_FALSE(g.deltaSince(preRemoval).has_value());
    EXPECT_EQ(g.journalSize(), 0u);
    // The new stamp itself answers the empty delta.
    std::optional<cg::GraphDelta> now = g.deltaSince(g.generation());
    ASSERT_TRUE(now.has_value());
    EXPECT_TRUE(now->addedNodes.empty());

    // drainDelta falls back to the full "everything changed" report with
    // post-compaction ids only.
    cg::CallGraph g2 = makeGraph({{"main"}, {"dead"}, {"a"}}, {{"main", "a"}});
    g2.drainDelta();
    g2.removeFunction(g2.lookup("dead"));
    g2.compact();
    cg::GraphDelta full = g2.drainDelta();
    EXPECT_TRUE(full.entryChanged);
    ASSERT_EQ(full.addedNodes.size(), 2u);
    EXPECT_EQ(full.addedNodes[0], 0u);
    EXPECT_EQ(full.addedNodes[1], 1u);
}

TEST(Compaction, MutationAfterCompactUsesNewIds) {
    cg::CallGraph g = makeGraph({{"dead"}, {"main"}, {"a"}}, {{"main", "a"}});
    g.removeFunction(g.lookup("dead"));
    g.compact();

    cg::FunctionDesc d;
    d.name = "fresh";
    cg::FunctionId fresh = g.addFunction(d);
    EXPECT_EQ(fresh, 2u);  // Densely appended after the compacted nodes.
    g.addCallEdge(g.lookup("a"), fresh);
    EXPECT_TRUE(g.hasEdge(g.lookup("a"), fresh));
    EXPECT_EQ(g.aliveCount(), 3u);
}

}  // namespace

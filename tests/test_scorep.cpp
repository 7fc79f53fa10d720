// Tests for the Score-P substrate: profile trees, measurement + runtime
// filtering, filter-file semantics, symbol resolution (DSO limitation and
// symbol injection), the cyg-profile adapter and scorep-score.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>

#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/filter_file.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_report.hpp"
#include "scorepsim/scorep_score.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "support/error.hpp"

namespace {

using namespace capi;
using namespace capi::scorep;

// ------------------------------------------------------------ ProfileTree --

TEST(ProfileTree, ChildOfCreatesOnDemand) {
    ProfileTree tree;
    std::size_t a = tree.childOf(tree.root(), 1);
    std::size_t a2 = tree.childOf(tree.root(), 1);
    EXPECT_EQ(a, a2);
    std::size_t b = tree.childOf(a, 2);
    EXPECT_NE(a, b);
    EXPECT_EQ(tree.nodeCount(), 3u);
}

TEST(ProfileTree, ExclusiveIsInclusiveMinusChildren) {
    ProfileTree tree;
    std::size_t a = tree.childOf(tree.root(), 1);
    std::size_t b = tree.childOf(a, 2);
    tree.node(a).inclusiveNs = 1000;
    tree.node(b).inclusiveNs = 300;
    EXPECT_EQ(tree.exclusiveNs(a), 700u);
    EXPECT_EQ(tree.exclusiveNs(b), 300u);
}

TEST(ProfileTree, MergeAccumulatesByCallPath) {
    ProfileTree t1, t2;
    std::size_t a1 = t1.childOf(t1.root(), 1);
    t1.node(a1).visits = 2;
    t1.node(a1).inclusiveNs = 100;
    std::size_t a2 = t2.childOf(t2.root(), 1);
    t2.node(a2).visits = 3;
    t2.node(a2).inclusiveNs = 50;
    std::size_t b2 = t2.childOf(a2, 7);
    t2.node(b2).visits = 1;

    t1.mergeFrom(t2);
    std::size_t merged = t1.childOf(t1.root(), 1);
    EXPECT_EQ(t1.node(merged).visits, 5u);
    EXPECT_EQ(t1.node(merged).inclusiveNs, 150u);
    EXPECT_EQ(t1.node(t1.childOf(merged, 7)).visits, 1u);
}

TEST(ProfileTree, DepthAndTotals) {
    ProfileTree tree;
    std::size_t a = tree.childOf(tree.root(), 1);
    std::size_t b = tree.childOf(a, 2);
    std::size_t c = tree.childOf(b, 1);  // region 1 again, deeper
    tree.node(a).visits = 1;
    tree.node(c).visits = 4;
    tree.node(a).inclusiveNs = 100;
    tree.node(c).inclusiveNs = 40;
    EXPECT_EQ(tree.depth(), 3u);
    EXPECT_EQ(tree.totalVisits(1), 5u);
    EXPECT_EQ(tree.totalExclusiveNs(2), 0u);  // b: 0 - child 40 clamps to 0
}

TEST(ProfileTree, RegionTotalsMatchPerRegionQueries) {
    ProfileTree tree;
    std::size_t a = tree.childOf(tree.root(), 1);
    std::size_t b = tree.childOf(a, 2);
    std::size_t c = tree.childOf(b, 1);
    tree.node(a).visits = 1;
    tree.node(a).inclusiveNs = 100;
    tree.node(b).visits = 2;
    tree.node(b).inclusiveNs = 60;
    tree.node(c).visits = 4;
    tree.node(c).inclusiveNs = 40;
    auto totals = tree.regionTotals();
    ASSERT_EQ(totals.size(), 2u);
    for (RegionHandle region : {RegionHandle{1}, RegionHandle{2}}) {
        EXPECT_EQ(totals[region].visits, tree.totalVisits(region));
        EXPECT_EQ(totals[region].exclusiveNs, tree.totalExclusiveNs(region));
    }
}

TEST(Measurement, ProbeCostCalibrationIsPositiveAndFinite) {
    double costNs = calibrateProbeCostNs(1 << 10);
    EXPECT_GT(costNs, 0.0);
    EXPECT_LT(costNs, 1e7);  // sanity: an event costs well under 10ms
}

// ------------------------------------------------------------ Measurement --

TEST(Measurement, RecordsBalancedRegions) {
    Measurement m;
    RegionHandle a = m.defineRegion("alpha");
    RegionHandle b = m.defineRegion("beta");
    EXPECT_EQ(m.defineRegion("alpha"), a);  // dedup
    m.enter(a);
    m.enter(b);
    m.exit(b);
    m.exit(a);
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(a), 1u);
    EXPECT_EQ(profile.totalVisits(b), 1u);
    EXPECT_GE(profile.node(profile.childOf(profile.root(), a)).inclusiveNs,
              profile.node(profile.childOf(profile.childOf(profile.root(), a), b))
                  .inclusiveNs);
}

TEST(Measurement, UnbalancedExitThrows) {
    Measurement m;
    RegionHandle a = m.defineRegion("alpha");
    RegionHandle b = m.defineRegion("beta");
    m.enter(a);
    EXPECT_THROW(m.exit(b), support::Error);
    Measurement m2;
    RegionHandle c = m2.defineRegion("c");
    EXPECT_THROW(m2.exit(c), support::Error);
}

TEST(Measurement, RuntimeFilteringRetainsProbeCost) {
    MeasurementOptions options;
    options.runtimeFiltering = true;
    options.runtimeFilter.addRule(false, "noisy_*");
    Measurement m(options);
    RegionHandle noisy = m.defineRegion("noisy_helper");
    RegionHandle keep = m.defineRegion("kernel");
    for (int i = 0; i < 10; ++i) {
        m.enter(noisy);
        m.exit(noisy);
    }
    m.enter(keep);
    m.exit(keep);
    EXPECT_EQ(m.probeEvents(), 22u);     // every probe fired
    EXPECT_EQ(m.filteredEvents(), 20u);  // noisy ones dropped after the check
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(noisy), 0u);
    EXPECT_EQ(profile.totalVisits(keep), 1u);
}

// ---------------------------------------------------------- sampling gates --

TEST(SamplingGate, CountdownDecimatesOneInN) {
    Measurement m;
    RegionHandle hot = m.defineRegion("hot");
    m.setRegionSampling(hot, 8);
    EXPECT_EQ(m.regionSampling(hot).first, 8u);
    for (int i = 0; i < 64; ++i) {
        m.enter(hot);
        m.exit(hot);
    }
    ProfileTree profile = m.mergedProfile();
    // Visit 1 admitted, then every 8th: 64 visits -> 8 timed, 56 suppressed.
    EXPECT_EQ(profile.totalVisits(hot), 8u);
    auto suppressed = m.suppressedVisits();
    EXPECT_EQ(suppressed[hot], 56u);
    EXPECT_EQ(m.suppressedEvents(), 112u);  // enter + exit per skipped visit
}

TEST(SamplingGate, MinIntervalSuppressesBackToBackVisits) {
    Measurement m;
    RegionHandle hot = m.defineRegion("hot");
    // An interval no benchmark loop can satisfy: after the first admitted
    // visit, every later one lands inside the window and is suppressed.
    m.setRegionSampling(hot, 1, 60'000'000'000ull);
    for (int i = 0; i < 50; ++i) {
        m.enter(hot);
        m.exit(hot);
    }
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(hot), 1u);
    EXPECT_EQ(m.suppressedVisits()[hot], 49u);
}

TEST(SamplingGate, SuppressedFramesKeepCallPathStructure) {
    Measurement m;
    RegionHandle parent = m.defineRegion("parent");
    RegionHandle child = m.defineRegion("child");
    m.setRegionSampling(parent, 1, 60'000'000'000ull);
    for (int i = 0; i < 10; ++i) {
        m.enter(parent);  // suppressed after the first visit...
        m.enter(child);   // ...but the child still records on the real path
        m.exit(child);
        m.exit(parent);
    }
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(parent), 1u);
    EXPECT_EQ(profile.totalVisits(child), 10u);
    // All 10 child visits sit on the parent's call path, not the root's:
    // a suppressed enter still pushes its real CCT node.
    std::size_t parentNode = profile.childOf(profile.root(), parent);
    std::size_t childNode = profile.childOf(parentNode, child);
    EXPECT_EQ(profile.node(childNode).visits, 10u);
}

TEST(SamplingGate, ClearRestoresFullMeasurement) {
    Measurement m;
    RegionHandle hot = m.defineRegion("hot");
    m.setRegionSampling(hot, 1000);
    m.enter(hot);
    m.exit(hot);  // admitted (first visit), countdown armed
    m.enter(hot);
    m.exit(hot);  // suppressed
    m.clearRegionSampling(hot);
    EXPECT_EQ(m.regionSampling(hot).first, 1u);
    for (int i = 0; i < 5; ++i) {
        m.enter(hot);
        m.exit(hot);
    }
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(hot), 6u);  // 1 sampled + 5 full
    EXPECT_EQ(m.suppressedVisits()[hot], 1u);

    m.setRegionSampling(hot, 4);
    m.clearRegionSampling(hot);
    m.enter(hot);
    m.exit(hot);
    EXPECT_EQ(m.mergedProfile().totalVisits(hot), 7u);
}

TEST(SamplingGate, UnsampledRegionsUnaffectedBySampledNeighbor) {
    Measurement m;
    RegionHandle hot = m.defineRegion("hot");
    RegionHandle cold = m.defineRegion("cold");
    m.setRegionSampling(hot, 4);
    for (int i = 0; i < 16; ++i) {
        m.enter(cold);
        m.exit(cold);
        m.enter(hot);
        m.exit(hot);
    }
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(cold), 16u);
    EXPECT_EQ(profile.totalVisits(hot), 4u);
}

TEST(SamplingGate, GateCostCalibrationIsPositiveAndFinite) {
    double costNs = calibrateGateCostNs(1 << 10);
    EXPECT_GT(costNs, 0.0);
    EXPECT_LT(costNs, 1e7);
}

// -------------------------------------------------------------- FilterFile --

TEST(FilterFile, LastMatchWins) {
    FilterFile filter = FilterFile::parse(
        "SCOREP_REGION_NAMES_BEGIN\n"
        "  EXCLUDE *\n"
        "  INCLUDE Calc*\n"
        "  EXCLUDE CalcNoise\n"
        "SCOREP_REGION_NAMES_END\n");
    EXPECT_FALSE(filter.isIncluded("main"));
    EXPECT_TRUE(filter.isIncluded("CalcEnergy"));
    EXPECT_FALSE(filter.isIncluded("CalcNoise"));
}

TEST(FilterFile, DefaultIsIncluded) {
    FilterFile filter;
    EXPECT_TRUE(filter.isIncluded("anything"));
}

TEST(FilterFile, MangledKeywordAndMultiplePatterns) {
    FilterFile filter = FilterFile::parse(
        "SCOREP_REGION_NAMES_BEGIN\n"
        "  EXCLUDE MANGLED _ZSt* _ZN4Foam*\n"
        "SCOREP_REGION_NAMES_END\n");
    EXPECT_FALSE(filter.isIncluded("_ZSt6vector"));
    EXPECT_FALSE(filter.isIncluded("_ZN4Foam3fooEv"));
    EXPECT_TRUE(filter.isIncluded("main"));
}

TEST(FilterFile, RoundTripAndErrors) {
    FilterFile filter;
    filter.addRule(false, "*");
    filter.addRule(true, "Amul");
    FilterFile round = FilterFile::parse(filter.toText());
    EXPECT_EQ(round.ruleCount(), 2u);
    EXPECT_TRUE(round.isIncluded("Amul"));
    EXPECT_THROW(FilterFile::parse("EXCLUDE *\n"), support::Error);
    EXPECT_THROW(FilterFile::parse("SCOREP_REGION_NAMES_BEGIN\nBOGUS x\n"
                                   "SCOREP_REGION_NAMES_END\n"),
                 support::Error);
}

// --------------------------------------------------------- SymbolResolver --

binsim::CompiledProgram dsoProgram() {
    binsim::AppModel model;
    model.name = "resolve-test";
    model.dsos.push_back({"libx.so"});
    auto add = [&](const char* name, int dso, bool hidden = false) {
        binsim::AppFunction fn;
        fn.name = name;
        fn.unit = "u.cpp";
        fn.dso = dso;
        fn.metrics.numInstructions = 100;
        fn.flags.hasBody = true;
        fn.flags.hiddenVisibility = hidden;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    std::uint32_t mainFn = add("main", -1);
    std::uint32_t exeFn = add("exeFn", -1);
    std::uint32_t dsoFn = add("dsoFn", 0);
    std::uint32_t hiddenFn = add("hiddenFn", 0, true);
    model.entry = mainFn;
    model.functions[mainFn].calls.push_back({exeFn, 1});
    model.functions[mainFn].calls.push_back({dsoFn, 1});
    model.functions[dsoFn].calls.push_back({hiddenFn, 1});
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return binsim::compile(model, options);
}

TEST(SymbolResolver, ExecutableOnlyCannotResolveDsoAddresses) {
    binsim::Process process(dsoProgram());
    SymbolResolver resolver = SymbolResolver::fromExecutable(
        process.program().executable);

    std::uint32_t exeFn = process.program().model.indexOf("exeFn");
    std::uint32_t dsoFn = process.program().model.indexOf("dsoFn");
    std::uint64_t exeAddr = process.execInfo()[exeFn].entryAddress;
    std::uint64_t dsoAddr = process.execInfo()[dsoFn].entryAddress;

    EXPECT_EQ(resolver.resolve(exeAddr).value_or(""), "exeFn");
    EXPECT_FALSE(resolver.resolve(dsoAddr).has_value());  // the limitation
}

TEST(SymbolResolver, SymbolInjectionCoversDsos) {
    binsim::Process process(dsoProgram());
    SymbolResolver resolver = SymbolResolver::withSymbolInjection(process);
    std::uint32_t dsoFn = process.program().model.indexOf("dsoFn");
    std::uint64_t dsoAddr = process.execInfo()[dsoFn].entryAddress;
    EXPECT_EQ(resolver.resolve(dsoAddr).value_or(""), "dsoFn");

    // Hidden symbols stay unresolvable even with injection (nm can't see them).
    std::uint32_t hiddenFn = process.program().model.indexOf("hiddenFn");
    std::uint64_t hiddenAddr = process.execInfo()[hiddenFn].entryAddress;
    EXPECT_FALSE(resolver.resolve(hiddenAddr).has_value());
}

TEST(SymbolResolver, ResolvesInteriorAddresses) {
    binsim::Process process(dsoProgram());
    SymbolResolver resolver =
        SymbolResolver::fromExecutable(process.program().executable);
    std::uint32_t exeFn = process.program().model.indexOf("exeFn");
    std::uint64_t addr = process.execInfo()[exeFn].entryAddress;
    EXPECT_EQ(resolver.resolve(addr + 16).value_or(""), "exeFn");
    EXPECT_FALSE(resolver.resolve(3).has_value());
}

// ------------------------------------------------------- CygProfileAdapter --

TEST(CygAdapter, ResolvesAndRecords) {
    binsim::Process process(dsoProgram());
    Measurement m;
    CygProfileAdapter adapter(m, SymbolResolver::withSymbolInjection(process));
    std::uint32_t exeFn = process.program().model.indexOf("exeFn");
    std::uint64_t addr = process.execInfo()[exeFn].entryAddress;
    adapter.funcEnter(addr, 0);
    adapter.funcExit(addr, 0);
    ProfileTree profile = m.mergedProfile();
    EXPECT_EQ(profile.totalVisits(m.defineRegion("exeFn")), 1u);
    EXPECT_EQ(adapter.droppedEvents(), 0u);
}

TEST(CygAdapter, DropsUnresolvableDsoEvents) {
    binsim::Process process(dsoProgram());
    Measurement m;
    // Executable-only resolver: DSO events must be dropped, not crash.
    CygProfileAdapter adapter(
        m, SymbolResolver::fromExecutable(process.program().executable));
    std::uint32_t dsoFn = process.program().model.indexOf("dsoFn");
    std::uint64_t addr = process.execInfo()[dsoFn].entryAddress;
    adapter.funcEnter(addr, 0);
    adapter.funcExit(addr, 0);
    EXPECT_EQ(adapter.unresolvedAddresses(), 1u);
    EXPECT_EQ(adapter.droppedEvents(), 2u);
    EXPECT_EQ(m.regionCount(), 0u);
}

// ------------------------------------------------------------ scorep-score --

TEST(ScorepScore, ExcludesSmallFrequentFunctions) {
    Measurement m;
    RegionHandle hot = m.defineRegion("tinyHelper");
    RegionHandle kernel = m.defineRegion("bigKernel");
    ProfileTree tree;
    std::size_t h = tree.childOf(tree.root(), hot);
    tree.node(h).visits = 1000000;
    tree.node(h).inclusiveNs = 5000000;  // 5ns/visit: pure overhead
    std::size_t k = tree.childOf(tree.root(), kernel);
    tree.node(k).visits = 100;
    tree.node(k).inclusiveNs = 2000000000;  // 20ms/visit: real work

    ScoreResult result = scoreProfile(tree, m);
    ASSERT_EQ(result.regions.size(), 2u);
    EXPECT_EQ(result.regions[0].name, "tinyHelper");  // highest overhead first
    EXPECT_TRUE(result.regions[0].excluded);
    EXPECT_FALSE(result.regions[1].excluded);
    EXPECT_FALSE(result.suggestedFilter.isIncluded("tinyHelper"));
    EXPECT_TRUE(result.suggestedFilter.isIncluded("bigKernel"));

    std::string report = renderScoreReport(result);
    EXPECT_NE(report.find("tinyHelper"), std::string::npos);
    EXPECT_NE(report.find("FLT"), std::string::npos);
}

// ----------------------------------------------------------------- reports --

// ------------------------------------------- flat CCT == map-tree property --

/// Reference implementation: the seed's map-per-node profile tree. The flat
/// SoA ProfileTree must be observationally identical to this for every
/// operation sequence (childOf, counter mutation, merge) and every derived
/// query (exclusive, totals, depth).
struct MapTree {
    struct Node {
        RegionHandle region = kNoRegion;
        std::uint64_t visits = 0;
        std::uint64_t inclusiveNs = 0;
        std::map<RegionHandle, std::size_t> children;
    };
    std::vector<Node> nodes{Node{}};

    std::size_t childOf(std::size_t parent, RegionHandle region) {
        auto it = nodes[parent].children.find(region);
        if (it != nodes[parent].children.end()) {
            return it->second;
        }
        std::size_t index = nodes.size();
        nodes[parent].children.emplace(region, index);
        Node child;
        child.region = region;
        nodes.push_back(child);
        return index;
    }

    void mergeFrom(const MapTree& other) { mergeNode(0, other, 0); }
    void mergeNode(std::size_t dst, const MapTree& other, std::size_t src) {
        nodes[dst].visits += other.nodes[src].visits;
        nodes[dst].inclusiveNs += other.nodes[src].inclusiveNs;
        for (const auto& [region, srcChild] : other.nodes[src].children) {
            mergeNode(childOf(dst, region), other, srcChild);
        }
    }

    std::uint64_t exclusiveNs(std::size_t index) const {
        std::uint64_t childNs = 0;
        for (const auto& [region, child] : nodes[index].children) {
            childNs += nodes[child].inclusiveNs;
        }
        std::uint64_t inclusive = nodes[index].inclusiveNs;
        return childNs > inclusive ? 0 : inclusive - childNs;
    }

    std::size_t depth() const {
        std::size_t maxDepth = 0;
        std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
        while (!stack.empty()) {
            auto [index, d] = stack.back();
            stack.pop_back();
            maxDepth = std::max(maxDepth, d);
            for (const auto& [region, child] : nodes[index].children) {
                stack.push_back({child, d + 1});
            }
        }
        return maxDepth;
    }

    std::map<RegionHandle, std::pair<std::uint64_t, std::uint64_t>> totals() const {
        std::map<RegionHandle, std::pair<std::uint64_t, std::uint64_t>> out;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (nodes[i].region == kNoRegion) {
                continue;
            }
            auto& entry = out[nodes[i].region];
            entry.first += nodes[i].visits;
            entry.second += exclusiveNs(i);
        }
        return out;
    }
};

/// Builds an identically-shaped random tree pair via random walks.
void buildRandomPair(std::mt19937& rng, ProfileTree& flat, MapTree& ref,
                     int operations) {
    std::uniform_int_distribution<int> opDist(0, 9);
    std::uniform_int_distribution<RegionHandle> regionDist(1, 8);
    std::uniform_int_distribution<std::uint64_t> nsDist(0, 1000);
    std::vector<std::pair<std::size_t, std::size_t>> path;  // (flat, ref)
    for (int op = 0; op < operations; ++op) {
        int kind = opDist(rng);
        if (kind < 5) {  // descend (creating on demand)
            RegionHandle region = regionDist(rng);
            std::size_t flatParent = path.empty() ? flat.root() : path.back().first;
            std::size_t refParent = path.empty() ? 0 : path.back().second;
            path.emplace_back(flat.childOf(flatParent, region),
                              ref.childOf(refParent, region));
        } else if (kind < 8 && !path.empty()) {  // record a visit and ascend
            std::uint64_t ns = nsDist(rng);
            auto [flatNode, refNode] = path.back();
            flat.node(flatNode).visits += 1;
            flat.node(flatNode).inclusiveNs += ns;
            ref.nodes[refNode].visits += 1;
            ref.nodes[refNode].inclusiveNs += ns;
            path.pop_back();
        } else if (!path.empty()) {  // ascend without recording
            path.pop_back();
        }
    }
}

void expectTreesEquivalent(ProfileTree& flat, const MapTree& ref) {
    ASSERT_EQ(flat.nodeCount(), ref.nodes.size());
    EXPECT_EQ(flat.depth(), ref.depth());

    // Same shape: resolving every reference call path in the flat tree finds
    // an existing node with identical counters (nodeCount is re-checked
    // afterwards to prove childOf created nothing).
    std::vector<std::pair<std::size_t, std::size_t>> stack{{0, flat.root()}};
    while (!stack.empty()) {
        auto [refNode, flatNode] = stack.back();
        stack.pop_back();
        EXPECT_EQ(flat.node(flatNode).visits, ref.nodes[refNode].visits);
        EXPECT_EQ(flat.node(flatNode).inclusiveNs, ref.nodes[refNode].inclusiveNs);
        EXPECT_EQ(flat.exclusiveNs(flatNode), ref.exclusiveNs(refNode));
        for (const auto& [region, refChild] : ref.nodes[refNode].children) {
            stack.push_back({refChild, flat.childOf(flatNode, region)});
        }
    }
    ASSERT_EQ(flat.nodeCount(), ref.nodes.size());

    // Derived queries agree, and the one-pass exclusive matches per-node.
    auto flatTotals = flat.regionTotals();
    auto refTotals = ref.totals();
    ASSERT_EQ(flatTotals.size(), refTotals.size());
    for (const auto& [region, expected] : refTotals) {
        ASSERT_TRUE(flatTotals.count(region));
        EXPECT_EQ(flatTotals[region].visits, expected.first);
        EXPECT_EQ(flatTotals[region].exclusiveNs, expected.second);
        EXPECT_EQ(flat.totalVisits(region), expected.first);
        EXPECT_EQ(flat.totalExclusiveNs(region), expected.second);
    }
    std::vector<std::uint64_t> exclusive = flat.exclusiveAll();
    for (std::size_t i = 0; i < flat.nodeCount(); ++i) {
        EXPECT_EQ(exclusive[i], flat.exclusiveNs(i));
    }
}

TEST(FlatTreeProperty, RandomSequencesMatchMapReference) {
    std::mt19937 rng(0xC0FFEE);
    for (int round = 0; round < 30; ++round) {
        ProfileTree flat;
        MapTree ref;
        buildRandomPair(rng, flat, ref, 400);
        expectTreesEquivalent(flat, ref);
    }
}

TEST(FlatTreeProperty, MergeMatchesMapReference) {
    std::mt19937 rng(0xBEEF);
    for (int round = 0; round < 15; ++round) {
        ProfileTree flatMerged;
        MapTree refMerged;
        for (int tree = 0; tree < 4; ++tree) {
            ProfileTree flat;
            MapTree ref;
            buildRandomPair(rng, flat, ref, 250);
            flatMerged.mergeFrom(flat);
            refMerged.mergeFrom(ref);
        }
        expectTreesEquivalent(flatMerged, refMerged);
    }
}

TEST(FlatTree, SiblingChainCoversAllChildren) {
    ProfileTree tree;
    std::size_t a = tree.childOf(tree.root(), 1);
    std::size_t b = tree.childOf(tree.root(), 2);
    std::size_t c = tree.childOf(tree.root(), 3);
    tree.childOf(a, 4);
    std::set<std::size_t> seen;
    for (std::uint32_t child = tree.firstChild(tree.root());
         child != ProfileTree::kInvalidNode; child = tree.nextSibling(child)) {
        seen.insert(child);
    }
    EXPECT_EQ(seen, (std::set<std::size_t>{a, b, c}));
    EXPECT_EQ(tree.firstChild(b), ProfileTree::kInvalidNode);
    EXPECT_EQ(tree.parentOf(c), tree.root());
    EXPECT_EQ(tree.regionOf(a), 1u);
}

TEST(FlatTree, ManyChildrenForceIndexGrowth) {
    // Push one parent past several rehash thresholds and make sure lookups
    // still dedup.
    ProfileTree tree;
    std::vector<std::size_t> nodes;
    for (RegionHandle r = 1; r <= 500; ++r) {
        nodes.push_back(tree.childOf(tree.root(), r));
    }
    for (RegionHandle r = 1; r <= 500; ++r) {
        EXPECT_EQ(tree.childOf(tree.root(), r), nodes[r - 1]);
    }
    EXPECT_EQ(tree.nodeCount(), 501u);
}

TEST(Reports, CallTreeAndFlatRender) {
    Measurement m;
    RegionHandle a = m.defineRegion("solve");
    RegionHandle b = m.defineRegion("Amul");
    m.enter(a);
    m.enter(b);
    m.exit(b);
    m.exit(a);
    ProfileTree profile = m.mergedProfile();
    std::string tree = renderCallTree(profile, m);
    EXPECT_NE(tree.find("solve"), std::string::npos);
    EXPECT_NE(tree.find("Amul"), std::string::npos);
    std::string flat = renderFlatProfile(profile, m);
    EXPECT_NE(flat.find("region"), std::string::npos);
    EXPECT_NE(flat.find("Amul"), std::string::npos);
}

}  // namespace

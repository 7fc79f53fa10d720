// Fleet streaming-path micro benches: CCT delta extraction + wire encode
// throughput, decode and merge-apply throughput, the end-to-end aggregator
// epoch pipeline, a steady-state epoch at policy scale (6000 regions), and
// one client's apply of a policy frame at that scale.
//
// The headline counter is delta_vs_full_x on BM_FleetDeltaExtractEncode:
// encoded bytes of a full-CCT baseline frame divided by the per-epoch delta
// frame at the given churn (Args = {nodes, churn%}). The streaming design
// exists because that ratio is large — at 5% counter churn the delta must
// stay >= 10x smaller than re-shipping the tree.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adapt/controller.hpp"
#include "apps/openfoam.hpp"
#include "cg/call_graph.hpp"
#include "cg/metacg_builder.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/client.hpp"
#include "fleet/wire.hpp"
#include "obs/trace.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_delta.hpp"
#include "select/ic.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace capi;

constexpr std::uint32_t kRegions = 64;

/// A chain-shaped tree of `nodes` distinct CCT nodes (the shape is
/// irrelevant to the SoA sweep; a chain makes every (parent, region) pair
/// unique so childOf never dedups). Counters are seeded so the full-CCT
/// frame carries realistic varint widths.
scorep::ProfileTree chainTree(std::size_t nodes) {
    scorep::ProfileTree tree;
    std::size_t prev = tree.root();
    for (std::size_t i = 1; i < nodes; ++i) {
        prev = tree.childOf(
            prev, static_cast<scorep::RegionHandle>(i % kRegions));
        tree.node(prev).visits += 1 + i % 7;
        tree.node(prev).inclusiveNs += 100 + (i * 37) % 5000;
    }
    return tree;
}

/// Bumps the hot counters on ~`churnPct`% of nodes — one epoch of activity
/// concentrated on a stable hot set, the steady state deltas compress.
void churnCounters(scorep::ProfileTree& tree, std::int64_t churnPct,
                   std::uint64_t epoch) {
    const std::size_t stride =
        std::max<std::size_t>(1, static_cast<std::size_t>(100 / churnPct));
    for (std::size_t i = 1; i < tree.nodeCount(); i += stride) {
        tree.node(i).visits += 1;
        tree.node(i).inclusiveNs += 1000 + epoch % 64;
    }
}

fleet::DeltaFrame frameShell(std::uint64_t epoch) {
    fleet::DeltaFrame frame;
    frame.clientId = 7;
    frame.epoch = epoch;
    frame.coveredEpochs = 1;
    frame.runtimeNs = 1.5e9;
    frame.policyFingerprint = 0x1234'5678'9abc'def0ull;
    return frame;
}

/// The frame a producer with no acked watermark would ship: every node,
/// every counter, every region def. This is the "re-send the whole CCT"
/// baseline the delta ratio is measured against.
std::vector<std::uint8_t> encodeFullCct(const scorep::ProfileTree& tree) {
    fleet::DeltaFrame frame = frameShell(1);
    for (std::uint32_t h = 0; h < kRegions; ++h) {
        frame.newRegions.push_back({h, "region_" + std::to_string(h)});
    }
    frame.cct = scorep::extractCctDelta(tree, scorep::CctWatermark{});
    return fleet::encodeDeltaFrame(frame);
}

/// Extract-and-encode one epoch: the producer-side hot path. Args =
/// {nodes, churn%}. Items/s is nodes swept per second; the counters carry
/// the compression story into BENCH_results.json.
void BM_FleetDeltaExtractEncode(benchmark::State& state) {
    const auto nodes = static_cast<std::size_t>(state.range(0));
    const std::int64_t churnPct = state.range(1);

    scorep::ProfileTree tree = chainTree(nodes);
    const std::uint64_t fullBytes = encodeFullCct(tree).size();
    scorep::CctWatermark watermark;
    scorep::advanceWatermark(watermark, tree);

    std::uint64_t epoch = 0;
    std::uint64_t deltaBytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        churnCounters(tree, churnPct, ++epoch);
        state.ResumeTiming();
        fleet::DeltaFrame frame = frameShell(epoch);
        frame.cct = scorep::extractCctDelta(tree, watermark);
        const std::vector<std::uint8_t> bytes = fleet::encodeDeltaFrame(frame);
        benchmark::DoNotOptimize(bytes.data());
        deltaBytes += bytes.size();
        scorep::advanceWatermark(watermark, tree);
    }

    const double perEpoch =
        static_cast<double>(deltaBytes) /
        static_cast<double>(std::max<std::uint64_t>(1, state.iterations()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(nodes));
    state.counters["delta_bytes_per_epoch"] = perEpoch;
    state.counters["full_cct_bytes"] = static_cast<double>(fullBytes);
    state.counters["delta_vs_full_x"] =
        static_cast<double>(fullBytes) / perEpoch;
}
BENCHMARK(BM_FleetDeltaExtractEncode)
    ->Args({4096, 5})
    ->Args({16384, 5})
    ->Args({16384, 1})
    ->Args({65536, 5});

/// Decode throughput of one steady-state delta frame (the aggregator's
/// per-frame door cost before merging).
void BM_FleetDeltaDecode(benchmark::State& state) {
    const auto nodes = static_cast<std::size_t>(state.range(0));
    scorep::ProfileTree tree = chainTree(nodes);
    scorep::CctWatermark watermark;
    scorep::advanceWatermark(watermark, tree);
    churnCounters(tree, 5, 1);
    fleet::DeltaFrame frame = frameShell(2);
    frame.cct = scorep::extractCctDelta(tree, watermark);
    const std::vector<std::uint8_t> bytes = fleet::encodeDeltaFrame(frame);
    const auto changed = static_cast<std::int64_t>(frame.cct.changed.size());

    for (auto _ : state) {
        fleet::DeltaFrame decoded = fleet::decodeDeltaFrame(bytes);
        benchmark::DoNotOptimize(decoded.cct.changed.data());
    }
    state.SetItemsProcessed(state.iterations() * changed);
    state.counters["frame_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_FleetDeltaDecode)->Arg(16384)->Arg(65536);

/// Merge-apply throughput: folding a decoded steady-state delta into the
/// fleet tree through the id map (counters accumulate — exactly what the
/// aggregator does every epoch per client).
void BM_FleetDeltaApply(benchmark::State& state) {
    const auto nodes = static_cast<std::size_t>(state.range(0));
    scorep::ProfileTree source = chainTree(nodes);

    scorep::ProfileTree fleetTree;
    std::vector<std::uint32_t> idMap{
        static_cast<std::uint32_t>(fleetTree.root())};
    scorep::applyCctDelta(
        scorep::extractCctDelta(source, scorep::CctWatermark{}), fleetTree,
        idMap);

    scorep::CctWatermark watermark;
    scorep::advanceWatermark(watermark, source);
    churnCounters(source, 5, 1);
    const scorep::CctDelta delta =
        scorep::extractCctDelta(source, watermark);

    for (auto _ : state) {
        scorep::applyCctDelta(delta, fleetTree, idMap);
        benchmark::DoNotOptimize(fleetTree.nodeCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(delta.changed.size()));
}
BENCHMARK(BM_FleetDeltaApply)->Arg(16384)->Arg(65536);

cg::CallGraph fleetGraph() {
    cg::CallGraph graph;
    auto add = [&](const char* name) {
        cg::FunctionDesc desc;
        desc.name = name;
        desc.prettyName = name;
        desc.flags.hasBody = true;
        return graph.addFunction(desc);
    };
    const cg::FunctionId mainFn = add("main");
    graph.addCallEdge(mainFn, add("kernel"));
    graph.addCallEdge(mainFn, add("noisy"));
    return graph;
}

/// End-to-end fleet epoch: N headless clients each extract/encode/send one
/// delta, the aggregator closes the epoch (merge in client order + model +
/// plan) and pushes a policy frame back to every client. Items/s is policy
/// round trips (client-epochs) per second.
void BM_FleetEpochPipeline(benchmark::State& state) {
    const auto clientCount = static_cast<std::size_t>(state.range(0));
    const cg::CallGraph graph = fleetGraph();

    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    // Headroom so single-threaded pumping never blocks a send.
    options.dataQueueCapacity = clientCount + 8;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);

    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < clientCount; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(aggregator));
    }

    std::uint64_t epoch = 0;
    for (auto _ : state) {
        ++epoch;
        for (std::size_t i = 0; i < clientCount; ++i) {
            scorep::Measurement& measurement = *measurements[i];
            scorep::ProfileTree profile;
            auto touch = [&](const char* name, std::uint64_t visits,
                             std::uint64_t ns) {
                const std::size_t node = profile.childOf(
                    profile.root(), measurement.defineRegion(name));
                profile.node(node).visits += visits;
                profile.node(node).inclusiveNs += ns;
            };
            touch("main", 1, 1000);
            touch("kernel", 10 + (i + epoch) % 3, 1'000'000);
            touch("noisy", 1000, 2000);
            clients[i]->sendEpoch(profile, measurement, 1e9);
        }
        while (aggregator.epochsCompleted() < epoch) {
            aggregator.pump();
        }
        for (auto& client : clients) {
            client->awaitPolicy();
        }
    }

    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(clientCount));
    const fleet::AggregatorStats stats = aggregator.stats();
    state.counters["bytes_in_per_frame"] =
        static_cast<double>(stats.bytesIn) /
        static_cast<double>(std::max<std::uint64_t>(1, stats.framesMerged));
}
BENCHMARK(BM_FleetEpochPipeline)->Arg(8)->Arg(64)->Arg(256);

constexpr double kChurnFraction = 0.05;
constexpr int kChurnWarmupEpochs = 8;

/// A steady-state fleet epoch at policy scale, on the end-to-end fleet
/// workload's input: N headless clients over the 6000-function OpenFOAM
/// execution-scale graph, each touching a seeded 5% of the regions per
/// epoch (every region on the first epoch). Times steady-state epochs —
/// sends, the epoch close and every client's adopt — after untimed warm-up
/// epochs; profile generation is excluded.
/// ns_per_client_epoch shows whether an epoch costs the policy once or
/// once per client. The per-phase counters (ms per epoch) come from the
/// system's own trace spans: fleet.merge, fleet.observe, fleet.decide (with
/// fleet.plan, its kill-switch and planner share) and fleet.broadcast of the
/// epoch close, and fleet.encode, fleet.send and fleet.adopt summed over
/// clients.
/// policy_changes_per_epoch is the upserts + removals of the policy frame
/// every (in-sync) client receives: 0 when the decision did not change.
void BM_FleetEpochChurn(benchmark::State& state) {
    const auto clientCount = static_cast<std::size_t>(state.range(0));
    apps::OpenFoamParams params = apps::OpenFoamParams::executionScale();
    params.seed = 401;
    const cg::CallGraph graph =
        cg::MetaCgBuilder{}.build(apps::makeOpenFoam(params).toSourceModel());
    std::vector<std::string> regions;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        regions.push_back(graph.name(id));
    }
    std::sort(regions.begin(), regions.end());

    fleet::AggregatorOptions options;
    options.config.budgetFraction = 0.05;
    options.config.perEventCostNs = 200.0;
    options.dataQueueCapacity = clientCount + 8;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < clientCount; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(aggregator));
    }

    support::SplitMix64 rng(0xF1EE7'C4A2ull);
    std::vector<scorep::ProfileTree> profiles(clientCount);
    auto generate = [&](bool everyRegion) {
        for (std::size_t i = 0; i < clientCount; ++i) {
            profiles[i] = scorep::ProfileTree{};
            for (const std::string& region : regions) {
                if (!everyRegion && !rng.nextBool(kChurnFraction)) {
                    continue;
                }
                const std::size_t node = profiles[i].childOf(
                    profiles[i].root(), measurements[i]->defineRegion(region));
                profiles[i].node(node).visits += 1 + rng.nextBelow(97);
                profiles[i].node(node).inclusiveNs +=
                    10'000 + rng.nextBelow(100'000);
            }
        }
    };
    std::uint64_t epoch = 0;
    auto runEpoch = [&] {
        ++epoch;
        for (std::size_t i = 0; i < clientCount; ++i) {
            clients[i]->sendEpoch(profiles[i], *measurements[i],
                                  1e9 + 1e6 * static_cast<double>(i));
            aggregator.pump();
        }
        while (aggregator.epochsCompleted() < epoch) {
            aggregator.pump();
        }
        for (auto& client : clients) {
            client->awaitPolicy();
        }
    };
    // The first epoch ships every region; the next ones trim the all-Full
    // survey policy by thousands of regions. Time the steady state after.
    generate(true);
    runEpoch();
    for (int warmup = 0; warmup < kChurnWarmupEpochs; ++warmup) {
        generate(false);
        runEpoch();
    }

    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    const std::vector<std::pair<const char*, std::uint32_t>> phases = {
        {"merge_ms", recorder.internName("fleet.merge")},
        {"observe_ms", recorder.internName("fleet.observe")},
        {"decide_ms", recorder.internName("fleet.decide")},
        {"plan_ms", recorder.internName("fleet.plan")},
        {"broadcast_ms", recorder.internName("fleet.broadcast")},
        {"adopt_ms", recorder.internName("fleet.adopt")},
        {"encode_ms", recorder.internName("fleet.encode")},
        {"send_ms", recorder.internName("fleet.send")}};
    std::vector<double> phaseNs(phases.size(), 0.0);
    auto collectSpans = [&] {
        for (const obs::TraceEvent& event : recorder.drain()) {
            for (std::size_t p = 0; p < phases.size(); ++p) {
                if (event.nameId == phases[p].second) {
                    phaseNs[p] += static_cast<double>(event.durNs);
                }
            }
        }
    };
    (void)recorder.drain();
    recorder.setEnabled(true);

    // An in-sync client's frame carries one upsert per added or retiered
    // region and one removal per dropped region.
    select::InstrumentationPolicy published = aggregator.convergedPolicy();
    double policyChanges = 0.0;
    auto countPolicyChanges = [&] {
        select::InstrumentationPolicy now = aggregator.convergedPolicy();
        const select::PolicyDelta delta = select::policyDiff(published, now);
        policyChanges += static_cast<double>(
            delta.added.size() + delta.removed.size() +
            delta.promoted.size() + delta.demoted.size() +
            delta.regated.size());
        published = std::move(now);
    };

    std::uint64_t epochNs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        collectSpans();
        countPolicyChanges();
        generate(false);
        state.ResumeTiming();
        const std::uint64_t start = support::nowNs();
        runEpoch();
        epochNs += support::nowNs() - start;
        benchmark::DoNotOptimize(clients.front()->policyFingerprint());
    }
    recorder.setEnabled(false);
    collectSpans();
    countPolicyChanges();

    const double epochs = static_cast<double>(
        std::max<std::int64_t>(1, state.iterations()));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(clientCount));
    state.counters["ns_per_epoch"] = static_cast<double>(epochNs) / epochs;
    state.counters["ns_per_client_epoch"] =
        static_cast<double>(epochNs) /
        (epochs * static_cast<double>(clientCount));
    for (std::size_t p = 0; p < phases.size(); ++p) {
        state.counters[phases[p].first] = phaseNs[p] / epochs / 1e6;
    }
    state.counters["policy_changes_per_epoch"] = policyChanges / epochs;
}
BENCHMARK(BM_FleetEpochChurn)
    ->Arg(8)
    ->Arg(24)
    ->Arg(96)
    ->Unit(benchmark::kMillisecond);

constexpr std::size_t kApplyPolicySize = 5800;

/// A sorted, unique policy of kApplyPolicySize mangled-length names, every
/// fifth one Sampled: the fleet-openfoam converged policy's shape.
select::InstrumentationPolicy applyPolicy() {
    support::SplitMix64 rng(0xA991'7F00ull);
    select::InstrumentationPolicy policy;
    while (policy.size() < kApplyPolicySize) {
        const std::string name =
            "_ZN4Foam" + std::to_string(rng.next()) + "14solveSegregated" +
            std::string(rng.nextBelow(24), 'E');
        const bool sampled = rng.nextBelow(5) == 0;
        policy.setRegion(name, sampled ? select::RegionPolicy{
                                             select::Tier::Sampled, {16, 0}}
                                       : select::RegionPolicy{
                                             select::Tier::Full, {}});
    }
    return policy;
}

/// The update frame the aggregator would send to move a client from
/// `from` to `to`: upserts in `to` order, removals in `from` order.
fleet::PolicyFrame updateFrame(const select::InstrumentationPolicy& from,
                               const select::InstrumentationPolicy& to) {
    fleet::PolicyFrame frame;
    frame.prevFingerprint = from.fingerprint();
    frame.fingerprint = to.fingerprint();
    const select::PolicyDelta delta = select::policyDiff(from, to);
    for (const auto* names : {&delta.added, &delta.promoted, &delta.demoted,
                              &delta.regated}) {
        for (const std::string& name : *names) {
            frame.upserts.push_back({name, *to.policyOf(name)});
        }
    }
    std::sort(frame.upserts.begin(), frame.upserts.end(),
              [](const fleet::PolicyFrameEntry& a,
                 const fleet::PolicyFrameEntry& b) { return a.name < b.name; });
    frame.removed = delta.removed;
    return frame;
}

/// One headless client's apply of a policy frame on a kApplyPolicySize
/// policy: the frame's send, decode, verification and commit, i.e. the
/// client side of every fleet epoch. Arg = changes per frame: 0 (the
/// steady state: an unchanged decision), 1 (the last entry retiered), or
/// 220 (110 removals and 110 inserts spread evenly over the list, the
/// first at entry 0, so the whole list is digested). Frames alternate
/// between moving the client to the changed policy and back.
void BM_FleetPolicyApply(benchmark::State& state) {
    const auto changes = static_cast<std::size_t>(state.range(0));
    const cg::CallGraph graph = fleetGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    fleet::FleetClient client(aggregator);

    const select::InstrumentationPolicy policy = applyPolicy();
    select::InstrumentationPolicy changed = policy;
    if (changes == 1) {
        changed.setRegion(changed.functions.back(),
                          {select::Tier::Sampled, {32, 0}});
    } else if (changes > 1) {
        const std::size_t stride = 2 * policy.size() / changes;
        for (std::size_t k = 0; k < changes / 2; ++k) {
            changed.setRegion(policy.functions[k * stride], {});
            changed.setRegion(policy.functions[k * stride + stride / 2] + "_",
                              {select::Tier::Full, {}});
        }
    }

    fleet::PolicyFrame baseline;
    baseline.baseline = true;
    baseline.incarnation = aggregator.incarnation();
    baseline.fingerprint = policy.fingerprint();
    for (std::size_t i = 0; i < policy.size(); ++i) {
        baseline.upserts.push_back({policy.functions[i], policy.regions[i]});
    }
    std::vector<fleet::PolicyFrame> frames = {updateFrame(policy, changed),
                                              updateFrame(changed, policy)};
    std::vector<std::vector<std::uint8_t>> encoded;
    for (fleet::PolicyFrame& frame : frames) {
        frame.incarnation = aggregator.incarnation();
        encoded.push_back(fleet::encodePolicyFrame(frame));
    }
    client.policyChannel().send(fleet::encodePolicyFrame(baseline));
    client.awaitPolicy();
    if (client.policyFingerprint() != policy.fingerprint()) {
        state.SkipWithError("baseline did not verify");
        return;
    }

    std::size_t next = 0;
    for (auto _ : state) {
        client.policyChannel().send(encoded[next]);
        client.awaitPolicy();
        benchmark::DoNotOptimize(client.policyFingerprint());
        next ^= 1;
    }
    if (client.stats().resyncs != 0 ||
        client.policyFingerprint() !=
            (next == 0 ? policy : changed).fingerprint()) {
        state.SkipWithError("a policy frame did not verify");
        return;
    }
    state.counters["policy_size"] = static_cast<double>(policy.size());
    state.counters["policy_changes"] = static_cast<double>(
        frames[0].upserts.size() + frames[0].removed.size());
    state.counters["frame_bytes"] = static_cast<double>(encoded[0].size());
}
BENCHMARK(BM_FleetPolicyApply)
    ->ArgName("changes")
    ->Arg(0)
    ->Arg(1)
    ->Arg(220)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

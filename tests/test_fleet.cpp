// Tests for src/fleet/: wire-format golden bytes, encode determinism and
// typed rejection of corrupted frames; bounded-channel backpressure
// semantics (blocking stalls, trySend drop counting, close); CCT delta
// extract/apply round trips; and the aggregation server's headline
// property — the fleet path converges on policies and overhead numbers
// bit-identical to one reference Controller planning over the rank-order
// merge of the same per-rank event streams, including a mid-fleet late
// joiner — adoptPolicy repatching a client that diverged, plus a
// 1000-client drop-and-coalesce soak with exact drop accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapt/controller.hpp"
#include "binsim/compiler.hpp"
#include "binsim/execution_engine.hpp"
#include "binsim/process.hpp"
#include "cg/metacg_builder.hpp"
#include "dyncapi/dyncapi.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/channel.hpp"
#include "fleet/client.hpp"
#include "fleet/wire.hpp"
#include "mpisim/mpi_world.hpp"
#include "obs/metrics.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_delta.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace {

using namespace capi;
namespace fault = capi::support::fault;

/// CI fault matrix hook: CAPI_FAULT_SEED is XOR-mixed into every injection
/// seed below, so each matrix leg replays a different deterministic fault
/// schedule.
std::uint64_t envFaultSeed() {
    const char* env = std::getenv("CAPI_FAULT_SEED");
    return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// ------------------------------------------------- independent wire codec --
// A from-scratch reimplementation of the frame layout documented in
// fleet/wire.hpp. The golden tests build expected byte streams with THESE
// helpers, so any drift in the production Writer (field order, varint
// shape, checksum constants) fails here instead of silently re-pinning.

void appendVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
    while (value >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
        value >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

void appendFixed64(std::vector<std::uint8_t>& out, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    }
}

void appendString(std::vector<std::uint8_t>& out, const std::string& text) {
    appendVarint(out, text.size());
    out.insert(out.end(), text.begin(), text.end());
}

std::uint64_t goldenFnv(const std::vector<std::uint8_t>& payload) {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    for (std::uint8_t byte : payload) {
        h ^= byte;
        h *= 1099511628211ull;  // FNV-1a prime
    }
    return h;
}

std::vector<std::uint8_t> goldenSeal(std::uint8_t type,
                                     const std::vector<std::uint8_t>& payload) {
    // magic "CFW1" little-endian, type, varint length, payload, fnv1a.
    std::vector<std::uint8_t> frame = {0x43, 0x46, 0x57, 0x31, type};
    appendVarint(frame, payload.size());
    frame.insert(frame.end(), payload.begin(), payload.end());
    appendFixed64(frame, goldenFnv(payload));
    return frame;
}

fleet::DeltaFrame richDelta() {
    fleet::DeltaFrame frame;
    frame.clientId = 42;
    frame.epoch = 7;
    frame.coveredEpochs = 2;
    frame.runtimeNs = 3.25e9;
    frame.policyFingerprint = 0xDEADBEEFCAFEF00Dull;
    frame.newRegions = {{0, "main"}, {1, "kernel"}, {3, "noisy"}};
    frame.cct.baseNodeCount = 2;
    frame.cct.newNodes = {{0, 1}, {2, 3}};
    frame.cct.changed = {{1, 3, 1500}, {2, 4, 9000}, {3, 1, 77}};
    frame.suppressed = {{1, 128}, {3, 6}};
    return frame;
}

fleet::PolicyFrame richPolicy(bool baseline) {
    fleet::PolicyFrame frame;
    frame.epoch = 9;
    frame.incarnation = 3;
    frame.baseline = baseline;
    frame.prevFingerprint = baseline ? 0 : 0x1111222233334444ull;
    frame.fingerprint = 0x5555666677778888ull;
    frame.measuredOverheadRatio = 0.07;
    frame.budgetNs = 5.5e8;
    frame.withinBudget = false;
    frame.upserts = {{"kernel", {select::Tier::Full, {1, 0}}},
                     {"noisy", {select::Tier::Sampled, {64, 1000}}}};
    if (!baseline) {
        frame.removed = {"main"};
    }
    return frame;
}

// -------------------------------------------------------------- wire tests --

TEST(WireFormat, GoldenControlFrameBytes) {
    const std::vector<std::uint8_t> bytes =
        fleet::encodeControlFrame(fleet::FrameType::Resync, 5);
    // Header computable by hand: magic, type 4, payload length 1, payload 5.
    const std::vector<std::uint8_t> expectedPrefix = {0x43, 0x46, 0x57, 0x31,
                                                      0x04, 0x01, 0x05};
    ASSERT_EQ(bytes.size(), expectedPrefix.size() + 8);
    EXPECT_TRUE(std::equal(expectedPrefix.begin(), expectedPrefix.end(),
                           bytes.begin()));
    std::vector<std::uint8_t> checksum;
    appendFixed64(checksum, goldenFnv({0x05}));
    EXPECT_TRUE(std::equal(checksum.begin(), checksum.end(),
                           bytes.begin() + expectedPrefix.size()));
    EXPECT_EQ(fleet::decodeControlFrame(bytes, fleet::FrameType::Resync), 5u);
}

TEST(WireFormat, GoldenDeltaFrameBytes) {
    fleet::DeltaFrame frame;
    frame.clientId = 7;
    frame.epoch = 300;  // forces a two-byte varint: 0xAC 0x02
    frame.coveredEpochs = 1;
    frame.runtimeNs = 1.5;
    frame.policyFingerprint = 0x1122334455667788ull;
    frame.newRegions = {{2, "kernel"}};
    frame.cct.baseNodeCount = 1;
    frame.cct.newNodes = {{0, 2}};
    frame.cct.changed = {{1, 4, 1000}};
    frame.suppressed = {{2, 9}};

    std::vector<std::uint8_t> payload;
    appendVarint(payload, 7);    // clientId
    appendVarint(payload, 300);  // epoch
    appendVarint(payload, 1);    // coveredEpochs
    appendFixed64(payload, std::bit_cast<std::uint64_t>(1.5));
    appendFixed64(payload, 0x1122334455667788ull);
    appendVarint(payload, 1);  // region def count
    appendVarint(payload, 2);  // handle
    appendString(payload, "kernel");
    appendVarint(payload, 1);  // baseNodeCount
    appendVarint(payload, 1);  // new node count
    appendVarint(payload, 0);  // parent
    appendVarint(payload, 2);  // region
    appendVarint(payload, 1);  // changed count
    appendVarint(payload, 1);  // id gap from 0
    appendVarint(payload, 4);  // visits delta
    appendVarint(payload, 1000);  // inclusiveNs delta
    appendVarint(payload, 1);  // suppressed count
    appendVarint(payload, 2);  // region
    appendVarint(payload, 9);  // visits

    EXPECT_EQ(fleet::encodeDeltaFrame(frame), goldenSeal(1, payload));
}

TEST(WireFormat, EncodeIsDeterministicAndRoundTrips) {
    const fleet::DeltaFrame delta = richDelta();
    const std::vector<std::uint8_t> a = fleet::encodeDeltaFrame(delta);
    EXPECT_EQ(a, fleet::encodeDeltaFrame(delta));
    EXPECT_EQ(fleet::frameTypeOf(a), fleet::FrameType::Delta);

    const fleet::DeltaFrame back = fleet::decodeDeltaFrame(a);
    EXPECT_EQ(back.clientId, delta.clientId);
    EXPECT_EQ(back.epoch, delta.epoch);
    EXPECT_EQ(back.coveredEpochs, delta.coveredEpochs);
    EXPECT_EQ(back.runtimeNs, delta.runtimeNs);
    EXPECT_EQ(back.policyFingerprint, delta.policyFingerprint);
    ASSERT_EQ(back.newRegions.size(), delta.newRegions.size());
    for (std::size_t i = 0; i < delta.newRegions.size(); ++i) {
        EXPECT_EQ(back.newRegions[i].handle, delta.newRegions[i].handle);
        EXPECT_EQ(back.newRegions[i].name, delta.newRegions[i].name);
    }
    EXPECT_EQ(back.cct.baseNodeCount, delta.cct.baseNodeCount);
    ASSERT_EQ(back.cct.newNodes.size(), delta.cct.newNodes.size());
    for (std::size_t i = 0; i < delta.cct.newNodes.size(); ++i) {
        EXPECT_EQ(back.cct.newNodes[i].parent, delta.cct.newNodes[i].parent);
        EXPECT_EQ(back.cct.newNodes[i].region, delta.cct.newNodes[i].region);
    }
    ASSERT_EQ(back.cct.changed.size(), delta.cct.changed.size());
    for (std::size_t i = 0; i < delta.cct.changed.size(); ++i) {
        EXPECT_EQ(back.cct.changed[i].node, delta.cct.changed[i].node);
        EXPECT_EQ(back.cct.changed[i].visitsDelta,
                  delta.cct.changed[i].visitsDelta);
        EXPECT_EQ(back.cct.changed[i].inclusiveNsDelta,
                  delta.cct.changed[i].inclusiveNsDelta);
    }
    ASSERT_EQ(back.suppressed.size(), delta.suppressed.size());
    for (std::size_t i = 0; i < delta.suppressed.size(); ++i) {
        EXPECT_EQ(back.suppressed[i].region, delta.suppressed[i].region);
        EXPECT_EQ(back.suppressed[i].visits, delta.suppressed[i].visits);
    }

    for (bool baseline : {true, false}) {
        const fleet::PolicyFrame policy = richPolicy(baseline);
        const std::vector<std::uint8_t> p = fleet::encodePolicyFrame(policy);
        EXPECT_EQ(p, fleet::encodePolicyFrame(policy));
        EXPECT_EQ(fleet::frameTypeOf(p), baseline
                                             ? fleet::FrameType::PolicyBaseline
                                             : fleet::FrameType::PolicyUpdate);
        const fleet::PolicyFrame pb = fleet::decodePolicyFrame(p);
        EXPECT_EQ(pb.epoch, policy.epoch);
        EXPECT_EQ(pb.incarnation, policy.incarnation);
        EXPECT_EQ(pb.baseline, policy.baseline);
        EXPECT_EQ(pb.prevFingerprint, policy.prevFingerprint);
        EXPECT_EQ(pb.fingerprint, policy.fingerprint);
        EXPECT_EQ(pb.measuredOverheadRatio, policy.measuredOverheadRatio);
        EXPECT_EQ(pb.budgetNs, policy.budgetNs);
        EXPECT_EQ(pb.withinBudget, policy.withinBudget);
        ASSERT_EQ(pb.upserts.size(), policy.upserts.size());
        for (std::size_t i = 0; i < policy.upserts.size(); ++i) {
            EXPECT_EQ(pb.upserts[i].name, policy.upserts[i].name);
            EXPECT_EQ(pb.upserts[i].policy, policy.upserts[i].policy);
        }
        EXPECT_EQ(pb.removed, policy.removed);
    }
}

TEST(WireFormat, RejectsStructuralViolationsTyped) {
    // Frame-envelope violations on an otherwise valid control frame.
    const std::vector<std::uint8_t> good =
        fleet::encodeControlFrame(fleet::FrameType::Bye, 5);
    {
        std::vector<std::uint8_t> bytes = good;
        bytes[0] ^= 0xFF;  // bad magic
        EXPECT_THROW(fleet::frameTypeOf(bytes), fleet::WireError);
    }
    {
        std::vector<std::uint8_t> bytes = good;
        bytes[4] = 9;  // unknown frame type
        EXPECT_THROW(fleet::frameTypeOf(bytes), fleet::WireError);
    }
    {
        std::vector<std::uint8_t> bytes = good;
        bytes.resize(bytes.size() - 4);  // truncated checksum/payload
        EXPECT_THROW(fleet::frameTypeOf(bytes), fleet::WireError);
    }
    {
        std::vector<std::uint8_t> bytes = good;
        bytes.back() ^= 0x01;  // checksum mismatch
        EXPECT_THROW(fleet::frameTypeOf(bytes), fleet::WireError);
    }

    // Payload violations, sealed with a VALID envelope so only the payload
    // validator can reject them.
    auto expectDeltaRejected = [](const std::vector<std::uint8_t>& payload) {
        EXPECT_THROW(fleet::decodeDeltaFrame(goldenSeal(1, payload)),
                     fleet::WireError);
    };
    {
        std::vector<std::uint8_t> p;  // coveredEpochs == 0
        appendVarint(p, 1);
        appendVarint(p, 1);
        appendVarint(p, 0);
        expectDeltaRejected(p);
    }
    {
        // Region-def count far larger than the remaining bytes.
        std::vector<std::uint8_t> p;
        appendVarint(p, 1);
        appendVarint(p, 1);
        appendVarint(p, 1);
        appendFixed64(p, 0);
        appendFixed64(p, 0);
        appendVarint(p, 200);
        expectDeltaRejected(p);
    }
    auto deltaPrefix = [](std::uint64_t baseNodeCount) {
        std::vector<std::uint8_t> p;
        appendVarint(p, 1);  // clientId
        appendVarint(p, 1);  // epoch
        appendVarint(p, 1);  // coveredEpochs
        appendFixed64(p, 0);  // runtimeNs
        appendFixed64(p, 0);  // fingerprint
        appendVarint(p, 0);  // no region defs
        appendVarint(p, baseNodeCount);
        return p;
    };
    {
        // New node whose parent does not precede it.
        std::vector<std::uint8_t> p = deltaPrefix(1);
        appendVarint(p, 1);  // one new node
        appendVarint(p, 1);  // parent == its own id
        appendVarint(p, 0);  // region
        expectDeltaRejected(p);
    }
    {
        // Changed id out of range (only the root exists).
        std::vector<std::uint8_t> p = deltaPrefix(1);
        appendVarint(p, 0);  // no new nodes
        appendVarint(p, 1);  // one changed entry
        appendVarint(p, 1);  // id gap -> id 1 >= maxId 1
        appendVarint(p, 0);
        appendVarint(p, 0);
        expectDeltaRejected(p);
    }
    {
        // Non-ascending changed ids (gap of zero after the first entry).
        std::vector<std::uint8_t> p = deltaPrefix(1);
        appendVarint(p, 1);  // one new node
        appendVarint(p, 0);
        appendVarint(p, 0);
        appendVarint(p, 2);  // two changed entries
        appendVarint(p, 1);
        appendVarint(p, 0);
        appendVarint(p, 0);
        appendVarint(p, 0);  // zero gap: id repeats
        appendVarint(p, 0);
        appendVarint(p, 0);
        expectDeltaRejected(p);
    }
    {
        // Trailing bytes after a complete control payload.
        std::vector<std::uint8_t> p = {0x05, 0x00};
        EXPECT_THROW(
            fleet::decodeControlFrame(goldenSeal(5, p), fleet::FrameType::Bye),
            fleet::WireError);
    }
    {
        // Overlong varint: ten continuation bytes never terminate.
        std::vector<std::uint8_t> p(10, 0x80);
        EXPECT_THROW(
            fleet::decodeControlFrame(goldenSeal(5, p), fleet::FrameType::Bye),
            fleet::WireError);
    }
    {
        // Non-canonical varint: final byte shifts set bits past bit 63.
        std::vector<std::uint8_t> p(9, 0x80);
        p.push_back(0x02);
        EXPECT_THROW(
            fleet::decodeControlFrame(goldenSeal(5, p), fleet::FrameType::Bye),
            fleet::WireError);
    }

    auto policyPrefix = [](std::uint8_t baselineFlag) {
        std::vector<std::uint8_t> p;
        appendVarint(p, 1);       // epoch
        appendVarint(p, 1);       // incarnation
        p.push_back(baselineFlag);
        appendFixed64(p, 0);      // prevFingerprint
        appendFixed64(p, 0);      // fingerprint
        appendFixed64(p, 0);      // ratio
        appendFixed64(p, 0);      // budgetNs
        p.push_back(1);           // withinBudget
        return p;
    };
    {
        // Baseline flag disagreeing with the frame type.
        std::vector<std::uint8_t> p = policyPrefix(1);
        appendVarint(p, 0);  // upserts
        appendVarint(p, 0);  // removed
        EXPECT_THROW(fleet::decodePolicyFrame(goldenSeal(3, p)),
                     fleet::WireError);
    }
    {
        // Upsert carrying the Off tier (that is a removal, not an upsert).
        std::vector<std::uint8_t> p = policyPrefix(0);
        appendVarint(p, 1);
        appendString(p, "a");
        p.push_back(0);      // Tier::Off
        appendVarint(p, 1);  // everyN
        appendVarint(p, 0);  // minIntervalNs
        appendVarint(p, 0);  // removed
        EXPECT_THROW(fleet::decodePolicyFrame(goldenSeal(3, p)),
                     fleet::WireError);
    }
    {
        // Tier value out of range.
        std::vector<std::uint8_t> p = policyPrefix(0);
        appendVarint(p, 1);
        appendString(p, "a");
        p.push_back(3);
        appendVarint(p, 1);
        appendVarint(p, 0);
        appendVarint(p, 0);
        EXPECT_THROW(fleet::decodePolicyFrame(goldenSeal(3, p)),
                     fleet::WireError);
    }
    {
        // Baseline frames must not carry removals.
        std::vector<std::uint8_t> p = policyPrefix(1);
        appendVarint(p, 0);  // upserts
        appendVarint(p, 1);  // removed
        appendString(p, "a");
        EXPECT_THROW(fleet::decodePolicyFrame(goldenSeal(2, p)),
                     fleet::WireError);
    }
    {
        // Incarnation 0 is reserved for "no frame seen yet" on the client —
        // an aggregator may never stamp it.
        std::vector<std::uint8_t> p;
        appendVarint(p, 1);   // epoch
        appendVarint(p, 0);   // incarnation: reserved
        p.push_back(1);       // baseline flag
        appendFixed64(p, 0);  // prevFingerprint
        appendFixed64(p, 0);  // fingerprint
        appendFixed64(p, 0);  // ratio
        appendFixed64(p, 0);  // budgetNs
        p.push_back(1);       // withinBudget
        appendVarint(p, 0);   // upserts
        appendVarint(p, 0);   // removed
        EXPECT_THROW(fleet::decodePolicyFrame(goldenSeal(2, p)),
                     fleet::WireError);
    }
}

TEST(WireFormat, CorruptionSweepFailsTypedNeverCrashes) {
    const std::vector<std::vector<std::uint8_t>> seeds = {
        fleet::encodeDeltaFrame(richDelta()),
        fleet::encodePolicyFrame(richPolicy(false)),
        fleet::encodePolicyFrame(richPolicy(true)),
        fleet::encodeControlFrame(fleet::FrameType::Resync, 77)};
    support::SplitMix64 rng(0xF1EE7);
    int rejected = 0;
    int survived = 0;
    for (int i = 0; i < 4000; ++i) {
        std::vector<std::uint8_t> bytes = seeds[i % seeds.size()];
        switch (rng.nextBelow(4)) {
            case 0:
                bytes.resize(rng.nextBelow(bytes.size()));
                break;
            case 1:
                bytes[rng.nextBelow(bytes.size())] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                break;
            case 2:
                bytes[rng.nextBelow(bytes.size())] =
                    static_cast<std::uint8_t>(rng.next());
                break;
            default:
                bytes.push_back(static_cast<std::uint8_t>(rng.next()));
                break;
        }
        // Any outcome but a clean decode or a WireError — another exception
        // type, memory corruption (ASan job), a crash — fails the test.
        try {
            switch (fleet::frameTypeOf(bytes)) {
                case fleet::FrameType::Delta:
                    fleet::decodeDeltaFrame(bytes);
                    break;
                case fleet::FrameType::PolicyBaseline:
                case fleet::FrameType::PolicyUpdate:
                    fleet::decodePolicyFrame(bytes);
                    break;
                case fleet::FrameType::Resync:
                    fleet::decodeControlFrame(bytes, fleet::FrameType::Resync);
                    break;
                case fleet::FrameType::Bye:
                    fleet::decodeControlFrame(bytes, fleet::FrameType::Bye);
                    break;
                case fleet::FrameType::Snapshot:
                    // A type byte flipped to Snapshot keeps the seal valid
                    // (the checksum covers the payload only) — the snapshot
                    // validator must still reject typed.
                    fleet::decodeSnapshotFrame(bytes);
                    break;
            }
            ++survived;
        } catch (const fleet::WireError&) {
            ++rejected;
        }
    }
    EXPECT_EQ(rejected + survived, 4000);
    EXPECT_GT(rejected, 0);
}

// ------------------------------------------------------------- delta tests --

using TotalsByHandle =
    std::unordered_map<scorep::RegionHandle, scorep::ProfileTree::RegionTotals>;

void expectSameTotals(const TotalsByHandle& a, const TotalsByHandle& b) {
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [handle, totals] : a) {
        auto it = b.find(handle);
        ASSERT_NE(it, b.end()) << "missing region handle " << handle;
        EXPECT_EQ(totals.visits, it->second.visits) << "handle " << handle;
        EXPECT_EQ(totals.exclusiveNs, it->second.exclusiveNs)
            << "handle " << handle;
    }
}

TEST(CctDelta, ExtractApplyRoundTripsAndCoalesces) {
    scorep::ProfileTree source;
    const std::size_t a = source.childOf(source.root(), 0);
    const std::size_t b = source.childOf(a, 1);
    source.node(a).visits += 3;
    source.node(a).inclusiveNs += 500;
    source.node(b).visits += 1;
    source.node(b).inclusiveNs += 200;

    scorep::CctWatermark watermark;
    const scorep::CctDelta first = scorep::extractCctDelta(source, watermark);
    EXPECT_EQ(first.baseNodeCount, 1u);  // the root is implicitly covered
    EXPECT_EQ(first.newNodes.size(), 2u);

    scorep::ProfileTree mirror;
    std::vector<std::uint32_t> idMap{
        static_cast<std::uint32_t>(mirror.root())};
    scorep::applyCctDelta(first, mirror, idMap);
    expectSameTotals(source.regionTotals(), mirror.regionTotals());

    scorep::advanceWatermark(watermark, source);
    EXPECT_TRUE(scorep::extractCctDelta(source, watermark).empty());

    // Two more epochs of growth WITHOUT advancing in between: the second
    // extraction must coalesce both (the drop-and-coalesce contract).
    source.node(b).visits += 5;
    source.node(b).inclusiveNs += 900;
    const std::size_t c = source.childOf(b, 2);
    source.node(c).visits += 2;
    source.node(c).inclusiveNs += 40;

    const scorep::CctDelta second = scorep::extractCctDelta(source, watermark);
    EXPECT_EQ(second.baseNodeCount, 3u);
    EXPECT_EQ(second.newNodes.size(), 1u);
    scorep::applyCctDelta(second, mirror, idMap);
    expectSameTotals(source.regionTotals(), mirror.regionTotals());
}

// ----------------------------------------------------------- channel tests --

TEST(Channel, TrySendCountsRejectionsExactly) {
    fleet::Channel channel(4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(channel.trySend({static_cast<std::uint8_t>(i)}),
                  fleet::SendResult::Ok);
    }
    EXPECT_EQ(channel.trySend({9}), fleet::SendResult::Backpressure);
    EXPECT_EQ(channel.trySend({9}), fleet::SendResult::Backpressure);

    fleet::ChannelStats stats = channel.stats();
    EXPECT_EQ(stats.enqueued, 4u);
    EXPECT_EQ(stats.rejected, 2u);
    EXPECT_EQ(stats.depth, 4u);
    EXPECT_EQ(stats.maxDepth, 4u);
    EXPECT_EQ(stats.capacity, 4u);

    for (int i = 0; i < 4; ++i) {
        auto frame = channel.tryReceive();
        ASSERT_TRUE(frame.has_value());
        EXPECT_EQ((*frame)[0], static_cast<std::uint8_t>(i));
    }
    EXPECT_FALSE(channel.tryReceive().has_value());
    EXPECT_EQ(channel.stats().dequeued, 4u);
}

TEST(Channel, BlockingSendStallsUntilDrained) {
    fleet::Channel channel(1);
    ASSERT_EQ(channel.send({1}), fleet::SendResult::Ok);

    std::atomic<bool> delivered{false};
    std::thread sender([&] {
        EXPECT_EQ(channel.send({2}), fleet::SendResult::Ok);
        delivered.store(true);
    });
    while (channel.stats().stalls == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(delivered.load());  // still parked: no space yet

    auto first = channel.receive();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ((*first)[0], 1);
    sender.join();
    EXPECT_TRUE(delivered.load());

    auto second = channel.receive();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ((*second)[0], 2);

    fleet::ChannelStats stats = channel.stats();
    EXPECT_GE(stats.stalls, 1u);
    EXPECT_EQ(stats.enqueued, 2u);
    EXPECT_EQ(stats.maxDepth, 1u);  // the bound held throughout
}

TEST(Channel, CloseWakesBlockedSenderAndKeepsQueuedFrames) {
    fleet::Channel channel(1);
    ASSERT_EQ(channel.send({7}), fleet::SendResult::Ok);

    std::atomic<int> result{-1};
    std::thread sender(
        [&] { result.store(static_cast<int>(channel.send({8}))); });
    while (channel.stats().stalls == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    channel.close();
    sender.join();
    EXPECT_EQ(result.load(), static_cast<int>(fleet::SendResult::Closed));
    EXPECT_EQ(channel.trySend({9}), fleet::SendResult::Closed);

    auto frame = channel.receive();  // queued frames survive close
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ((*frame)[0], 7);
    EXPECT_FALSE(channel.receive().has_value());  // closed and drained
}

// ------------------------------------------------------- aggregation tests --

/// main -> kernel -> noisy, shaped so the survey blows the 5% budget and
/// the planner must evict: real policy churn for the delta protocol.
binsim::AppModel syntheticModel() {
    binsim::AppModel model;
    model.name = "fleet";
    auto add = [&](const char* name, std::uint32_t instr, double virtualNs) {
        binsim::AppFunction fn;
        fn.name = name;
        fn.unit = "a.cpp";
        fn.metrics.numInstructions = instr;
        fn.flags.hasBody = true;
        fn.workVirtualNs = virtualNs;
        model.functions.push_back(fn);
        return static_cast<std::uint32_t>(model.functions.size() - 1);
    };
    const std::uint32_t mainFn = add("main", 100, 100.0);
    const std::uint32_t kernel = add("kernel", 300, 1'000'000.0);
    const std::uint32_t noisy = add("noisy", 50, 10.0);
    model.entry = mainFn;
    model.functions[mainFn].calls.push_back({kernel, 4});
    model.functions[kernel].calls.push_back({noisy, 20000});
    return model;
}

std::vector<std::string> sortedRegionUniverse(const cg::CallGraph& graph) {
    std::vector<std::string> names;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        names.push_back(graph.name(id));
    }
    std::sort(names.begin(), names.end());
    return names;
}

/// One fleet producer: its own process image, dynamic-instrumentation
/// session and controller, joined to the aggregator through a FleetClient.
struct FleetRank {
    binsim::Process process;
    dyncapi::DynCapi dyn;
    adapt::Controller controller;
    std::unique_ptr<fleet::FleetClient> client;

    FleetRank(const binsim::CompiledProgram& compiled,
              const cg::CallGraph& graph, const adapt::Config& config,
              const select::InstrumentationConfig& survey,
              fleet::Aggregator& aggregator)
        : process(compiled), dyn(process), controller(graph, dyn, config) {
        controller.start(survey);
        client = std::make_unique<fleet::FleetClient>(aggregator, controller);
    }
};

struct MeasuredEpoch {
    scorep::Measurement measurement;
    scorep::ProfileTree profile;
    double virtualNs = 0.0;
};

/// Runs one epoch on a fleet rank's own process. The region universe is
/// pre-defined in sorted order on the fresh Measurement so the client's
/// handle space is identical every epoch regardless of the live patch set
/// (the handle-stability contract in fleet/client.hpp).
std::unique_ptr<MeasuredEpoch> runFleetEpoch(
    FleetRank& rank, const std::vector<std::string>& universe) {
    auto out = std::make_unique<MeasuredEpoch>();
    for (const std::string& name : universe) {
        out->measurement.defineRegion(name);
    }
    scorep::CygProfileAdapter adapter(
        out->measurement,
        scorep::SymbolResolver::withSymbolInjection(rank.process));
    rank.dyn.attachCygHandler(adapter);
    binsim::ExecutionEngine engine(rank.process);
    binsim::RunStats stats = engine.run();
    rank.dyn.detachHandler();
    out->profile = out->measurement.mergedProfile();
    out->virtualNs = stats.virtualNs;
    return out;
}

using TotalsByName = std::map<std::string, scorep::ProfileTree::RegionTotals>;

void expectSameTotalsByName(const TotalsByName& expected,
                            const TotalsByName& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (const auto& [name, totals] : expected) {
        auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << "missing region " << name;
        EXPECT_EQ(totals.visits, it->second.visits) << name;
        EXPECT_EQ(totals.exclusiveNs, it->second.exclusiveNs) << name;
    }
}

/// Region timings come from probeNowNs (wall clock), so two separate
/// executions of the same workload agree on event COUNTS but not on
/// exclusive times; engine-driven comparisons pin the former. Full totals
/// bit-identity is pinned by the synthetic-stream test, where both paths
/// consume byte-identical profiles.
void expectSameVisitsByName(const TotalsByName& expected,
                            const TotalsByName& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    for (const auto& [name, totals] : expected) {
        auto it = actual.find(name);
        ASSERT_NE(it, actual.end()) << "missing region " << name;
        EXPECT_EQ(totals.visits, it->second.visits) << name;
    }
}

/// An adapt::Config variant the fleet == merged-reference property is pinned
/// under, on top of the base knobs both property tests share. Both paths
/// run the one adapt::Decider, so every knob must move them identically.
struct FleetConfigCase {
    const char* name;
    void (*tune)(adapt::Config& config);
    /// Each path folds visit counts into its OWN copy of the graph
    /// (Config::foldVisitMetricsInto must name the graph the controller or
    /// aggregator was built over); the copies must agree after every epoch.
    bool foldVisitMetrics = false;
    /// The reference run must trip AND re-arm the kill-switch, so the
    /// variant exercises both transitions rather than passing vacuously.
    bool tripsKillSwitch = false;
};

const FleetConfigCase kBaseConfigCase{"Base", [](adapt::Config&) {}};

/// The variants are shared by both property tests. Under a 0.15% budget
/// both the real-execution and the synthetic streams overshoot on their
/// first epoch only, so the switch trips at epoch 1 in both and re-arms
/// after two in-budget epochs, with safe mode keeping "kernel" instrumented
/// (a policy no planned epoch produces, so a missed trip shows up as a
/// fingerprint mismatch).
const FleetConfigCase kFleetConfigCases[] = {
    {"KillSwitchTripsAndRearms",
     [](adapt::Config& config) {
         config.budgetFraction = 0.0015;
         config.killSwitchFactor = 1.0;
         config.killSwitchEpochs = 1;
         config.killSwitchRearmEpochs = 2;
         config.keep = {"kernel"};
     },
     false, true},
    {"FoldsVisitMetrics", [](adapt::Config&) {}, true},
};

void PrintTo(const FleetConfigCase& variant, std::ostream* os) {
    *os << variant.name;
}

class FleetAggregationConfigs
    : public ::testing::TestWithParam<FleetConfigCase> {};

/// The graph's FunctionMetrics::profiledVisits, by function name.
std::map<std::string, std::uint32_t> profiledVisitsByName(
    const cg::CallGraph& graph) {
    std::map<std::string, std::uint32_t> visits;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        visits[graph.name(id)] = graph.desc(id).metrics.profiledVisits;
    }
    return visits;
}

/// The kill-switch transitions the reference made, as (trips, rearms).
std::pair<int, int> killSwitchTransitions(
    const std::vector<adapt::EpochReport>& reports) {
    std::pair<int, int> transitions{0, 0};
    for (const adapt::EpochReport& report : reports) {
        transitions.first += report.killSwitchTripped ? 1 : 0;
        transitions.second += report.killSwitchRearmed ? 1 : 0;
    }
    return transitions;
}

/// The reference a fleet epoch must equal: one controller's epoch() over the
/// rank-order merge of every rank's tree, against the rank-order sum of
/// their runtimes. A rank absent from the fleet contributes an empty tree
/// and 0 ns.
adapt::EpochReport mergedReferenceEpoch(
    adapt::Controller& reference,
    const std::vector<scorep::ProfileTree>& profiles,
    const std::vector<double>& runtimesNs,
    const scorep::Measurement& measurement) {
    scorep::ProfileTree merged;
    double worldRuntimeNs = 0.0;
    for (std::size_t r = 0; r < profiles.size(); ++r) {
        merged.mergeFrom(profiles[r]);
        worldRuntimeNs += runtimesNs[r];
    }
    return reference.epoch(merged, measurement, worldRuntimeNs);
}

// The acceptance property: the same per-rank event streams driven once
// through one shared reference controller (mergedReferenceEpoch) and once
// through the fleet path (one aggregator, per-process controllers, wire
// deltas) converge on bit-identical policies, overhead numbers and
// profiles every epoch — including a rank that joins the fleet mid-run and
// catches up through the baseline protocol.
void expectFleetMatchesMergedReference(const FleetConfigCase& variant) {
    const binsim::AppModel model = syntheticModel();
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    const binsim::CompiledProgram compiled = binsim::compile(model, copts);
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    cg::CallGraph fleetGraph = builder.build(model.toSourceModel());

    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 10;
    config.perEventCostNs = 100.0;
    variant.tune(config);
    adapt::Config fleetConfig = config;
    if (variant.foldVisitMetrics) {
        config.foldVisitMetricsInto = &graph;
        fleetConfig.foldVisitMetricsInto = &fleetGraph;
    }
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);

    constexpr int kRanks = 3;
    constexpr int kJoinEpoch = 3;  // the last rank starts producing here
    constexpr int kEpochs = 4;

    // --- reference: one shared controller over the merged ranks ----------
    binsim::Process refProcess(compiled);
    dyncapi::DynCapi refDyn(refProcess);
    adapt::Controller reference(graph, refDyn, config);
    reference.start(survey);

    std::vector<adapt::EpochReport> refReports;
    std::vector<std::map<std::string, std::uint32_t>> refVisits;
    TotalsByName refTotals;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        scorep::Measurement measurement;
        scorep::CygProfileAdapter adapter(
            measurement,
            scorep::SymbolResolver::withSymbolInjection(refProcess));
        refDyn.attachCygHandler(adapter);
        // One thread per rank, so each rank's events land in its own thread
        // profile of the shared Measurement. The not-yet-joined producer
        // keeps an empty profile and zero runtime, the reference-side
        // stand-in for "absent from the fleet".
        mpi::MpiWorld world(kRanks);
        std::vector<scorep::ProfileTree> profiles(kRanks);
        std::vector<double> runtimesNs(kRanks, 0.0);
        mpi::runRanks(world, [&](int rank) {
            if (rank == kRanks - 1 && epoch < kJoinEpoch) {
                return;
            }
            binsim::ExecutionEngine engine(refProcess);
            binsim::RunStats stats = engine.run();
            profiles[rank] = measurement.threadProfile();
            // Deterministic embedder-supplied runtime, distinct per rank so
            // the summation order matters to the bit-identity claim.
            runtimesNs[rank] = stats.virtualNs * (1.0 + rank);
        });
        refDyn.detachHandler();
        refReports.push_back(
            mergedReferenceEpoch(reference, profiles, runtimesNs, measurement));
        refVisits.push_back(profiledVisitsByName(graph));
        const scorep::ProfileTree merged = measurement.mergedProfile();
        for (const auto& [handle, totals] : merged.regionTotals()) {
            auto& t = refTotals[measurement.region(handle).name];
            t.visits += totals.visits;
            t.exclusiveNs += totals.exclusiveNs;
        }
    }

    // --- fleet: one aggregator, per-process controllers and clients -------
    fleet::AggregatorOptions aggOptions;
    aggOptions.config = fleetConfig;
    fleet::Aggregator aggregator(fleetGraph, survey, aggOptions);
    const std::vector<std::string> universe = sortedRegionUniverse(fleetGraph);

    std::vector<std::unique_ptr<FleetRank>> ranks;
    for (int r = 0; r < kRanks - 1; ++r) {
        ranks.push_back(std::make_unique<FleetRank>(
            compiled, fleetGraph, fleetConfig, survey, aggregator));
    }

    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        if (epoch == kJoinEpoch) {
            // Mid-fleet late joiner: the constructor adopts the converged
            // baseline, so it is patched identically to everyone else
            // BEFORE its first measured epoch.
            ranks.push_back(std::make_unique<FleetRank>(
                compiled, fleetGraph, fleetConfig, survey, aggregator));
            EXPECT_EQ(ranks.back()->client->policyFingerprint(),
                      refReports[static_cast<std::size_t>(kJoinEpoch) - 2]
                          .policyFingerprint);
            EXPECT_EQ(ranks.back()->client->stats().baselinesReceived, 1u);
        }
        for (std::size_t r = 0; r < ranks.size(); ++r) {
            auto run = runFleetEpoch(*ranks[r], universe);
            ASSERT_EQ(ranks[r]->client->sendEpoch(
                          run->profile, run->measurement,
                          run->virtualNs * (1.0 + static_cast<double>(r))),
                      fleet::SendResult::Ok);
        }
        while (aggregator.epochsCompleted() <
               static_cast<std::uint64_t>(epoch)) {
            ASSERT_TRUE(aggregator.pump()) << "fleet epoch " << epoch
                                           << " stalled";
        }
        const adapt::EpochReport& expected =
            refReports[static_cast<std::size_t>(epoch) - 1];
        for (std::size_t r = 0; r < ranks.size(); ++r) {
            const adapt::EpochReport report = ranks[r]->client->awaitPolicy();
            EXPECT_EQ(report.policyFingerprint, expected.policyFingerprint)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.measuredOverheadRatio,
                      expected.measuredOverheadRatio)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.budgetNs, expected.budgetNs)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.withinBudget, expected.withinBudget)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(ranks[r]->controller.currentPolicy().fingerprint(),
                      expected.policyFingerprint)
                << "epoch " << epoch << " rank " << r;
        }
        // The fleet trips and re-arms on the same epochs as the reference.
        EXPECT_EQ(aggregator.safeMode(),
                  expected.health == adapt::EpochHealth::SafeMode)
            << "epoch " << epoch;
        EXPECT_EQ(profiledVisitsByName(fleetGraph),
                  refVisits[static_cast<std::size_t>(epoch) - 1])
            << "epoch " << epoch;
    }

    EXPECT_EQ(aggregator.epochsCompleted(),
              static_cast<std::uint64_t>(kEpochs));
    EXPECT_EQ(aggregator.convergedFingerprint(),
              refReports.back().policyFingerprint);
    expectSameVisitsByName(refTotals, aggregator.totalsByName());
    EXPECT_EQ(aggregator.stats().divergentClients, 0u);
    EXPECT_EQ(aggregator.stats().decodeErrors, 0u);
    if (variant.tripsKillSwitch) {
        const auto [trips, rearms] = killSwitchTransitions(refReports);
        EXPECT_GE(trips, 1);
        EXPECT_GE(rearms, 1);
    }
}

TEST(FleetAggregation, MatchesMergedReferenceBitForBit) {
    expectFleetMatchesMergedReference(kBaseConfigCase);
}

TEST_P(FleetAggregationConfigs, MatchesMergedReferenceBitForBit) {
    expectFleetMatchesMergedReference(GetParam());
}

/// Deterministic per-rank profile stream: a pure function of (rank, epoch),
/// with a non-trivial CCT that keeps GROWING mid-stream (a second call path
/// appears from epoch 2), so later deltas carry new nodes and not just
/// counter movement.
scorep::ProfileTree syntheticRankProfile(scorep::Measurement& measurement,
                                         int rank, int epoch) {
    scorep::ProfileTree tree;
    const scorep::RegionHandle hMain = measurement.defineRegion("main");
    const scorep::RegionHandle hKernel = measurement.defineRegion("kernel");
    const scorep::RegionHandle hNoisy = measurement.defineRegion("noisy");
    const std::size_t nMain = tree.childOf(tree.root(), hMain);
    const std::size_t nKernel = tree.childOf(nMain, hKernel);
    const std::size_t nNoisy = tree.childOf(nKernel, hNoisy);
    support::SplitMix64 rng(0xC0FFEEull ^
                            (static_cast<std::uint64_t>(rank) << 32) ^
                            static_cast<std::uint64_t>(epoch));
    tree.node(nMain).visits += 1;
    tree.node(nMain).inclusiveNs += 1'000'000 + rng.nextBelow(1000);
    tree.node(nKernel).visits += 4 + rng.nextBelow(4);
    tree.node(nKernel).inclusiveNs += 800'000 + rng.nextBelow(10'000);
    tree.node(nNoisy).visits += 10'000 + rng.nextBelow(5'000);
    tree.node(nNoisy).inclusiveNs += 500'000 + rng.nextBelow(10'000);
    if (epoch >= 2) {
        const std::size_t nLate = tree.childOf(nMain, hNoisy);
        tree.node(nLate).visits += 100 + rng.nextBelow(50);
        tree.node(nLate).inclusiveNs += 10'000 + rng.nextBelow(100);
    }
    return tree;
}

// The same property over byte-identical inputs: when both paths consume the
// SAME deterministic per-rank profile streams and runtimes, everything is
// bit-identical — per-epoch fingerprints, overhead ratios, budgets, AND the
// aggregated profile down to the last exclusive nanosecond, late joiner
// included.
void expectSyntheticStreamsAggregateBitIdentically(
    const FleetConfigCase& variant) {
    const binsim::AppModel model = syntheticModel();
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    const binsim::CompiledProgram compiled = binsim::compile(model, copts);
    cg::MetaCgBuilder builder;
    cg::CallGraph graph = builder.build(model.toSourceModel());
    cg::CallGraph fleetGraph = builder.build(model.toSourceModel());

    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 10;
    config.perEventCostNs = 100.0;
    variant.tune(config);
    adapt::Config fleetConfig = config;
    if (variant.foldVisitMetrics) {
        config.foldVisitMetricsInto = &graph;
        fleetConfig.foldVisitMetricsInto = &fleetGraph;
    }
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);

    constexpr int kRanks = 3;
    constexpr int kJoinEpoch = 3;
    constexpr int kEpochs = 5;
    auto runtimeOf = [](int rank, int epoch) {
        return 1e9 * (1.0 + rank) + 1e7 * epoch;
    };

    // --- reference ---------------------------------------------------------
    binsim::Process refProcess(compiled);
    dyncapi::DynCapi refDyn(refProcess);
    adapt::Controller reference(graph, refDyn, config);
    reference.start(survey);
    scorep::Measurement refMeasurement;
    std::vector<adapt::EpochReport> refReports;
    std::vector<std::map<std::string, std::uint32_t>> refVisits;
    TotalsByName refTotals;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        std::vector<scorep::ProfileTree> profiles(kRanks);
        std::vector<double> runtimesNs(kRanks, 0.0);
        for (int r = 0; r < kRanks; ++r) {
            if (r == kRanks - 1 && epoch < kJoinEpoch) {
                continue;  // absent from the fleet: empty profile, 0 ns
            }
            profiles[r] = syntheticRankProfile(refMeasurement, r, epoch);
            runtimesNs[r] = runtimeOf(r, epoch);
            for (const auto& [handle, totals] : profiles[r].regionTotals()) {
                auto& t = refTotals[refMeasurement.region(handle).name];
                t.visits += totals.visits;
                t.exclusiveNs += totals.exclusiveNs;
            }
        }
        refReports.push_back(mergedReferenceEpoch(reference, profiles,
                                                  runtimesNs, refMeasurement));
        refVisits.push_back(profiledVisitsByName(graph));
    }

    // --- fleet: headless clients over the same streams ---------------------
    fleet::AggregatorOptions aggOptions;
    aggOptions.config = fleetConfig;
    fleet::Aggregator aggregator(fleetGraph, survey, aggOptions);
    std::vector<std::unique_ptr<scorep::Measurement>> measurements(kRanks);
    std::vector<std::unique_ptr<fleet::FleetClient>> clients(kRanks);
    for (int r = 0; r < kRanks - 1; ++r) {
        measurements[r] = std::make_unique<scorep::Measurement>();
        clients[r] = std::make_unique<fleet::FleetClient>(aggregator);
    }

    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        if (epoch == kJoinEpoch) {
            const int r = kRanks - 1;
            measurements[r] = std::make_unique<scorep::Measurement>();
            clients[r] = std::make_unique<fleet::FleetClient>(aggregator);
            EXPECT_EQ(clients[r]->policyFingerprint(),
                      refReports[static_cast<std::size_t>(kJoinEpoch) - 2]
                          .policyFingerprint);
        }
        for (int r = 0; r < kRanks; ++r) {
            if (clients[r] == nullptr) {
                continue;
            }
            ASSERT_EQ(clients[r]->sendEpoch(
                          syntheticRankProfile(*measurements[r], r, epoch),
                          *measurements[r], runtimeOf(r, epoch)),
                      fleet::SendResult::Ok);
        }
        while (aggregator.epochsCompleted() <
               static_cast<std::uint64_t>(epoch)) {
            ASSERT_TRUE(aggregator.pump()) << "fleet epoch " << epoch
                                           << " stalled";
        }
        const adapt::EpochReport& expected =
            refReports[static_cast<std::size_t>(epoch) - 1];
        for (int r = 0; r < kRanks; ++r) {
            if (clients[r] == nullptr) {
                continue;
            }
            const adapt::EpochReport report = clients[r]->awaitPolicy();
            EXPECT_EQ(report.policyFingerprint, expected.policyFingerprint)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.measuredOverheadRatio,
                      expected.measuredOverheadRatio)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.budgetNs, expected.budgetNs)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.withinBudget, expected.withinBudget)
                << "epoch " << epoch << " rank " << r;
        }
        EXPECT_EQ(aggregator.safeMode(),
                  expected.health == adapt::EpochHealth::SafeMode)
            << "epoch " << epoch;
        EXPECT_EQ(profiledVisitsByName(fleetGraph),
                  refVisits[static_cast<std::size_t>(epoch) - 1])
            << "epoch " << epoch;
    }

    EXPECT_EQ(aggregator.convergedFingerprint(),
              refReports.back().policyFingerprint);
    expectSameTotalsByName(refTotals, aggregator.totalsByName());
    EXPECT_EQ(aggregator.stats().divergentClients, 0u);
    if (variant.tripsKillSwitch) {
        const auto [trips, rearms] = killSwitchTransitions(refReports);
        EXPECT_GE(trips, 1);
        EXPECT_GE(rearms, 1);
    }
}

TEST(FleetAggregation, SyntheticStreamsAggregateBitIdentically) {
    expectSyntheticStreamsAggregateBitIdentically(kBaseConfigCase);
}

TEST_P(FleetAggregationConfigs, SyntheticStreamsAggregateBitIdentically) {
    expectSyntheticStreamsAggregateBitIdentically(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Decider, FleetAggregationConfigs, ::testing::ValuesIn(kFleetConfigCases),
    [](const ::testing::TestParamInfo<FleetConfigCase>& info) {
        return std::string(info.param.name);
    });

/// One rank's epoch over main, kernel, noisy and the library symbols memcpy
/// and memset, which lie outside the call graph (and so outside the survey):
/// a call chain in `order`, each region's exclusive time its own whatever
/// its depth. Regions are defined on `measurement` in `order` and a chain
/// has one node order, so two callers can give the same regions different
/// handles and ship their definitions in different orders; visit counts and
/// exclusive times do not depend on `order`.
scorep::ProfileTree orderedRankProfile(scorep::Measurement& measurement,
                                       const std::vector<std::string>& order,
                                       int rank, int epoch) {
    support::SplitMix64 rng(0xD15EA5Eull ^
                            (static_cast<std::uint64_t>(rank) << 32) ^
                            static_cast<std::uint64_t>(epoch));
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> draws;
    draws["main"] = {1, 900'000 + rng.nextBelow(1000)};
    draws["kernel"] = {3 + rng.nextBelow(5), 8'000'000 + rng.nextBelow(10'000)};
    draws["noisy"] = {7'000 + rng.nextBelow(3'001), 400'000 + rng.nextBelow(10'000)};
    draws["memcpy"] = {5'000 + rng.nextBelow(2'003), 300'000 + rng.nextBelow(10'000)};
    draws["memset"] = {2'000 + rng.nextBelow(997), 100'000 + rng.nextBelow(1'000)};
    scorep::ProfileTree tree;
    std::uint64_t belowNs = 0;  // inclusive time of the rest of the chain
    for (const std::string& name : order) {
        belowNs += draws.at(name).second;
    }
    std::size_t node = tree.root();
    for (const std::string& name : order) {
        node = tree.childOf(node, measurement.defineRegion(name));
        tree.node(node).visits = draws.at(name).first;
        tree.node(node).inclusiveNs = belowNs;
        belowNs -= draws.at(name).second;
    }
    return tree;
}

// Two properties of the observation fold, pinned on byte-identical streams:
// (a) a fleet whose first sender defines its regions in the opposite order
// from the reference Measurement (so the fleet numbers its regions, and
// first sees the off-graph ones, in the opposite order) still decides bit
// for bit like the merged reference, under a per-event cost whose products
// do not sum exactly; (b) regions
// outside the graph, which no plan can name, still bill their probes into
// the measured probe cost.
TEST(FleetAggregation, RegionDefinitionOrderAndOffGraphRegionsKeepTheDecision) {
    const binsim::AppModel model = syntheticModel();
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    const binsim::CompiledProgram compiled = binsim::compile(model, copts);
    cg::MetaCgBuilder builder;
    const cg::CallGraph graph = builder.build(model.toSourceModel());
    ASSERT_EQ(graph.lookup("memcpy"), cg::kInvalidFunction);
    ASSERT_EQ(graph.lookup("memset"), cg::kInvalidFunction);

    adapt::Config config;
    config.budgetFraction = 0.05;
    config.maxEpochs = 10;
    config.perEventCostNs = 97.31;
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);

    const std::vector<std::string> forward = {"main", "kernel", "noisy",
                                              "memcpy", "memset"};
    const std::vector<std::string> reversed(forward.rbegin(), forward.rend());
    constexpr int kRanks = 2;
    constexpr int kEpochs = 4;
    auto runtimeOf = [](int rank, int epoch) {
        return 3.3e7 * (1.0 + rank) + 1.7e5 * epoch;
    };

    // --- reference: one controller, one Measurement in forward order -------
    binsim::Process refProcess(compiled);
    dyncapi::DynCapi refDyn(refProcess);
    adapt::Controller reference(graph, refDyn, config);
    reference.start(survey);
    scorep::Measurement refMeasurement;
    std::vector<adapt::EpochReport> refReports;
    TotalsByName refTotals;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        std::vector<scorep::ProfileTree> profiles(kRanks);
        std::vector<double> runtimesNs(kRanks);
        std::uint64_t visits = 0;
        std::uint64_t offGraphVisits = 0;
        for (int r = 0; r < kRanks; ++r) {
            profiles[r] = orderedRankProfile(refMeasurement, forward, r, epoch);
            runtimesNs[r] = runtimeOf(r, epoch);
            for (const auto& [handle, totals] : profiles[r].regionTotals()) {
                const std::string& name = refMeasurement.region(handle).name;
                auto& t = refTotals[name];
                t.visits += totals.visits;
                t.exclusiveNs += totals.exclusiveNs;
                visits += totals.visits;
                if (graph.lookup(name) == cg::kInvalidFunction) {
                    offGraphVisits += totals.visits;
                }
            }
        }
        refReports.push_back(mergedReferenceEpoch(reference, profiles,
                                                  runtimesNs, refMeasurement));
        // (b): every recorded visit pays two probe events, off-graph ones
        // included — and the off-graph share is far above rounding noise.
        const double expectedCostNs =
            static_cast<double>(visits) * 2.0 * config.perEventCostNs;
        EXPECT_NEAR(refReports.back().measuredProbeCostNs, expectedCostNs,
                    expectedCostNs * 1e-12)
            << "epoch " << epoch;
        EXPECT_GT(static_cast<double>(offGraphVisits) * 2.0 *
                      config.perEventCostNs,
                  expectedCostNs * 0.1)
            << "epoch " << epoch;
    }
    // The budget must bite, so the plans carry information.
    EXPECT_FALSE(refReports.front().withinBudget);

    // --- fleet: client 1 defines in reverse order and sends first ----------
    fleet::AggregatorOptions aggOptions;
    aggOptions.config = config;
    fleet::Aggregator aggregator(graph, survey, aggOptions);
    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (int r = 0; r < kRanks; ++r) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(aggregator));
    }
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        for (int r = kRanks - 1; r >= 0; --r) {
            ASSERT_EQ(clients[r]->sendEpoch(
                          orderedRankProfile(*measurements[r],
                                             r == 0 ? forward : reversed, r,
                                             epoch),
                          *measurements[r], runtimeOf(r, epoch)),
                      fleet::SendResult::Ok);
        }
        while (aggregator.epochsCompleted() <
               static_cast<std::uint64_t>(epoch)) {
            ASSERT_TRUE(aggregator.pump()) << "fleet epoch " << epoch
                                           << " stalled";
        }
        const adapt::EpochReport& expected =
            refReports[static_cast<std::size_t>(epoch) - 1];
        for (int r = 0; r < kRanks; ++r) {
            const adapt::EpochReport report = clients[r]->awaitPolicy();
            EXPECT_EQ(report.policyFingerprint, expected.policyFingerprint)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.measuredOverheadRatio,
                      expected.measuredOverheadRatio)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.budgetNs, expected.budgetNs)
                << "epoch " << epoch << " rank " << r;
            EXPECT_EQ(report.withinBudget, expected.withinBudget)
                << "epoch " << epoch << " rank " << r;
        }
    }
    EXPECT_EQ(aggregator.convergedFingerprint(),
              refReports.back().policyFingerprint);
    expectSameTotalsByName(refTotals, aggregator.totalsByName());
    EXPECT_EQ(aggregator.stats().divergentClients, 0u);
}

/// A main -> kernel -> noisy tree: one flat epoch of the synthetic model
/// with `noisyVisits` visits to the cheap, chatty leaf.
scorep::ProfileTree flatEpochProfile(scorep::Measurement& measurement,
                                     std::uint64_t noisyVisits) {
    scorep::ProfileTree tree;
    const std::size_t nMain =
        tree.childOf(tree.root(), measurement.defineRegion("main"));
    const std::size_t nKernel =
        tree.childOf(nMain, measurement.defineRegion("kernel"));
    const std::size_t nNoisy =
        tree.childOf(nKernel, measurement.defineRegion("noisy"));
    tree.node(nMain).visits = 1;
    tree.node(nMain).inclusiveNs = 4'400'000;
    tree.node(nKernel).visits = 4;
    tree.node(nKernel).inclusiveNs = 4'200'000;
    tree.node(nNoisy).visits = noisyVisits;
    tree.node(nNoisy).inclusiveNs = 200'000;
    return tree;
}

// Two controller-attached clients, one skewed off the fleet's policy by a
// private Controller::epoch. The next fleet epoch must leave BOTH processes
// patched to the converged policy — fingerprint agreement alone is not
// enough — and the skewed client's report must say which region diverged.
TEST(FleetAggregation, AdoptPolicyRepatchesSkewedClientToConvergedPolicy) {
    const binsim::AppModel model = syntheticModel();
    binsim::CompileOptions copts;
    copts.xrayThreshold.instructionThreshold = 1;
    const binsim::CompiledProgram compiled = binsim::compile(model, copts);
    cg::MetaCgBuilder builder;
    const cg::CallGraph graph = builder.build(model.toSourceModel());

    adapt::Config config;
    config.budgetFraction = 0.05;
    config.perEventCostNs = 100.0;
    config.maxEpochs = 10;
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions aggOptions;
    aggOptions.config = config;
    fleet::Aggregator aggregator(graph, survey, aggOptions);
    FleetRank steady(compiled, graph, config, survey, aggregator);
    FleetRank skewed(compiled, graph, config, survey, aggregator);

    // Skew: a private epoch whose profile blows the budget (20005 visits x
    // 2 events x 100 ns over 1e7 ns = 40%) evicts noisy on one controller
    // only, while the fleet still runs the survey.
    {
        scorep::Measurement m;
        skewed.controller.epoch(flatEpochProfile(m, 20000), m, 1e7);
    }
    ASSERT_FALSE(skewed.controller.currentIc().contains("noisy"));
    ASSERT_NE(steady.controller.currentPolicy().fingerprint(),
              skewed.controller.currentPolicy().fingerprint());

    // A quiet fleet epoch: well inside the budget, so the converged policy
    // keeps noisy instrumented.
    for (FleetRank* rank : {&steady, &skewed}) {
        scorep::Measurement m;
        ASSERT_EQ(rank->client->sendEpoch(flatEpochProfile(m, 20), m, 1e7),
                  fleet::SendResult::Ok);
    }
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump()) << "fleet epoch stalled";
    }
    steady.client->awaitPolicy();
    const adapt::EpochReport report = skewed.client->awaitPolicy();

    // The diagnosis names the region the skewed controller had dropped.
    const std::vector<std::string>& readmitted = report.divergence.added;
    EXPECT_NE(std::find(readmitted.begin(), readmitted.end(), "noisy"),
              readmitted.end());
    const std::uint64_t converged = aggregator.convergedFingerprint();
    EXPECT_EQ(report.policyFingerprint, converged);
    for (FleetRank* rank : {&steady, &skewed}) {
        // Every controller adopted the converged policy...
        EXPECT_EQ(rank->controller.currentPolicy().fingerprint(), converged);
        EXPECT_TRUE(rank->controller.currentIc().contains("noisy"));
        // ...and actually re-applied it: the cached policy matches the live
        // sled state exactly (a re-apply is a complete no-op).
        const dyncapi::DeltaStats noop =
            rank->dyn.applyPolicyDelta(rank->controller.currentPolicy());
        EXPECT_EQ(noop.pagesTouched, 0u);
        EXPECT_EQ(noop.functionsPatched, 0u);
        EXPECT_EQ(noop.functionsUnpatched, 0u);
    }
    // Both processes left the epoch patched identically, tier tags included.
    EXPECT_EQ(steady.process.xray().patchedFunctionTiers(),
              skewed.process.xray().patchedFunctionTiers());
}

/// Headless-client fixtures for the protocol and soak tests.
cg::CallGraph tinyGraph() {
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

scorep::ProfileTree flatProfile(scorep::Measurement& measurement,
                                std::uint64_t salt) {
    scorep::ProfileTree tree;
    auto touch = [&](const char* name, std::uint64_t visits,
                     std::uint64_t ns) {
        const std::size_t node =
            tree.childOf(tree.root(), measurement.defineRegion(name));
        tree.node(node).visits += visits;
        tree.node(node).inclusiveNs += ns;
    };
    touch("main", 1, 1000 + salt % 7);
    touch("kernel", 10 + salt % 3, 1'000'000 + salt % 11);
    touch("noisy", 1000, 2000);
    return tree;
}

TEST(FleetAggregation, ResyncControlFrameForcesFreshBaseline) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    EXPECT_EQ(client.stats().baselinesReceived, 1u);

    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 1), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();

    // Break the chain on the client's behalf: the aggregator must answer
    // the next epoch with a full baseline instead of a diff.
    ASSERT_EQ(aggregator.dataChannel().send(fleet::encodeControlFrame(
                  fleet::FrameType::Resync, client.clientId())),
              fleet::SendResult::Ok);
    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 2), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 2) {
        ASSERT_TRUE(aggregator.pump());
    }
    const adapt::EpochReport report = client.awaitPolicy();
    EXPECT_EQ(aggregator.stats().resyncs, 1u);
    EXPECT_EQ(client.stats().baselinesReceived, 2u);
    EXPECT_EQ(report.policyFingerprint, aggregator.convergedFingerprint());
    EXPECT_EQ(client.policyFingerprint(), aggregator.convergedFingerprint());
}

TEST(FleetAggregation, MalformedFramesDropTypedWithoutDisruption) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);

    // Raw garbage and a checksum-corrupted frame land ahead of real work.
    ASSERT_EQ(aggregator.dataChannel().send({0xDE, 0xAD, 0xBE, 0xEF}),
              fleet::SendResult::Ok);
    std::vector<std::uint8_t> corrupted =
        fleet::encodeDeltaFrame(richDelta());
    corrupted[corrupted.size() / 2] ^= 0xFF;
    ASSERT_EQ(aggregator.dataChannel().send(corrupted), fleet::SendResult::Ok);

    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 3), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    const adapt::EpochReport report = client.awaitPolicy();
    EXPECT_EQ(aggregator.stats().decodeErrors, 2u);
    EXPECT_EQ(aggregator.stats().framesMerged, 1u);
    EXPECT_EQ(report.policyFingerprint, aggregator.convergedFingerprint());
}

// The scale property: 1000 non-blocking producers against a 64-slot ingress
// queue. Backpressure must engage (the queue never grows past capacity),
// every drop must be counted exactly once on both sides of the channel,
// dropped epochs must coalesce losslessly into later frames, and the whole
// fleet must still converge on a single policy fingerprint.
TEST(FleetAggregation, ThousandClientSoakDropsAndCoalescesExactly) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.dataQueueCapacity = 64;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);

    constexpr std::size_t kClients = 1000;
    constexpr int kRounds = 3;
    fleet::FleetClientOptions clientOptions;
    clientOptions.blockingSend = false;

    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    measurements.reserve(kClients);
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(
            std::make_unique<fleet::FleetClient>(aggregator, clientOptions));
    }
    ASSERT_EQ(aggregator.clientCount(), kClients);

    TotalsByName expectedTotals;
    std::uint64_t observedDrops = 0;
    for (int round = 1; round <= kRounds; ++round) {
        std::vector<std::size_t> retry;
        for (std::size_t i = 0; i < kClients; ++i) {
            const std::uint64_t salt = i * 31 + static_cast<std::uint64_t>(round);
            scorep::ProfileTree profile = flatProfile(*measurements[i], salt);
            for (const auto& [handle, totals] : profile.regionTotals()) {
                auto& t = expectedTotals[measurements[i]->region(handle).name];
                t.visits += totals.visits;
                t.exclusiveNs += totals.exclusiveNs;
            }
            const fleet::SendResult sent =
                clients[i]->sendEpoch(profile, *measurements[i], 1e9);
            if (sent == fleet::SendResult::Backpressure) {
                retry.push_back(i);
                ++observedDrops;
            } else {
                ASSERT_EQ(sent, fleet::SendResult::Ok);
            }
        }
        ASSERT_FALSE(retry.empty()) << "backpressure never engaged";

        // Drain-and-retry until the fleet epoch closes. A dropped epoch is
        // retried with an EMPTY profile and zero runtime: the unadvanced
        // watermark and the pending accumulators re-ship the missed data
        // (coveredEpochs == 2), so nothing may be double-counted.
        const scorep::ProfileTree empty;
        while (aggregator.epochsCompleted() <
               static_cast<std::uint64_t>(round)) {
            const bool progressed = aggregator.pump();
            std::vector<std::size_t> still;
            for (std::size_t i : retry) {
                const fleet::SendResult sent =
                    clients[i]->sendEpoch(empty, *measurements[i], 0.0);
                if (sent == fleet::SendResult::Backpressure) {
                    still.push_back(i);
                    ++observedDrops;
                } else {
                    ASSERT_EQ(sent, fleet::SendResult::Ok);
                }
            }
            ASSERT_TRUE(progressed || !retry.empty()) << "soak stalled";
            retry.swap(still);
        }
        ASSERT_TRUE(retry.empty());

        const std::uint64_t fingerprint = aggregator.convergedFingerprint();
        for (std::size_t i = 0; i < kClients; ++i) {
            clients[i]->awaitPolicy();
            ASSERT_EQ(clients[i]->policyFingerprint(), fingerprint)
                << "round " << round << " client " << i;
        }
    }

    // Exact drop accounting on both sides of the channel, and the bound.
    const fleet::ChannelStats channel = aggregator.dataChannel().stats();
    EXPECT_EQ(channel.rejected, observedDrops);
    EXPECT_LE(channel.maxDepth, options.dataQueueCapacity);
    std::uint64_t clientDrops = 0;
    std::uint64_t coalesced = 0;
    for (const auto& client : clients) {
        clientDrops += client->stats().droppedDeltas;
        coalesced += client->stats().coalescedEpochs;
    }
    EXPECT_EQ(clientDrops, observedDrops);
    EXPECT_EQ(coalesced, observedDrops);  // every drop rode a later frame

    const fleet::AggregatorStats stats = aggregator.stats();
    EXPECT_EQ(stats.framesMerged, kClients * kRounds);
    EXPECT_EQ(stats.decodeErrors, 0u);
    EXPECT_EQ(aggregator.epochsCompleted(),
              static_cast<std::uint64_t>(kRounds));
    // ...and the coalesced stream lost nothing: the fleet profile equals
    // the sum of every per-round synthetic profile, drops included.
    expectSameTotalsByName(expectedTotals, aggregator.totalsByName());
}

// --------------------------------------------- checkpoint/restore tests --

TEST(FleetCheckpoint, SnapshotIsByteDeterministicAndRoundTrips) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement m0;
    scorep::Measurement m1;
    fleet::FleetClient c0(aggregator);
    fleet::FleetClient c1(aggregator);
    ASSERT_EQ(c0.sendEpoch(flatProfile(m0, 1), m0, 1e9), fleet::SendResult::Ok);
    ASSERT_EQ(c1.sendEpoch(flatProfile(m1, 2), m1, 2e9), fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    c0.awaitPolicy();
    c1.awaitPolicy();

    // Same state -> same bytes, and decode/encode is the identity.
    const std::vector<std::uint8_t> bytes = aggregator.checkpoint();
    EXPECT_EQ(bytes, aggregator.checkpoint());
    EXPECT_EQ(fleet::frameTypeOf(bytes), fleet::FrameType::Snapshot);
    const fleet::SnapshotFrame snap = fleet::decodeSnapshotFrame(bytes);
    EXPECT_EQ(fleet::encodeSnapshotFrame(snap), bytes);

    EXPECT_EQ(snap.incarnation, 1u);
    EXPECT_EQ(snap.epochsCompleted, 1u);
    ASSERT_EQ(snap.clients.size(), 2u);
    EXPECT_EQ(snap.currentPolicy.fingerprint(),
              aggregator.convergedFingerprint());
    const fleet::AggregatorStats stats = aggregator.stats();
    EXPECT_EQ(stats.checkpoints, 2u);
    EXPECT_EQ(stats.checkpointBytes, 2 * bytes.size());
}

TEST(FleetCheckpoint, SnapshotCorruptionSweepFailsTypedNeverCrashes) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 1), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();
    const std::vector<std::uint8_t> seed = aggregator.checkpoint();

    // Same mutation schedule as the wire-frame sweep, against a REAL
    // checkpoint: truncation, bit flips, byte rewrites, appended garbage.
    support::SplitMix64 rng(0x5EED5 ^ envFaultSeed());
    int rejected = 0;
    int survived = 0;
    for (int i = 0; i < 4000; ++i) {
        std::vector<std::uint8_t> bytes = seed;
        switch (rng.nextBelow(4)) {
            case 0:
                bytes.resize(rng.nextBelow(bytes.size()));
                break;
            case 1:
                bytes[rng.nextBelow(bytes.size())] ^=
                    static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                break;
            case 2:
                bytes[rng.nextBelow(bytes.size())] =
                    static_cast<std::uint8_t>(rng.next());
                break;
            default:
                bytes.push_back(static_cast<std::uint8_t>(rng.next()));
                break;
        }
        try {
            switch (fleet::frameTypeOf(bytes)) {
                case fleet::FrameType::Delta:
                    fleet::decodeDeltaFrame(bytes);
                    break;
                case fleet::FrameType::PolicyBaseline:
                case fleet::FrameType::PolicyUpdate:
                    fleet::decodePolicyFrame(bytes);
                    break;
                case fleet::FrameType::Resync:
                    fleet::decodeControlFrame(bytes, fleet::FrameType::Resync);
                    break;
                case fleet::FrameType::Bye:
                    fleet::decodeControlFrame(bytes, fleet::FrameType::Bye);
                    break;
                case fleet::FrameType::Snapshot:
                    fleet::decodeSnapshotFrame(bytes);
                    break;
            }
            ++survived;
        } catch (const fleet::WireError&) {
            ++rejected;
        }
    }
    EXPECT_EQ(rejected + survived, 4000);
    EXPECT_GT(rejected, 0);
}

/// Payload of a sealed snapshot of one client with empty session state.
/// Its last 16 bytes are that client's tail: watermark count, acked count,
/// runtime, epochs acked, an empty last-sent policy (4 bytes) and the
/// pending-frame count — all zero.
std::vector<std::uint8_t> oneClientSnapshotPayload() {
    fleet::SnapshotFrame frame;
    frame.nextClientId = 1;
    frame.clients.emplace_back();
    const std::vector<std::uint8_t> bytes = fleet::encodeSnapshotFrame(frame);
    EXPECT_NO_THROW(fleet::decodeSnapshotFrame(bytes));
    std::size_t header = 5;
    while (bytes[header] & 0x80) ++header;
    std::vector<std::uint8_t> payload(bytes.begin() + static_cast<std::ptrdiff_t>(header + 1),
                                      bytes.end() - 8);
    EXPECT_EQ(goldenSeal(6, payload), bytes);
    EXPECT_TRUE(std::all_of(payload.end() - 16, payload.end(),
                            [](std::uint8_t b) { return b == 0; }));
    return payload;
}

TEST(FleetCheckpoint, ListCountThatWrapsTheSizeCheckFailsTyped) {
    // A watermark node count of 2^63 at two bytes per node multiplies to
    // 2^64, which wraps to 0 and used to pass the size check, reaching
    // reserve() with the count.
    std::vector<std::uint8_t> payload = oneClientSnapshotPayload();
    payload.resize(payload.size() - 16);
    appendVarint(payload, std::uint64_t{1} << 63);
    payload.resize(payload.size() + 15, 0);
    EXPECT_THROW(fleet::decodeSnapshotFrame(goldenSeal(6, payload)),
                 fleet::WireError);
}

TEST(FleetCheckpoint, PendingFrameLargerThanSnapshotFailsTyped) {
    // One pending frame whose size varint claims 2^64 - 1 bytes: checked
    // against the bytes left before anything is reserved.
    std::vector<std::uint8_t> payload = oneClientSnapshotPayload();
    payload.pop_back();
    appendVarint(payload, 1);
    appendVarint(payload, ~std::uint64_t{0});
    EXPECT_THROW(fleet::decodeSnapshotFrame(goldenSeal(6, payload)),
                 fleet::WireError);
}

TEST(FleetCheckpoint, CorruptOrForeignSnapshotRestoreRejectsTyped) {
    const cg::CallGraph graph = tinyGraph();
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, survey, options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 1), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();
    const std::vector<std::uint8_t> good = aggregator.checkpoint();

    {
        std::vector<std::uint8_t> corrupt = good;  // flipped payload bit
        corrupt[corrupt.size() / 2] ^= 0x10;
        EXPECT_THROW(fleet::Aggregator(graph, survey, corrupt, options),
                     fleet::WireError);
    }
    {
        std::vector<std::uint8_t> truncated = good;
        truncated.resize(truncated.size() / 2);
        EXPECT_THROW(fleet::Aggregator(graph, survey, truncated, options),
                     fleet::WireError);
    }
    {
        const std::vector<std::uint8_t> missing;  // empty snapshot file
        EXPECT_THROW(fleet::Aggregator(graph, survey, missing, options),
                     fleet::WireError);
    }
    {
        // A structurally valid snapshot taken against a DIFFERENT survey
        // (extra function in the graph) must be refused, not half-adopted.
        cg::CallGraph other = tinyGraph();
        cg::FunctionDesc desc;
        desc.name = "extra";
        desc.prettyName = "extra";
        desc.flags.hasBody = true;
        other.addFunction(desc);
        EXPECT_THROW(fleet::Aggregator(
                         other, adapt::surveyOfDefinedFunctions(other), good,
                         options),
                     fleet::WireError);
    }
}

// The restore property: an aggregator killed at an epoch boundary and
// rebuilt from its checkpoint continues BIT-IDENTICALLY to an uninterrupted
// twin — same per-epoch fingerprints/budgets, same fleet totals, and a
// byte-equal end-of-run snapshot once the incarnation stamp is normalized.
TEST(FleetCheckpoint, RestoreContinuesBitIdenticallyToUninterruptedTwin) {
    const cg::CallGraph graph = tinyGraph();
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    constexpr std::size_t kClients = 3;
    constexpr int kEpochs = 6;
    constexpr int kRestoreAfter = 3;
    auto saltOf = [](std::size_t i, int epoch) {
        return i * 977 + static_cast<std::uint64_t>(epoch) * 131;
    };
    auto runtimeOf = [](std::size_t i, int epoch) {
        return 1e9 * static_cast<double>(i + 1) + 1e6 * epoch;
    };

    fleet::Aggregator twin(graph, survey, options);
    auto restored = std::make_unique<fleet::Aggregator>(graph, survey, options);
    std::vector<std::unique_ptr<scorep::Measurement>> twinMs;
    std::vector<std::unique_ptr<scorep::Measurement>> restMs;
    std::vector<std::unique_ptr<fleet::FleetClient>> twinClients;
    std::vector<std::unique_ptr<fleet::FleetClient>> restClients;
    for (std::size_t i = 0; i < kClients; ++i) {
        twinMs.push_back(std::make_unique<scorep::Measurement>());
        restMs.push_back(std::make_unique<scorep::Measurement>());
        twinClients.push_back(std::make_unique<fleet::FleetClient>(twin));
        restClients.push_back(std::make_unique<fleet::FleetClient>(*restored));
    }

    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        for (std::size_t i = 0; i < kClients; ++i) {
            ASSERT_EQ(twinClients[i]->sendEpoch(
                          flatProfile(*twinMs[i], saltOf(i, epoch)),
                          *twinMs[i], runtimeOf(i, epoch)),
                      fleet::SendResult::Ok);
            ASSERT_EQ(restClients[i]->sendEpoch(
                          flatProfile(*restMs[i], saltOf(i, epoch)),
                          *restMs[i], runtimeOf(i, epoch)),
                      fleet::SendResult::Ok);
        }
        while (twin.epochsCompleted() < static_cast<std::uint64_t>(epoch)) {
            ASSERT_TRUE(twin.pump());
        }
        while (restored->epochsCompleted() <
               static_cast<std::uint64_t>(epoch)) {
            ASSERT_TRUE(restored->pump());
        }
        for (std::size_t i = 0; i < kClients; ++i) {
            const adapt::EpochReport a = twinClients[i]->awaitPolicy();
            const adapt::EpochReport b = restClients[i]->awaitPolicy();
            EXPECT_EQ(a.policyFingerprint, b.policyFingerprint)
                << "epoch " << epoch << " client " << i;
            EXPECT_EQ(a.measuredOverheadRatio, b.measuredOverheadRatio);
            EXPECT_EQ(a.budgetNs, b.budgetNs);
            EXPECT_EQ(a.withinBudget, b.withinBudget);
        }
        if (epoch == kRestoreAfter) {
            // Kill-and-restore: the old instance is discarded wholesale;
            // the new one must pick up mid-run from the snapshot alone.
            const std::vector<std::uint8_t> snapshot = restored->checkpoint();
            restored = std::make_unique<fleet::Aggregator>(graph, survey,
                                                           snapshot, options);
            EXPECT_EQ(restored->incarnation(), 2u);
            EXPECT_EQ(restored->stats().restores, 1u);
            for (auto& client : restClients) {
                EXPECT_TRUE(client->reconnect(*restored));
            }
            for (const auto& client : restClients) {
                EXPECT_EQ(client->stats().sessionResumes, 1u);
                EXPECT_EQ(client->stats().restartsDetected, 1u);
                EXPECT_EQ(client->aggregatorIncarnation(), 2u);
            }
        }
    }

    EXPECT_EQ(twin.convergedFingerprint(), restored->convergedFingerprint());
    expectSameTotalsByName(twin.totalsByName(), restored->totalsByName());

    // Full-state equality, modulo the incarnation stamp the restart bumped.
    const fleet::SnapshotFrame sa = fleet::decodeSnapshotFrame(twin.checkpoint());
    fleet::SnapshotFrame sb = fleet::decodeSnapshotFrame(restored->checkpoint());
    EXPECT_EQ(sb.incarnation, 2u);
    sb.incarnation = sa.incarnation;
    EXPECT_EQ(fleet::encodeSnapshotFrame(sa), fleet::encodeSnapshotFrame(sb));

    // Restore-of-restore: rebuilding from the twin's final snapshot yields
    // the same normalized state again (restores compose).
    fleet::Aggregator again(graph, survey, fleet::encodeSnapshotFrame(sa),
                            options);
    fleet::SnapshotFrame sc = fleet::decodeSnapshotFrame(again.checkpoint());
    sc.incarnation = sa.incarnation;
    EXPECT_EQ(fleet::encodeSnapshotFrame(sc), fleet::encodeSnapshotFrame(sa));
}

// ----------------------------------------------------- broadcast tests --

/// `regions` leaf functions under main: policies large enough to change
/// tiers, gain and lose regions from one epoch to the next.
cg::CallGraph wideGraph(std::size_t regions) {
    cg::CallGraph graph;
    auto add = [&](const std::string& name) {
        cg::FunctionDesc desc;
        desc.name = name;
        desc.prettyName = name;
        desc.flags.hasBody = true;
        return graph.addFunction(desc);
    };
    const cg::FunctionId mainFn = add("main");
    for (std::size_t i = 0; i < regions; ++i) {
        graph.addCallEdge(mainFn, add("region_" + std::to_string(i)));
    }
    return graph;
}

/// One epoch's flat profile touching a seeded subset of the graph's
/// regions with seeded counters.
scorep::ProfileTree seededProfile(const cg::CallGraph& graph,
                                  scorep::Measurement& measurement,
                                  support::SplitMix64& rng) {
    scorep::ProfileTree tree;
    for (cg::FunctionId id = 0; id < graph.size(); ++id) {
        if (id != 0 && !rng.nextBool(0.4)) {
            continue;
        }
        const std::size_t node = tree.childOf(
            tree.root(), measurement.defineRegion(graph.name(id)));
        tree.node(node).visits += 1 + rng.nextBelow(5000);
        tree.node(node).inclusiveNs += 1000 + rng.nextBelow(2'000'000);
    }
    return tree;
}

/// Closes `channel` unless destroyed within `timeout`: a client that waits
/// for a frame nobody sends (a resync no aggregator answers) then fails its
/// test instead of hanging it.
class ChannelWatchdog {
public:
    ChannelWatchdog(fleet::Channel& channel, std::chrono::milliseconds timeout)
        : thread_([this, &channel, timeout] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!done_changed_.wait_for(lock, timeout,
                                          [this] { return done_; })) {
                  channel.close();
              }
          }) {}
    ChannelWatchdog(const ChannelWatchdog&) = delete;
    ChannelWatchdog& operator=(const ChannelWatchdog&) = delete;
    ~ChannelWatchdog() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        done_changed_.notify_one();
        thread_.join();
    }

private:
    std::mutex mutex_;
    std::condition_variable done_changed_;
    bool done_ = false;
    std::thread thread_;
};

/// The policy frame as the aggregator built it for one client at a time,
/// before broadcasts shared frames: a baseline when `lastSent` is null,
/// else the client's last-sent policy diffed by a binary search per name —
/// upserts in policy order, removals in last-sent order. The header fields
/// other than the fingerprints come from `header`.
fleet::PolicyFrame referencePolicyFrame(
    const fleet::PolicyFrame& header,
    const select::InstrumentationPolicy* lastSent,
    const select::InstrumentationPolicy& policy) {
    fleet::PolicyFrame frame;
    frame.epoch = header.epoch;
    frame.incarnation = header.incarnation;
    frame.fingerprint = policy.fingerprint();
    frame.measuredOverheadRatio = header.measuredOverheadRatio;
    frame.budgetNs = header.budgetNs;
    frame.withinBudget = header.withinBudget;
    frame.baseline = lastSent == nullptr;
    if (lastSent == nullptr) {
        for (std::size_t i = 0; i < policy.functions.size(); ++i) {
            frame.upserts.push_back(
                fleet::PolicyFrameEntry{policy.functions[i], policy.regions[i]});
        }
        return frame;
    }
    frame.prevFingerprint = lastSent->fingerprint();
    for (std::size_t i = 0; i < policy.functions.size(); ++i) {
        const select::RegionPolicy* before =
            lastSent->policyOf(policy.functions[i]);
        if (before == nullptr || *before != policy.regions[i]) {
            frame.upserts.push_back(
                fleet::PolicyFrameEntry{policy.functions[i], policy.regions[i]});
        }
    }
    for (const std::string& name : lastSent->functions) {
        if (!policy.contains(name)) {
            frame.removed.push_back(name);
        }
    }
    return frame;
}

// The broadcast property: encoding one frame per diff base must put on
// every client's channel exactly the bytes the per-client algorithm built —
// for in-sync clients; for Lagging clients whose refused trySends leave
// them anchored on an older policy; for clients that resync; and across a
// checkpoint/restore mid-run, which must itself round-trip byte for byte.
TEST(FleetBroadcast, SharedFramesEqualPerClientReferenceFrames) {
    const cg::CallGraph graph = wideGraph(48);
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    options.config.enableSampledTier = true;
    options.config.sampledEveryN = 8;
    options.policyQueueCapacity = 2;
    // A client without a frame at close is Lagging (best-effort trySend)
    // and is never evicted, so every broadcast still tries it.
    options.epochPolicy.timeoutNs = 1;
    options.epochPolicy.quorum = 1;
    options.epochPolicy.graceEpochs = 0;

    enum class Kind { InSync, Lagging, Resyncing };
    const std::vector<Kind> kinds = {Kind::InSync,    Kind::Lagging,
                                     Kind::InSync,    Kind::Resyncing,
                                     Kind::Lagging,   Kind::InSync,
                                     Kind::Resyncing};
    constexpr int kEpochs = 30;
    constexpr int kRestoreAfter = 13;
    support::SplitMix64 rng(0x5EED'B40Aull);

    auto aggregator = std::make_unique<fleet::Aggregator>(graph, survey, options);
    // Every policy the fleet converged on, by fingerprint, and the
    // fingerprint each epoch closed on.
    std::map<std::uint64_t, select::InstrumentationPolicy> converged;
    std::vector<std::uint64_t> convergedAt;
    auto recordConverged = [&] {
        converged[aggregator->convergedFingerprint()] =
            aggregator->convergedPolicy();
        convergedAt.resize(aggregator->epochsCompleted() + 1);
        convergedAt.back() = aggregator->convergedFingerprint();
    };
    recordConverged();

    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    // Fingerprint of the last frame each client was sent: its diff base.
    std::vector<std::uint64_t> lastSent;
    for (std::size_t c = 0; c < kinds.size(); ++c) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(*aggregator));
        lastSent.push_back(aggregator->convergedFingerprint());
    }

    std::size_t updates = 0;
    std::size_t baselines = 0;
    std::size_t anchoredElsewhere = 0;  // updates not based on the last epoch
    std::size_t upserts = 0;
    std::size_t removals = 0;
    std::uint64_t laggingDrops = 0;
    std::uint64_t encoded = 0;
    std::uint64_t sent = 0;
    auto addStats = [&](const fleet::AggregatorStats& stats) {
        laggingDrops += stats.laggingPolicyDrops;
        encoded += stats.policyFramesEncoded;
        sent += stats.policyFramesSent;
    };

    // Drains client c's policy channel, checks every frame against the
    // reference built from the client's last-sent policy, then hands the
    // frames back for the client to adopt.
    auto deliver = [&](std::size_t c) {
        fleet::Channel& channel = clients[c]->policyChannel();
        std::vector<std::vector<std::uint8_t>> frames;
        while (auto bytes = channel.tryReceive()) {
            frames.push_back(std::move(*bytes));
        }
        for (const std::vector<std::uint8_t>& bytes : frames) {
            const fleet::PolicyFrame frame = fleet::decodePolicyFrame(bytes);
            auto target = converged.find(frame.fingerprint);
            ASSERT_NE(target, converged.end()) << "client " << c;
            const select::InstrumentationPolicy* base = nullptr;
            if (!frame.baseline) {
                auto it = converged.find(lastSent[c]);
                ASSERT_NE(it, converged.end()) << "client " << c;
                base = &it->second;
            }
            const fleet::PolicyFrame reference =
                referencePolicyFrame(frame, base, target->second);
            ASSERT_EQ(fleet::encodePolicyFrame(reference), bytes)
                << "client " << c << " epoch " << frame.epoch;
            if (frame.baseline) {
                ++baselines;
            } else {
                ++updates;
                ASSERT_GE(frame.epoch, 1u);
                if (frame.prevFingerprint != convergedAt[frame.epoch - 1]) {
                    ++anchoredElsewhere;
                }
            }
            upserts += frame.upserts.size();
            removals += frame.removed.size();
            lastSent[c] = frame.fingerprint;
        }
        for (std::vector<std::uint8_t>& bytes : frames) {
            ASSERT_EQ(channel.send(std::move(bytes)), fleet::SendResult::Ok);
        }
        const ChannelWatchdog watchdog(channel, std::chrono::seconds(10));
        while (channel.stats().depth > 0) {
            clients[c]->awaitPolicy();
        }
        EXPECT_EQ(clients[c]->policyFingerprint(), lastSent[c]);
    };

    std::vector<bool> stalled(kinds.size(), false);
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        for (std::size_t c = 0; c < kinds.size(); ++c) {
            if (kinds[c] == Kind::Lagging) {
                // Stalls for seeded stretches, neither sending nor reading
                // its queue; on return it first adopts what was queued.
                const bool stall = epoch < kEpochs && rng.nextBool(0.6);
                if (stalled[c] && !stall) {
                    ASSERT_NO_FATAL_FAILURE(deliver(c));
                }
                stalled[c] = stall;
                if (stall) {
                    continue;
                }
            }
            if (kinds[c] == Kind::Resyncing && rng.nextBool(0.5)) {
                ASSERT_EQ(aggregator->dataChannel().send(
                              fleet::encodeControlFrame(
                                  fleet::FrameType::Resync,
                                  clients[c]->clientId())),
                          fleet::SendResult::Ok);
            }
            ASSERT_EQ(clients[c]->sendEpoch(
                          seededProfile(graph, *measurements[c], rng),
                          *measurements[c], 1e8 + 1e6 * static_cast<double>(c)),
                      fleet::SendResult::Ok);
        }
        while (aggregator->epochsCompleted() <
               static_cast<std::uint64_t>(epoch)) {
            aggregator->pump();
        }
        recordConverged();
        for (std::size_t c = 0; c < kinds.size(); ++c) {
            if (!stalled[c]) {
                ASSERT_NO_FATAL_FAILURE(deliver(c));
            }
        }

        if (epoch == kRestoreAfter) {
            // Stalled clients catch up on what was queued for them (their
            // diff base stays wherever the refused frames left it), then the
            // aggregator is checkpointed, restored and reconnected.
            for (std::size_t c = 0; c < kinds.size(); ++c) {
                if (stalled[c]) {
                    ASSERT_NO_FATAL_FAILURE(deliver(c));
                    stalled[c] = false;
                }
            }
            const std::vector<std::uint8_t> snapshot = aggregator->checkpoint();
            auto restored = std::make_unique<fleet::Aggregator>(
                graph, survey, snapshot, options);
            fleet::SnapshotFrame again =
                fleet::decodeSnapshotFrame(restored->checkpoint());
            again.incarnation = fleet::decodeSnapshotFrame(snapshot).incarnation;
            EXPECT_EQ(fleet::encodeSnapshotFrame(again), snapshot);
            for (auto& client : clients) {
                EXPECT_TRUE(client->reconnect(*restored));
            }
            addStats(aggregator->stats());
            aggregator = std::move(restored);
        }
    }
    addStats(aggregator->stats());

    for (std::size_t c = 0; c < kinds.size(); ++c) {
        EXPECT_EQ(clients[c]->policyFingerprint(),
                  aggregator->convergedFingerprint())
            << "client " << c;
        EXPECT_EQ(clients[c]->stats().resyncs, 0u) << "client " << c;
    }
    // Every path was exercised: shared updates, per-client updates of
    // anchored clients, baselines, refused trySends, and policies that gain
    // and lose regions.
    EXPECT_GT(updates, 0u);
    EXPECT_GT(anchoredElsewhere, 0u);
    EXPECT_GT(baselines, 0u);
    EXPECT_GT(laggingDrops, 0u);
    EXPECT_GT(upserts, 0u);
    EXPECT_GT(removals, 0u);
    EXPECT_LT(encoded, sent);
}

// The fold's absence rule: a region without a fleet-tree node contributes
// nothing to the epoch's observations, even when a client reports
// suppressed visits for it — the model ends up exactly as if the
// suppressed entry had never been sent.
TEST(FleetAggregation, SuppressedVisitsWithoutATreeNodeContributeNothing) {
    const cg::CallGraph graph = tinyGraph();
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    auto closeOneEpoch = [&](bool reportSuppressed) {
        fleet::Aggregator aggregator(graph, survey, options);
        const fleet::Aggregator::Session session = aggregator.connect();
        fleet::DeltaFrame frame;
        frame.clientId = session.clientId;
        frame.epoch = 1;
        frame.coveredEpochs = 1;
        frame.runtimeNs = 1e9;
        frame.policyFingerprint = aggregator.convergedFingerprint();
        frame.newRegions = {{0, "kernel"}, {1, "noisy"}};
        frame.cct.baseNodeCount = 1;
        frame.cct.newNodes.push_back(scorep::CctNewNode{0, 0});
        frame.cct.changed.push_back(scorep::CctNodeChange{1, 10, 1'000'000});
        if (reportSuppressed) {
            frame.suppressed.push_back(fleet::SuppressedDelta{1, 5000});
        }
        EXPECT_EQ(aggregator.dataChannel().send(fleet::encodeDeltaFrame(frame)),
                  fleet::SendResult::Ok);
        while (aggregator.epochsCompleted() < 1) {
            EXPECT_TRUE(aggregator.pump());
        }
        // The client's own acked counters differ by construction.
        fleet::SnapshotFrame snap =
            fleet::decodeSnapshotFrame(aggregator.checkpoint());
        snap.clients.clear();
        return fleet::encodeSnapshotFrame(snap);
    };
    EXPECT_EQ(closeOneEpoch(true), closeOneEpoch(false));
}

// The encode count: a steady-state epoch over 64 in-sync clients encodes
// one update frame and sends it 64 times; the Prometheus collector exports
// the same count.
TEST(FleetBroadcast, InSyncClientsShareOneEncodedFrame) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    constexpr std::size_t kClients = 64;
    options.dataQueueCapacity = kClients + 8;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(aggregator));
    }
    auto runEpoch = [&](std::uint64_t epoch) {
        for (std::size_t i = 0; i < kClients; ++i) {
            ASSERT_EQ(clients[i]->sendEpoch(
                          flatProfile(*measurements[i], i * 7 + epoch),
                          *measurements[i], 1e9),
                      fleet::SendResult::Ok);
        }
        while (aggregator.epochsCompleted() < epoch) {
            ASSERT_TRUE(aggregator.pump());
        }
        for (auto& client : clients) {
            client->awaitPolicy();
            ASSERT_EQ(client->policyFingerprint(),
                      aggregator.convergedFingerprint());
        }
    };
    ASSERT_NO_FATAL_FAILURE(runEpoch(1));
    const fleet::AggregatorStats before = aggregator.stats();
    ASSERT_NO_FATAL_FAILURE(runEpoch(2));
    const fleet::AggregatorStats after = aggregator.stats();
    EXPECT_EQ(after.policyFramesEncoded - before.policyFramesEncoded, 1u);
    EXPECT_EQ(after.policyFramesSent - before.policyFramesSent, kClients);

    std::size_t exported = 0;
    for (const obs::Sample& sample : obs::MetricsRegistry::global().snapshot()) {
        if (sample.name.rfind("capi_fleet_policy_frames_encoded_total{", 0) ==
            0) {
            ++exported;
            EXPECT_EQ(sample.kind, obs::MetricKind::Counter);
            EXPECT_EQ(sample.value,
                      static_cast<double>(after.policyFramesEncoded));
        }
    }
    EXPECT_EQ(exported, 1u);
}

// The client's one-merge adopt equals the setRegion()-per-entry semantics
// it replaced, on seeded frames the aggregator never sends too: unsorted
// and repeated upserts, removals of absent or just-upserted names, Full
// entries carrying a sampling spec, and baselines.
TEST(FleetBroadcast, ClientMergeEqualsSetRegionPerEntry) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    fleet::FleetClient client(aggregator);
    select::InstrumentationPolicy expected = client.policy();
    support::SplitMix64 rng(0xAD0B7'3E6Eull);
    auto randomName = [&] { return "r" + std::to_string(rng.nextBelow(24)); };

    for (std::uint64_t round = 1; round <= 300; ++round) {
        fleet::PolicyFrame frame;
        frame.epoch = round;
        frame.incarnation = aggregator.incarnation();
        frame.baseline = round % 17 == 0;
        frame.prevFingerprint = expected.fingerprint();
        const std::size_t upserts = rng.nextBelow(8);
        for (std::size_t i = 0; i < upserts; ++i) {
            const bool sampled = rng.nextBool(0.5);
            frame.upserts.push_back(fleet::PolicyFrameEntry{
                randomName(),
                {sampled ? select::Tier::Sampled : select::Tier::Full,
                 {static_cast<std::uint32_t>(1 + rng.nextBelow(64)),
                  rng.nextBelow(3) * 1000}}});
        }
        const std::size_t removals = frame.baseline ? 0 : rng.nextBelow(5);
        for (std::size_t i = 0; i < removals; ++i) {
            frame.removed.push_back(i % 2 == 0 && !frame.upserts.empty()
                                        ? frame.upserts.front().name
                                        : randomName());
        }
        if (frame.baseline) {
            expected = select::InstrumentationPolicy{};
            expected.specName = "fleet";
        }
        for (const fleet::PolicyFrameEntry& entry : frame.upserts) {
            expected.setRegion(entry.name, entry.policy);
        }
        for (const std::string& name : frame.removed) {
            expected.setRegion(name, select::RegionPolicy{});
        }
        frame.fingerprint = expected.fingerprint();
        ASSERT_EQ(client.policyChannel().send(fleet::encodePolicyFrame(frame)),
                  fleet::SendResult::Ok);
        {
            const ChannelWatchdog watchdog(client.policyChannel(),
                                           std::chrono::seconds(10));
            client.awaitPolicy();
        }

        ASSERT_EQ(client.policyFingerprint(), frame.fingerprint)
            << "round " << round;
        const select::InstrumentationPolicy& actual = client.policy();
        ASSERT_EQ(actual.functions, expected.functions) << "round " << round;
        ASSERT_EQ(actual.regions.size(), expected.regions.size());
        for (std::size_t i = 0; i < actual.regions.size(); ++i) {
            EXPECT_EQ(actual.regions[i].tier, expected.regions[i].tier);
            EXPECT_EQ(actual.regions[i].sampling.everyN,
                      expected.regions[i].sampling.everyN);
            EXPECT_EQ(actual.regions[i].sampling.minIntervalNs,
                      expected.regions[i].sampling.minIntervalNs);
        }
        EXPECT_EQ(actual.specName, expected.specName);
    }
    EXPECT_EQ(client.stats().resyncs, 0u);
}

// A policy frame whose fingerprint does not verify is never committed: the
// client keeps the policy it had, so policy() and policyFingerprint() still
// agree when the aggregator goes away before the resync is answered.
TEST(FleetBroadcast, UnverifiedPolicyFrameIsNeverCommitted) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 1), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();
    const select::InstrumentationPolicy before = client.policy();
    const std::uint64_t fingerprint = client.policyFingerprint();
    ASSERT_EQ(before.fingerprint(), fingerprint);
    ASSERT_FALSE(before.functions.empty());
    auto expectUnchanged = [&] {
        EXPECT_EQ(client.policyFingerprint(), fingerprint);
        EXPECT_EQ(client.policy().fingerprint(), client.policyFingerprint());
        EXPECT_EQ(client.policy().functions, before.functions);
        EXPECT_EQ(client.policy().regions, before.regions);
    };

    // A baseline that does not reconstruct its fingerprint is fatal for the
    // client, and is not committed either.
    fleet::PolicyFrame baseline;
    baseline.epoch = 1;
    baseline.incarnation = aggregator.incarnation();
    baseline.baseline = true;
    baseline.fingerprint = fingerprint ^ 1;
    baseline.upserts.push_back(
        fleet::PolicyFrameEntry{"kernel", {select::Tier::Full, {}}});
    ASSERT_EQ(client.policyChannel().send(fleet::encodePolicyFrame(baseline)),
              fleet::SendResult::Ok);
    EXPECT_THROW(client.awaitPolicy(), fleet::WireError);
    expectUnchanged();

    // An update that chains onto the client's policy but does not arrive
    // at its advertised fingerprint; the aggregator stops before answering
    // the resync the client asks for.
    fleet::PolicyFrame update;
    update.epoch = 2;
    update.incarnation = aggregator.incarnation();
    update.prevFingerprint = fingerprint;
    update.fingerprint = fingerprint ^ 1;
    update.upserts.push_back(fleet::PolicyFrameEntry{
        "zz_new_region", {select::Tier::Sampled, {8, 0}}});
    update.removed.push_back(before.functions.front());
    ASSERT_EQ(client.policyChannel().send(fleet::encodePolicyFrame(update)),
              fleet::SendResult::Ok);
    aggregator.stop();
    client.awaitPolicy();
    EXPECT_EQ(client.stats().resyncs, 1u);
    expectUnchanged();
}

// The client keeps one name hash per policy entry and hashes only the names
// a frame carries. Seeded frames of every shape must leave it on exactly the
// policy setRegion() builds from the same changes, with policyFingerprint()
// == policy().fingerprint(): upserts (repeated names in one frame, the last
// winning), removals of present and absent names, Full <-> Sampled flips
// with differing everyN, frames the wire refuses for an Off upsert, and
// every tenth frame a wrong fingerprint. A wrong update is rolled back and
// answered with a baseline, as the aggregator answers the resync; a wrong
// baseline leaves the client as it was, and the next update must verify
// without a resync.
TEST(FleetBroadcast, CachedNameHashesTrackSeededFrames) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    fleet::FleetClient client(aggregator);
    select::InstrumentationPolicy reference = client.policy();
    ASSERT_EQ(reference.fingerprint(), client.policyFingerprint());

    std::vector<std::string> names = {"main", "kernel", "noisy"};
    for (int i = 0; i < 60; ++i) {
        names.push_back("_ZN4Foam" + std::to_string(i * 7919) + "region" +
                        std::string(static_cast<std::size_t>(i % 13), 'x'));
    }
    support::SplitMix64 rng(20261019);
    auto pick = [&] { return names[rng.nextBelow(names.size())]; };
    auto sampled = [&] {
        return select::RegionPolicy{
            select::Tier::Sampled,
            {static_cast<std::uint32_t>(2 + rng.nextBelow(63)),
             rng.nextBool(0.3) ? rng.nextBelow(1000) : 0}};
    };
    auto anyRegion = [&] {
        // A Full upsert's sampling spec means nothing and is dropped.
        return rng.nextBool(0.5)
                   ? select::RegionPolicy{select::Tier::Full,
                                          {static_cast<std::uint32_t>(
                                               1 + rng.nextBelow(4)),
                                           0}}
                   : sampled();
    };

    std::uint64_t epoch = 0;
    std::size_t repeats = 0;
    std::size_t flips = 0;
    std::size_t removals = 0;
    // A frame of random changes against `policy`, which it then applies
    // with setRegion(): every upsert in frame order, then every removal.
    auto changeFrame = [&](select::InstrumentationPolicy& policy) {
        fleet::PolicyFrame frame;
        frame.epoch = ++epoch;
        frame.incarnation = aggregator.incarnation();
        frame.prevFingerprint = policy.fingerprint();
        for (std::uint64_t n = rng.nextBelow(8); n > 0; --n) {
            std::string name = pick();
            select::RegionPolicy region = anyRegion();
            if (!policy.functions.empty() && rng.nextBool(0.4)) {
                name = policy.functions[rng.nextBelow(policy.size())];
                const bool full =
                    policy.policyOf(name)->tier == select::Tier::Full;
                region = full || rng.nextBool(0.5)
                             ? sampled()
                             : select::RegionPolicy{select::Tier::Full, {}};
                ++flips;
            }
            frame.upserts.push_back({name, region});
            if (rng.nextBool(0.2)) {
                frame.upserts.push_back({name, anyRegion()});
                ++repeats;
            }
        }
        for (std::uint64_t n = rng.nextBelow(4); n > 0; --n) {
            const bool present = !policy.functions.empty() && rng.nextBool(0.6);
            frame.removed.push_back(
                present ? policy.functions[rng.nextBelow(policy.size())]
                        : pick());
            removals += present ? 1 : 0;
        }
        for (const fleet::PolicyFrameEntry& entry : frame.upserts) {
            policy.setRegion(entry.name, entry.policy);
        }
        for (const std::string& name : frame.removed) {
            policy.setRegion(name, {select::Tier::Off, {}});
        }
        frame.fingerprint = policy.fingerprint();
        return frame;
    };
    auto baselineOf = [&](const select::InstrumentationPolicy& policy) {
        fleet::PolicyFrame header;
        header.epoch = ++epoch;
        header.incarnation = aggregator.incarnation();
        return referencePolicyFrame(header, nullptr, policy);
    };
    auto send = [&](const fleet::PolicyFrame& frame) {
        ASSERT_EQ(client.policyChannel().send(fleet::encodePolicyFrame(frame)),
                  fleet::SendResult::Ok);
    };
    // A frame that fails to verify leaves the client waiting for a
    // baseline nobody sends; the watchdog turns that into a failure.
    auto awaitPolicy = [&] {
        const ChannelWatchdog watchdog(client.policyChannel(),
                                       std::chrono::seconds(10));
        client.awaitPolicy();
    };

    constexpr int kFrames = 240;
    std::uint64_t resyncs = 0;
    std::uint64_t baselines = client.stats().baselinesReceived;
    for (int i = 0; i < kFrames; ++i) {
        select::InstrumentationPolicy next = reference;
        fleet::PolicyFrame frame = changeFrame(next);
        if (i % 10 == 9 && (i / 10) % 2 == 0) {
            frame.fingerprint ^= 1;
            send(frame);
            send(baselineOf(reference));
            awaitPolicy();
            ++resyncs;
            ++baselines;
        } else if (i % 10 == 9) {
            fleet::PolicyFrame wrong = baselineOf(next);
            wrong.fingerprint ^= 1;
            send(wrong);
            EXPECT_THROW(awaitPolicy(), fleet::WireError);
        } else {
            if (i % 7 == 3) {
                fleet::PolicyFrame refused = frame;
                refused.upserts.push_back({pick(), {select::Tier::Off, {}}});
                send(refused);
            }
            send(frame);
            awaitPolicy();
            reference = std::move(next);
        }
        EXPECT_EQ(client.stats().resyncs, resyncs) << "frame " << i;
        EXPECT_EQ(client.stats().baselinesReceived, baselines) << "frame " << i;
        EXPECT_EQ(client.policyFingerprint(), client.policy().fingerprint())
            << "frame " << i;
        EXPECT_EQ(client.policyFingerprint(), reference.fingerprint())
            << "frame " << i;
        ASSERT_EQ(client.policy().functions, reference.functions)
            << "frame " << i;
        ASSERT_EQ(client.policy().regions, reference.regions) << "frame " << i;
    }
    EXPECT_GT(repeats, 0u);
    EXPECT_GT(flips, 0u);
    EXPECT_GT(removals, 0u);
    EXPECT_EQ(resyncs, 12u);
}

// An empty update carries no change, so the client hashes none of its
// entries to apply it; it must still check the fingerprint. One that does
// not match the client's is refused: the client asks for a resync and keeps
// its policy, fingerprint and tier counts, and the baseline that answers
// the resync, then the next epoch's update, verify.
TEST(FleetBroadcast, EmptyUpdateWithWrongFingerprintIsRefused) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    auto runEpoch = [&](std::uint64_t epoch) {
        ASSERT_EQ(client.sendEpoch(flatProfile(measurement, epoch),
                                   measurement, 1e9),
                  fleet::SendResult::Ok);
        while (aggregator.epochsCompleted() < epoch) {
            ASSERT_TRUE(aggregator.pump());
        }
        const ChannelWatchdog watchdog(client.policyChannel(),
                                       std::chrono::seconds(10));
        client.awaitPolicy();
    };
    ASSERT_NO_FATAL_FAILURE(runEpoch(1));
    const select::InstrumentationPolicy before = client.policy();
    const std::uint64_t fingerprint = client.policyFingerprint();
    const adapt::EpochReport report = client.lastReport();
    ASSERT_FALSE(before.functions.empty());
    ASSERT_EQ(report.fullRegions + report.sampledRegions, before.size());

    // The channel closes behind the frame, so awaitPolicy() returns once it
    // has refused the frame and asked for the resync.
    fleet::PolicyFrame empty;
    empty.epoch = 2;
    empty.incarnation = aggregator.incarnation();
    empty.prevFingerprint = fingerprint;
    empty.fingerprint = fingerprint ^ 1;
    ASSERT_EQ(client.policyChannel().send(fleet::encodePolicyFrame(empty)),
              fleet::SendResult::Ok);
    client.policyChannel().close();
    client.awaitPolicy();
    EXPECT_EQ(client.stats().resyncs, 1u);
    EXPECT_EQ(client.policyFingerprint(), fingerprint);
    EXPECT_EQ(client.policy().functions, before.functions);
    EXPECT_EQ(client.policy().regions, before.regions);
    EXPECT_EQ(client.lastReport().fullRegions, report.fullRegions);
    EXPECT_EQ(client.lastReport().sampledRegions, report.sampledRegions);

    // A fresh policy channel; the aggregator answers the queued resync.
    ASSERT_TRUE(client.reconnect(aggregator));
    const std::uint64_t baselines = client.stats().baselinesReceived;
    aggregator.pump();
    {
        const ChannelWatchdog watchdog(client.policyChannel(),
                                       std::chrono::seconds(10));
        client.awaitPolicy();
    }
    EXPECT_EQ(client.stats().baselinesReceived, baselines + 1);
    EXPECT_EQ(client.policyFingerprint(), aggregator.convergedFingerprint());
    ASSERT_NO_FATAL_FAILURE(runEpoch(2));
    EXPECT_EQ(client.stats().resyncs, 1u);
    EXPECT_EQ(client.stats().baselinesReceived, baselines + 1);
    EXPECT_EQ(client.policyFingerprint(), aggregator.convergedFingerprint());
    EXPECT_EQ(client.policy().fingerprint(), client.policyFingerprint());
    EXPECT_EQ(client.lastReport().fullRegions,
              client.policy().countOf(select::Tier::Full));
    EXPECT_EQ(client.lastReport().sampledRegions,
              client.policy().countOf(select::Tier::Sampled));
}

// The client digests a frame from its first change on, resuming the digest
// chain it keeps per entry, and rewrites only that tail. Seeded frames whose
// first change falls at the first entry, at the last entry, past the end
// (appends only), nowhere (empty) or anywhere must each leave it on the
// policy setRegion() builds, with policyFingerprint() == policy().
// fingerprint() and the reported tier counts equal to countOf(). A wrong
// baseline now and then must leave the chain, hashes and counts as they
// were (the updates after it verify without a resync); a wrong update is
// refused and answered with a baseline, as the aggregator answers it.
TEST(FleetBroadcast, TailApplyTracksFirstChangeAnywhere) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    fleet::FleetClient client(aggregator);
    support::SplitMix64 rng(0x7A11'F1257ull);
    auto region = [&] {
        return rng.nextBool(0.5)
                   ? select::RegionPolicy{select::Tier::Full, {}}
                   : select::RegionPolicy{
                         select::Tier::Sampled,
                         {static_cast<std::uint32_t>(2 + rng.nextBelow(30)),
                          rng.nextBelow(2) * 500}};
    };
    auto flipped = [](const select::RegionPolicy& policy) {
        return policy.tier == select::Tier::Full
                   ? select::RegionPolicy{select::Tier::Sampled, {4, 0}}
                   : select::RegionPolicy{select::Tier::Full, {}};
    };
    // Names that sort between "b" and "y", so "a..." goes before every
    // entry and "z..." after.
    auto middleName = [&] {
        return "m_ZN4Foam" + std::to_string(rng.nextBelow(100000)) + "solve";
    };
    std::uint64_t epoch = 0;
    // Fixed-width serials: "a" names count down, so each new one sorts
    // first; "z" names count up, so each new one sorts last.
    std::uint64_t frontSerial = 999999;
    std::uint64_t backSerial = 100000;
    auto header = [&] {
        fleet::PolicyFrame frame;
        frame.epoch = ++epoch;
        frame.incarnation = aggregator.incarnation();
        return frame;
    };
    auto send = [&](const fleet::PolicyFrame& frame) {
        ASSERT_EQ(client.policyChannel().send(fleet::encodePolicyFrame(frame)),
                  fleet::SendResult::Ok);
    };
    auto awaitPolicy = [&] {
        const ChannelWatchdog watchdog(client.policyChannel(),
                                       std::chrono::seconds(10));
        client.awaitPolicy();
    };

    select::InstrumentationPolicy reference;
    reference.specName = "fleet";
    while (reference.size() < 48) {
        reference.setRegion(middleName(), region());
    }
    fleet::PolicyFrame start = referencePolicyFrame(header(), nullptr, reference);
    send(start);
    awaitPolicy();
    ASSERT_EQ(client.policyFingerprint(), reference.fingerprint());

    enum Shape { kFirst, kLast, kAppend, kEmpty, kAnywhere, kShapes };
    std::size_t shapes[kShapes] = {};
    std::uint64_t resyncs = 0;
    std::uint64_t wrongBaselines = 0;
    for (int i = 0; i < 300; ++i) {
        select::InstrumentationPolicy next = reference;
        fleet::PolicyFrame frame = header();
        frame.prevFingerprint = reference.fingerprint();
        const auto shape = static_cast<Shape>(i % kShapes);
        auto upsert = [&](const std::string& name,
                          const select::RegionPolicy& policy) {
            frame.upserts.push_back({name, policy});
        };
        switch (shape) {
            case kFirst:
                // Retier, remove or insert before the first entry.
                if (rng.nextBool(1.0 / 3)) {
                    upsert(reference.functions.front(),
                           flipped(reference.regions.front()));
                } else if (rng.nextBool(0.5) && reference.size() > 8) {
                    frame.removed.push_back(reference.functions.front());
                } else {
                    upsert("a" + std::to_string(frontSerial--), region());
                }
                break;
            case kLast:
                if (rng.nextBool(0.5) && reference.size() > 8) {
                    frame.removed.push_back(reference.functions.back());
                } else {
                    upsert(reference.functions.back(),
                           flipped(reference.regions.back()));
                }
                break;
            case kAppend:
                for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
                    upsert("z" + std::to_string(backSerial++), region());
                }
                break;
            case kEmpty:
                break;
            case kAnywhere:
                for (std::uint64_t n = rng.nextBelow(6); n > 0; --n) {
                    upsert(rng.nextBool(0.5)
                               ? reference.functions[rng.nextBelow(
                                     reference.size())]
                               : middleName(),
                           region());
                }
                for (std::uint64_t n = rng.nextBelow(4);
                     n > 0 && reference.size() > 8; --n) {
                    frame.removed.push_back(
                        reference.functions[rng.nextBelow(reference.size())]);
                }
                break;
            case kShapes:
                break;
        }
        for (const fleet::PolicyFrameEntry& entry : frame.upserts) {
            next.setRegion(entry.name, entry.policy);
        }
        for (const std::string& name : frame.removed) {
            next.setRegion(name, {});
        }
        frame.fingerprint = next.fingerprint();
        // The frame's first change, as the shape intends it.
        const auto firstDiff = static_cast<std::size_t>(
            std::mismatch(reference.functions.begin(),
                          reference.functions.end(), next.functions.begin(),
                          next.functions.end())
                .first -
            reference.functions.begin());
        switch (shape) {
            case kFirst:
                EXPECT_TRUE(firstDiff == 0 ||
                            next.regions[0] != reference.regions[0]);
                break;
            case kLast:
                EXPECT_GE(firstDiff, reference.size() - 1);
                break;
            case kAppend:
            case kEmpty:
                EXPECT_EQ(firstDiff, reference.size());
                break;
            default:
                break;
        }
        ++shapes[shape];

        if (i % 23 == 11) {
            // A baseline of the next policy, one bit off: refused, and the
            // client runs on as it was.
            fleet::PolicyFrame wrong = referencePolicyFrame(header(), nullptr, next);
            wrong.fingerprint ^= 1;
            send(wrong);
            EXPECT_THROW(awaitPolicy(), fleet::WireError);
            ++wrongBaselines;
        } else if (i % 23 == 17) {
            frame.fingerprint ^= 1;
            send(frame);
            send(referencePolicyFrame(header(), nullptr, reference));
            awaitPolicy();
            ++resyncs;
        } else {
            send(frame);
            awaitPolicy();
            reference = std::move(next);
        }
        EXPECT_EQ(client.stats().resyncs, resyncs) << "frame " << i;
        EXPECT_EQ(client.policyFingerprint(), client.policy().fingerprint())
            << "frame " << i;
        EXPECT_EQ(client.policyFingerprint(), reference.fingerprint())
            << "frame " << i;
        ASSERT_EQ(client.policy().functions, reference.functions)
            << "frame " << i;
        ASSERT_EQ(client.policy().regions, reference.regions) << "frame " << i;
        EXPECT_EQ(client.lastReport().fullRegions,
                  reference.countOf(select::Tier::Full))
            << "frame " << i;
        EXPECT_EQ(client.lastReport().sampledRegions,
                  reference.countOf(select::Tier::Sampled))
            << "frame " << i;
    }
    for (std::size_t shape = 0; shape < kShapes; ++shape) {
        EXPECT_GE(shapes[shape], 50u) << "shape " << shape;
    }
    EXPECT_GT(wrongBaselines, 0u);
    EXPECT_GT(resyncs, 0u);
}

// ----------------------------------------------------- liveness tests --

// The liveness property: a dead client delays each epoch by at most the
// policy timeout, is marked Lagging, is evicted after graceEpochs misses
// (with exact accounting), and re-admits itself with ONE coalesced delta —
// no resync, no baseline replay, no lost or double-counted epochs.
TEST(FleetLiveness, TimeoutClosesEvictsAndResumesExactly) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    options.epochPolicy.timeoutNs = 2'000'000;  // 2ms
    options.epochPolicy.quorum = 1;
    options.epochPolicy.graceEpochs = 2;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);

    constexpr std::size_t kClients = 3;
    std::vector<std::unique_ptr<scorep::Measurement>> measurements;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        measurements.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(aggregator));
    }

    TotalsByName expectedTotals;
    auto submit = [&](std::size_t i, std::uint64_t salt) {
        scorep::ProfileTree profile = flatProfile(*measurements[i], salt);
        for (const auto& [handle, totals] : profile.regionTotals()) {
            auto& t = expectedTotals[measurements[i]->region(handle).name];
            t.visits += totals.visits;
            t.exclusiveNs += totals.exclusiveNs;
        }
        ASSERT_EQ(clients[i]->sendEpoch(profile, *measurements[i], 1e9),
                  fleet::SendResult::Ok);
    };
    auto pumpUntil = [&](std::uint64_t epoch) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (aggregator.epochsCompleted() < epoch) {
            aggregator.pump();
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "epoch " << epoch << " never closed";
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    };

    // Epochs 1-3: client 2 is silent. 1 and 2 close on timeout (client 2
    // missed -> Lagging -> evicted at the grace limit); 3 closes strictly
    // because the evicted client no longer gates completeness.
    for (int epoch = 1; epoch <= 3; ++epoch) {
        submit(0, static_cast<std::uint64_t>(epoch));
        submit(1, 100 + static_cast<std::uint64_t>(epoch));
        pumpUntil(static_cast<std::uint64_t>(epoch));
        clients[0]->awaitPolicy();
        clients[1]->awaitPolicy();
    }
    {
        const fleet::AggregatorStats stats = aggregator.stats();
        EXPECT_EQ(stats.timeoutEpochs, 2u);
        EXPECT_EQ(stats.missedFrames, 2u);
        EXPECT_EQ(stats.evictions, 1u);
        EXPECT_EQ(stats.resumes, 0u);
        EXPECT_EQ(stats.laggingPolicyDrops, 0u);
    }

    // The returning client's next delta re-admits it: the aggregator kept
    // its watermark, so the frame coalesces epochs 1-4 in one send and
    // epoch 4 closes strictly with all three clients.
    submit(2, 7);
    submit(0, 4);
    submit(1, 104);
    while (aggregator.epochsCompleted() < 4) {
        ASSERT_TRUE(aggregator.pump());
    }
    {
        const fleet::AggregatorStats stats = aggregator.stats();
        EXPECT_EQ(stats.resumes, 1u);
        EXPECT_EQ(stats.evictions, 1u);  // unchanged: no second eviction
        EXPECT_EQ(stats.timeoutEpochs, 2u);
        EXPECT_EQ(stats.resyncs, 0u);
        EXPECT_EQ(stats.decodeErrors, 0u);
    }
    clients[0]->awaitPolicy();
    clients[1]->awaitPolicy();
    // Client 2 drains the policy frames queued while it was away (epochs 1
    // and 2 rode its queue as Lagging broadcasts; 3 was skipped while
    // evicted) and lands converged on the epoch-4 policy.
    int drained = 0;
    while (clients[2]->policyFingerprint() != aggregator.convergedFingerprint()) {
        ASSERT_LT(drained++, 8) << "client 2 never caught up";
        clients[2]->awaitPolicy();
    }
    expectSameTotalsByName(expectedTotals, aggregator.totalsByName());
}

TEST(FleetAggregation, ServeExitAccountsForAbandonedClients) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    std::thread server([&aggregator] { aggregator.serve(); });
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 1), measurement, 1e9),
              fleet::SendResult::Ok);
    client.awaitPolicy();
    aggregator.stop();
    server.join();
    // The client never said Bye: serve()'s exit accounting must charge it
    // as abandoned instead of exiting silently.
    EXPECT_EQ(aggregator.stats().abandonedClients, 1u);
    EXPECT_EQ(aggregator.epochsCompleted(), 1u);
}

// ----------------------------------------------- fault-injection tests --

class FleetFaultTest : public ::testing::Test {
protected:
    void TearDown() override { fault::disarmAll(); }
};

// An injected death fires BEFORE the epoch merges into the cumulative tree,
// so reconnect + re-drive lands the epoch exactly once.
TEST_F(FleetFaultTest, ClientDeathReconnectCountsEpochExactlyOnce) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);

    TotalsByName expectedTotals;
    auto record = [&](const scorep::ProfileTree& profile) {
        for (const auto& [handle, totals] : profile.regionTotals()) {
            auto& t = expectedTotals[measurement.region(handle).name];
            t.visits += totals.visits;
            t.exclusiveNs += totals.exclusiveNs;
        }
    };

    scorep::ProfileTree first = flatProfile(measurement, 1);
    record(first);
    ASSERT_EQ(client.sendEpoch(first, measurement, 1e9), fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();

    {
        fault::ScopedFaultInjection inject(0xD0A7 ^ envFaultSeed());
        inject.arm(fault::sites::kFleetClientDeath,
                   {.probability = 1.0, .maxFires = 1});
        scorep::ProfileTree second = flatProfile(measurement, 2);
        record(second);
        EXPECT_THROW(client.sendEpoch(second, measurement, 1e9),
                     fleet::ClientDeadError);
        EXPECT_TRUE(client.reconnect(aggregator));
        ASSERT_EQ(client.sendEpoch(second, measurement, 1e9),
                  fleet::SendResult::Ok);
    }
    while (aggregator.epochsCompleted() < 2) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();

    EXPECT_EQ(client.stats().reconnects, 1u);
    EXPECT_EQ(client.stats().sessionResumes, 1u);
    EXPECT_EQ(client.stats().fullResyncs, 0u);
    EXPECT_EQ(aggregator.stats().sessionResumes, 1u);
    EXPECT_EQ(fault::stats(fault::sites::kFleetClientDeath).fires, 1u);
    expectSameTotalsByName(expectedTotals, aggregator.totalsByName());
}

// A dropped resume handshake is retried under backoff until it lands; the
// resumed stream stays exact.
TEST_F(FleetFaultTest, ResumeHandshakeDropRetriesUnderBackoff) {
    const cg::CallGraph graph = tinyGraph();
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    fleet::Aggregator aggregator(graph, adapt::surveyOfDefinedFunctions(graph),
                                 options);
    scorep::Measurement measurement;
    fleet::FleetClient client(aggregator);
    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 1), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 1) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();

    {
        fault::ScopedFaultInjection inject(0xBACC ^ envFaultSeed());
        inject.arm(fault::sites::kFleetFrameDrop,
                   {.probability = 1.0, .maxFires = 2});
        EXPECT_TRUE(client.reconnect(aggregator));  // third attempt lands
    }
    EXPECT_EQ(fault::stats(fault::sites::kFleetFrameDrop).fires, 2u);
    EXPECT_EQ(client.stats().sessionResumes, 1u);
    EXPECT_EQ(client.stats().fullResyncs, 0u);

    ASSERT_EQ(client.sendEpoch(flatProfile(measurement, 2), measurement, 1e9),
              fleet::SendResult::Ok);
    while (aggregator.epochsCompleted() < 2) {
        ASSERT_TRUE(aggregator.pump());
    }
    client.awaitPolicy();
    EXPECT_EQ(client.policyFingerprint(), aggregator.convergedFingerprint());
    EXPECT_EQ(aggregator.stats().framesMerged, 2u);
}

// When every resume attempt fails (the replacement aggregator holds none of
// this client's state), reconnect falls back to registering fresh and the
// first delta replays the client's FULL history — totals stay exact.
TEST_F(FleetFaultTest, FullResyncFallbackReplaysWholeHistoryExactly) {
    const cg::CallGraph graph = tinyGraph();
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    scorep::Measurement measurement;
    TotalsByName expectedTotals;
    auto record = [&](const scorep::ProfileTree& profile) {
        for (const auto& [handle, totals] : profile.regionTotals()) {
            auto& t = expectedTotals[measurement.region(handle).name];
            t.visits += totals.visits;
            t.exclusiveNs += totals.exclusiveNs;
        }
    };

    // Declared before the client so it outlives the client's Bye/disconnect.
    fleet::Aggregator fresh(graph, survey, options);
    auto lost = std::make_unique<fleet::Aggregator>(graph, survey, options);
    fleet::FleetClient client(*lost);
    for (int epoch = 1; epoch <= 2; ++epoch) {
        scorep::ProfileTree profile =
            flatProfile(measurement, static_cast<std::uint64_t>(epoch));
        record(profile);
        ASSERT_EQ(client.sendEpoch(profile, measurement, 1e9),
                  fleet::SendResult::Ok);
        while (lost->epochsCompleted() < static_cast<std::uint64_t>(epoch)) {
            ASSERT_TRUE(lost->pump());
        }
        client.awaitPolicy();
    }

    // The aggregator is replaced by the FRESH instance (its snapshot was
    // lost); the session is unknown there, so every resume attempt fails.
    lost.reset();
    EXPECT_FALSE(client.reconnect(fresh));
    EXPECT_EQ(client.stats().fullResyncs, 1u);
    EXPECT_EQ(client.stats().sessionResumes, 0u);

    scorep::ProfileTree profile = flatProfile(measurement, 3);
    record(profile);
    ASSERT_EQ(client.sendEpoch(profile, measurement, 1e9),
              fleet::SendResult::Ok);
    while (fresh.epochsCompleted() < 1) {
        ASSERT_TRUE(fresh.pump());
    }
    client.awaitPolicy();
    EXPECT_EQ(client.policyFingerprint(), fresh.convergedFingerprint());
    expectSameTotalsByName(expectedTotals, fresh.totalsByName());
}

// The headline robustness property: a fleet under a seeded fault storm —
// client stalls, frame drops, client deaths with reconnects, and one
// aggregator crash recovered via checkpoint/restore — converges to the SAME
// policy fingerprint and the SAME fleet totals as a fault-free twin fed the
// identical per-client streams. Per-epoch internals legitimately differ
// (the overhead model is an EWMA over whatever epoch segmentation faults
// produce), so the property compares the converged fixed point.
TEST_F(FleetFaultTest, FaultStormConvergesToFaultFreeTwin) {
    const cg::CallGraph graph = tinyGraph();
    const select::InstrumentationConfig survey =
        adapt::surveyOfDefinedFunctions(graph);
    fleet::AggregatorOptions options;
    options.config.perEventCostNs = 100.0;
    options.policyQueueCapacity = 64;  // queue whole storm backlogs
    options.epochPolicy.timeoutNs = 2'000'000;
    options.epochPolicy.quorum = 1;
    options.epochPolicy.graceEpochs = 2;

    constexpr std::size_t kClients = 4;
    constexpr int kStormRounds = 5;
    constexpr int kCleanRounds = 3;
    constexpr std::uint64_t kCrashAtClose = 4;
    auto saltOf = [](std::size_t i, int round) {
        return i * 977 + static_cast<std::uint64_t>(round) * 131;
    };
    auto runtimeOf = [](std::size_t i, int round) {
        return 1e9 * static_cast<double>(i + 1) + 1e6 * round;
    };

    // --- fault-free reference twin, same streams, strict epochs ----------
    fleet::Aggregator cleanAgg(graph, survey, options);
    {
        std::vector<std::unique_ptr<scorep::Measurement>> ms;
        std::vector<std::unique_ptr<fleet::FleetClient>> cs;
        for (std::size_t i = 0; i < kClients; ++i) {
            ms.push_back(std::make_unique<scorep::Measurement>());
            cs.push_back(std::make_unique<fleet::FleetClient>(cleanAgg));
        }
        for (int round = 1; round <= kStormRounds + kCleanRounds; ++round) {
            for (std::size_t i = 0; i < kClients; ++i) {
                ASSERT_EQ(cs[i]->sendEpoch(flatProfile(*ms[i], saltOf(i, round)),
                                           *ms[i], runtimeOf(i, round)),
                          fleet::SendResult::Ok);
            }
            while (cleanAgg.epochsCompleted() <
                   static_cast<std::uint64_t>(round)) {
                ASSERT_TRUE(cleanAgg.pump());
            }
            for (auto& c : cs) {
                c->awaitPolicy();
            }
        }
        EXPECT_EQ(cleanAgg.stats().timeoutEpochs, 0u);  // never closed early
    }

    // --- storm twin ------------------------------------------------------
    auto agg = std::make_unique<fleet::Aggregator>(graph, survey, options);
    std::vector<std::unique_ptr<scorep::Measurement>> ms;
    std::vector<std::unique_ptr<fleet::FleetClient>> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        ms.push_back(std::make_unique<scorep::Measurement>());
        clients.push_back(std::make_unique<fleet::FleetClient>(*agg));
    }
    std::vector<std::uint8_t> lastCheckpoint = agg->checkpoint();
    std::uint64_t deaths = 0;
    bool crashed = false;
    {
        fault::ScopedFaultInjection storm(0x57A6 ^ envFaultSeed());
        storm.arm(fault::sites::kFleetClientStall, {.probability = 0.2});
        storm.arm(fault::sites::kFleetFrameDrop, {.probability = 0.15});
        storm.arm(fault::sites::kFleetClientDeath, {.probability = 0.15});
        // Deterministic crash: fire on the (kCrashAtClose)-th epoch close.
        storm.arm(fault::sites::kFleetAggregatorCrash,
                  {.probability = 1.0, .afterHits = kCrashAtClose - 1,
                   .maxFires = 1});

        for (int round = 1; round <= kStormRounds; ++round) {
            bool anyPending = false;
            for (std::size_t i = 0; i < kClients; ++i) {
                scorep::ProfileTree profile =
                    flatProfile(*ms[i], saltOf(i, round));
                const double runtime = runtimeOf(i, round);
                fleet::SendResult sent;
                try {
                    sent = clients[i]->sendEpoch(profile, *ms[i], runtime);
                } catch (const fleet::ClientDeadError&) {
                    ++deaths;
                    // Recovery re-drives the SAME epoch; recovery paths do
                    // not re-fault (the process that just died is gone).
                    fault::SuppressFaults calm;
                    ASSERT_TRUE(clients[i]->reconnect(*agg));
                    sent = clients[i]->sendEpoch(profile, *ms[i], runtime);
                }
                // Backpressure here is an injected stall/drop: the epoch
                // coalesces into the client's next frame.
                anyPending = anyPending || sent == fleet::SendResult::Ok;
            }
            if (!anyPending) {
                continue;  // everyone stalled: nothing can close this round
            }
            const std::uint64_t target = agg->epochsCompleted() + 1;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (agg->epochsCompleted() < target) {
                try {
                    agg->pump();
                } catch (const fleet::AggregatorCrashError&) {
                    crashed = true;
                    // The server died mid-close: every in-memory structure
                    // (including this round's ingested frames) is gone.
                    // Rebuild from the last good checkpoint; the clients'
                    // session rewind re-ships everything unacknowledged.
                    fault::SuppressFaults calm;
                    auto revived = std::make_unique<fleet::Aggregator>(
                        graph, survey, lastCheckpoint, options);
                    for (auto& client : clients) {
                        ASSERT_TRUE(client->reconnect(*revived));
                    }
                    agg = std::move(revived);
                    break;
                }
                ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                    << "storm round " << round << " never closed";
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            if (agg->epochsCompleted() >= target) {
                lastCheckpoint = agg->checkpoint();
            }
            // No awaitPolicy during the storm: clients catch up from their
            // queued policy frames once the weather clears.
        }
    }
    EXPECT_TRUE(crashed);

    // Clean tail: faults disarmed, every client ships (coalescing whatever
    // the storm left pending) until the fleet reaches a quiet fixed point.
    for (int round = kStormRounds + 1; round <= kStormRounds + kCleanRounds;
         ++round) {
        for (std::size_t i = 0; i < kClients; ++i) {
            ASSERT_EQ(clients[i]->sendEpoch(flatProfile(*ms[i], saltOf(i, round)),
                                            *ms[i], runtimeOf(i, round)),
                      fleet::SendResult::Ok);
        }
        const std::uint64_t target = agg->epochsCompleted() + 1;
        while (agg->epochsCompleted() < target) {
            ASSERT_TRUE(agg->pump());
        }
    }
    for (auto& client : clients) {
        int drained = 0;
        while (client->policyFingerprint() != agg->convergedFingerprint()) {
            ASSERT_LT(drained++, 64) << "client never converged post-storm";
            client->awaitPolicy();
        }
    }

    // The headline: same fixed point as the fault-free twin.
    EXPECT_EQ(agg->convergedFingerprint(), cleanAgg.convergedFingerprint());
    expectSameTotalsByName(cleanAgg.totalsByName(), agg->totalsByName());
    EXPECT_EQ(agg->stats().decodeErrors, 0u);

    // The storm actually stormed (schedules are deterministic per seed).
    std::uint64_t stalls = 0;
    std::uint64_t drops = 0;
    for (const auto& client : clients) {
        stalls += client->stats().stallsInjected;
        drops += client->stats().dropsInjected;
    }
    EXPECT_GT(stalls + drops + deaths, 0u);
    EXPECT_EQ(agg->incarnation(), 2u);  // exactly one crash+restore
}

}  // namespace

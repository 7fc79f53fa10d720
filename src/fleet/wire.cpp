#include "fleet/wire.hpp"

#include <bit>
#include <cstring>
#include <string_view>

#include "support/hash.hpp"

namespace capi::fleet {

namespace {

constexpr std::size_t kHeaderBytes = 4 /*magic*/ + 1 /*type*/;
constexpr std::size_t kChecksumBytes = 8;

class Writer {
public:
    void u8(std::uint8_t value) { buf_.push_back(value); }

    void varint(std::uint64_t value) {
        while (value >= 0x80) {
            buf_.push_back(static_cast<std::uint8_t>(value) | 0x80u);
            value >>= 7;
        }
        buf_.push_back(static_cast<std::uint8_t>(value));
    }

    void fixed64(std::uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            buf_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
        }
    }

    void f64(double value) { fixed64(std::bit_cast<std::uint64_t>(value)); }

    void str(const std::string& text) {
        varint(text.size());
        buf_.insert(buf_.end(), text.begin(), text.end());
    }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

class Reader {
public:
    Reader(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size) {}

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

    std::uint8_t u8() {
        need(1, "byte");
        return data_[pos_++];
    }

    std::uint64_t varint() {
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            need(1, "varint");
            const std::uint8_t byte = data_[pos_++];
            value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0) {
                // Reject non-canonical overlong tails that would shift past
                // bit 63 (two encodings of one value breaks byte determinism).
                if (shift == 63 && (byte & 0x7E) != 0) {
                    throw WireError("varint overflows 64 bits");
                }
                return value;
            }
        }
        throw WireError("varint longer than 10 bytes");
    }

    std::uint32_t varint32(const char* what) {
        const std::uint64_t value = varint();
        if (value > 0xFFFFFFFFull) {
            throw WireError(std::string(what) + " exceeds 32 bits");
        }
        return static_cast<std::uint32_t>(value);
    }

    std::uint64_t fixed64() {
        need(8, "fixed64");
        std::uint64_t value = 0;
        for (int i = 0; i < 8; ++i) {
            value |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        }
        pos_ += 8;
        return value;
    }

    double f64() { return std::bit_cast<double>(fixed64()); }

    std::string str() {
        const std::uint64_t len = varint();
        need(len, "string body");
        std::string text(reinterpret_cast<const char*>(data_ + pos_),
                         static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return text;
    }

    /// Guards list reads: every element consumes at least `minBytes`, so a
    /// corrupted count larger than the bytes left is rejected before any
    /// allocation scales with it. Divides rather than multiplies: a huge
    /// count must not wrap the product back under the limit.
    std::size_t listCount(std::size_t minBytes, const char* what) {
        const std::uint64_t count = varint();
        if (count > remaining() / minBytes) {
            throw WireError(std::string(what) + " count exceeds frame size");
        }
        return static_cast<std::size_t>(count);
    }

private:
    void need(std::uint64_t bytes, const char* what) {
        if (bytes > remaining()) {
            throw WireError(std::string("truncated frame: ") + what);
        }
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

std::uint64_t payloadChecksum(const std::vector<std::uint8_t>& payload) {
    return support::fnv1a(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
}

std::vector<std::uint8_t> seal(FrameType type,
                               std::vector<std::uint8_t> payload) {
    std::vector<std::uint8_t> frame;
    frame.reserve(kHeaderBytes + payload.size() + 10 + kChecksumBytes);
    for (int i = 0; i < 4; ++i) {
        frame.push_back(static_cast<std::uint8_t>(kWireMagic >> (8 * i)));
    }
    frame.push_back(static_cast<std::uint8_t>(type));
    std::uint64_t len = payload.size();
    while (len >= 0x80) {
        frame.push_back(static_cast<std::uint8_t>(len) | 0x80u);
        len >>= 7;
    }
    frame.push_back(static_cast<std::uint8_t>(len));
    frame.insert(frame.end(), payload.begin(), payload.end());
    const std::uint64_t checksum = payloadChecksum(payload);
    for (int i = 0; i < 8; ++i) {
        frame.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
    }
    return frame;
}

/// Validates magic / type / length / checksum and returns a Reader over the
/// payload plus the frame type.
FrameType openFrame(const std::vector<std::uint8_t>& bytes, Reader& payload) {
    Reader header(bytes.data(), bytes.size());
    if (header.remaining() < kHeaderBytes + 1 + kChecksumBytes) {
        throw WireError("frame shorter than header");
    }
    std::uint32_t magic = 0;
    for (int i = 0; i < 4; ++i) {
        magic |= static_cast<std::uint32_t>(header.u8()) << (8 * i);
    }
    if (magic != kWireMagic) {
        throw WireError("bad magic");
    }
    const std::uint8_t rawType = header.u8();
    if (rawType < static_cast<std::uint8_t>(FrameType::Delta) ||
        rawType > static_cast<std::uint8_t>(FrameType::Snapshot)) {
        throw WireError("unknown frame type");
    }
    const std::uint64_t len = header.varint();
    if (len + kChecksumBytes != header.remaining()) {
        throw WireError("payload length disagrees with frame size");
    }
    const std::size_t payloadStart = bytes.size() - kChecksumBytes -
                                     static_cast<std::size_t>(len);
    std::uint64_t storedChecksum = 0;
    for (int i = 0; i < 8; ++i) {
        storedChecksum |= static_cast<std::uint64_t>(
                              bytes[bytes.size() - kChecksumBytes + i])
                          << (8 * i);
    }
    const std::uint64_t actual = support::fnv1a(std::string_view(
        reinterpret_cast<const char*>(bytes.data() + payloadStart),
        static_cast<std::size_t>(len)));
    if (actual != storedChecksum) {
        throw WireError("checksum mismatch");
    }
    payload = Reader(bytes.data() + payloadStart, static_cast<std::size_t>(len));
    return static_cast<FrameType>(rawType);
}

void expectType(FrameType actual, FrameType expected) {
    if (actual != expected) {
        throw WireError("unexpected frame type");
    }
}

void encodeRegionPolicy(Writer& out, const select::RegionPolicy& policy) {
    out.u8(static_cast<std::uint8_t>(policy.tier));
    out.varint(policy.sampling.everyN);
    out.varint(policy.sampling.minIntervalNs);
}

select::RegionPolicy decodeRegionPolicy(Reader& in) {
    select::RegionPolicy policy;
    const std::uint8_t tier = in.u8();
    if (tier > static_cast<std::uint8_t>(select::Tier::Full)) {
        throw WireError("invalid tier");
    }
    policy.tier = static_cast<select::Tier>(tier);
    policy.sampling.everyN = in.varint32("sampling everyN");
    policy.sampling.minIntervalNs = in.varint();
    return policy;
}

}  // namespace

std::vector<std::uint8_t> encodeDeltaFrame(const DeltaFrame& frame) {
    Writer out;
    out.varint(frame.clientId);
    out.varint(frame.epoch);
    out.varint(frame.coveredEpochs);
    out.f64(frame.runtimeNs);
    out.fixed64(frame.policyFingerprint);

    out.varint(frame.newRegions.size());
    for (const RegionDef& def : frame.newRegions) {
        out.varint(def.handle);
        out.str(def.name);
    }

    out.varint(frame.cct.baseNodeCount);
    out.varint(frame.cct.newNodes.size());
    for (const scorep::CctNewNode& node : frame.cct.newNodes) {
        out.varint(node.parent);
        out.varint(node.region);
    }
    // Changed ids ascend (extraction order), so gap-encode them.
    out.varint(frame.cct.changed.size());
    std::uint64_t lastId = 0;
    for (const scorep::CctNodeChange& change : frame.cct.changed) {
        out.varint(change.node - lastId);
        lastId = change.node;
        out.varint(change.visitsDelta);
        out.varint(change.inclusiveNsDelta);
    }

    out.varint(frame.suppressed.size());
    for (const SuppressedDelta& entry : frame.suppressed) {
        out.varint(entry.region);
        out.varint(entry.visits);
    }
    return seal(FrameType::Delta, out.take());
}

DeltaFrame decodeDeltaFrame(const std::vector<std::uint8_t>& bytes) {
    Reader in(nullptr, 0);
    expectType(openFrame(bytes, in), FrameType::Delta);

    DeltaFrame frame;
    frame.clientId = in.varint();
    frame.epoch = in.varint();
    frame.coveredEpochs = in.varint();
    if (frame.coveredEpochs == 0) {
        throw WireError("delta frame covers zero epochs");
    }
    frame.runtimeNs = in.f64();
    frame.policyFingerprint = in.fixed64();

    const std::size_t regionCount = in.listCount(2, "region def");
    for (std::size_t i = 0; i < regionCount; ++i) {
        RegionDef def;
        def.handle = in.varint32("region handle");
        def.name = in.str();
        frame.newRegions.push_back(std::move(def));
    }

    frame.cct.baseNodeCount = in.varint();
    const std::size_t newNodes = in.listCount(2, "new node");
    for (std::size_t i = 0; i < newNodes; ++i) {
        scorep::CctNewNode node;
        node.parent = in.varint32("new node parent");
        node.region = in.varint32("new node region");
        // A new node's parent must precede it: old, or earlier in this list.
        if (node.parent >= frame.cct.baseNodeCount + i) {
            throw WireError("new node parent not before node");
        }
        frame.cct.newNodes.push_back(node);
    }
    const std::size_t changed = in.listCount(3, "changed node");
    std::uint64_t lastId = 0;
    for (std::size_t i = 0; i < changed; ++i) {
        scorep::CctNodeChange change;
        const std::uint64_t id = lastId + in.varint();
        const std::uint64_t maxId =
            frame.cct.baseNodeCount + frame.cct.newNodes.size();
        if (id >= maxId || (i > 0 && id <= lastId)) {
            throw WireError("changed node id out of range");
        }
        lastId = id;
        change.node = static_cast<std::uint32_t>(id);
        change.visitsDelta = in.varint();
        change.inclusiveNsDelta = in.varint();
        frame.cct.changed.push_back(change);
    }

    const std::size_t suppressed = in.listCount(2, "suppressed entry");
    for (std::size_t i = 0; i < suppressed; ++i) {
        SuppressedDelta entry;
        entry.region = in.varint32("suppressed region");
        entry.visits = in.varint();
        frame.suppressed.push_back(entry);
    }
    if (!in.done()) {
        throw WireError("trailing bytes after delta payload");
    }
    return frame;
}

std::vector<std::uint8_t> encodePolicyFrame(const PolicyFrame& frame) {
    Writer out;
    out.varint(frame.epoch);
    out.varint(frame.incarnation);
    out.u8(frame.baseline ? 1 : 0);
    out.fixed64(frame.prevFingerprint);
    out.fixed64(frame.fingerprint);
    out.f64(frame.measuredOverheadRatio);
    out.f64(frame.budgetNs);
    out.u8(frame.withinBudget ? 1 : 0);
    out.varint(frame.upserts.size());
    for (const PolicyFrameEntry& entry : frame.upserts) {
        out.str(entry.name);
        encodeRegionPolicy(out, entry.policy);
    }
    out.varint(frame.removed.size());
    for (const std::string& name : frame.removed) {
        out.str(name);
    }
    return seal(frame.baseline ? FrameType::PolicyBaseline
                               : FrameType::PolicyUpdate,
                out.take());
}

PolicyFrame decodePolicyFrame(const std::vector<std::uint8_t>& bytes) {
    Reader in(nullptr, 0);
    const FrameType type = openFrame(bytes, in);
    if (type != FrameType::PolicyBaseline && type != FrameType::PolicyUpdate) {
        throw WireError("unexpected frame type");
    }

    PolicyFrame frame;
    frame.epoch = in.varint();
    frame.incarnation = in.varint();
    if (frame.incarnation == 0) {
        throw WireError("zero incarnation");
    }
    frame.baseline = in.u8() != 0;
    if (frame.baseline != (type == FrameType::PolicyBaseline)) {
        throw WireError("baseline flag disagrees with frame type");
    }
    frame.prevFingerprint = in.fixed64();
    frame.fingerprint = in.fixed64();
    frame.measuredOverheadRatio = in.f64();
    frame.budgetNs = in.f64();
    frame.withinBudget = in.u8() != 0;
    const std::size_t upserts = in.listCount(4, "policy upsert");
    for (std::size_t i = 0; i < upserts; ++i) {
        PolicyFrameEntry entry;
        entry.name = in.str();
        entry.policy = decodeRegionPolicy(in);
        if (entry.policy.tier == select::Tier::Off) {
            throw WireError("upsert with Off tier");
        }
        frame.upserts.push_back(std::move(entry));
    }
    const std::size_t removed = in.listCount(1, "policy removal");
    for (std::size_t i = 0; i < removed; ++i) {
        frame.removed.push_back(in.str());
    }
    if (frame.baseline && !frame.removed.empty()) {
        throw WireError("baseline frame with removals");
    }
    if (!in.done()) {
        throw WireError("trailing bytes after policy payload");
    }
    return frame;
}

std::vector<std::uint8_t> encodeControlFrame(FrameType type,
                                             std::uint64_t clientId) {
    Writer out;
    out.varint(clientId);
    return seal(type, out.take());
}

namespace {

constexpr std::uint64_t kSnapshotVersion = 1;

/// Full-policy codec used only inside snapshots (policy frames on the wire
/// stay diff-shaped). Carries everything fingerprint() hashes — entries AND
/// static IDs — so a restored lastSentPolicy reproduces the client's chain.
void encodeFullPolicy(Writer& out, const select::InstrumentationPolicy& p) {
    out.varint(p.functions.size());
    for (std::size_t i = 0; i < p.functions.size(); ++i) {
        out.str(p.functions[i]);
        encodeRegionPolicy(out, p.regions[i]);
    }
    out.varint(p.staticIds.size());
    for (const auto& [name, id] : p.staticIds) {
        out.str(name);
        out.varint(id);
    }
    out.str(p.specName);
    out.str(p.application);
}

select::InstrumentationPolicy decodeFullPolicy(Reader& in) {
    select::InstrumentationPolicy p;
    const std::size_t entries = in.listCount(4, "policy entry");
    std::string lastName;
    for (std::size_t i = 0; i < entries; ++i) {
        std::string name = in.str();
        if (i > 0 && name <= lastName) {
            throw WireError("policy entries not strictly sorted");
        }
        select::RegionPolicy policy = decodeRegionPolicy(in);
        if (policy.tier == select::Tier::Off) {
            throw WireError("policy entry with Off tier");
        }
        lastName = name;
        p.functions.push_back(std::move(name));
        p.regions.push_back(policy);
    }
    const std::size_t ids = in.listCount(2, "static id");
    for (std::size_t i = 0; i < ids; ++i) {
        std::string name = in.str();
        const std::uint32_t id = in.varint32("static id");
        if (!p.staticIds.emplace(std::move(name), id).second) {
            throw WireError("duplicate static id");
        }
    }
    p.specName = in.str();
    p.application = in.str();
    return p;
}

void encodeWatermark(Writer& out, const scorep::CctWatermark& mark) {
    out.varint(mark.nodeCount);
    for (std::size_t i = 0; i < mark.nodeCount; ++i) {
        out.varint(mark.visits[i]);
        out.varint(mark.inclusiveNs[i]);
    }
}

scorep::CctWatermark decodeWatermark(Reader& in) {
    scorep::CctWatermark mark;
    mark.nodeCount = in.listCount(2, "watermark node");
    mark.visits.reserve(mark.nodeCount);
    mark.inclusiveNs.reserve(mark.nodeCount);
    for (std::size_t i = 0; i < mark.nodeCount; ++i) {
        mark.visits.push_back(in.varint());
        mark.inclusiveNs.push_back(in.varint());
    }
    return mark;
}

}  // namespace

std::vector<std::uint8_t> encodeSnapshotFrame(const SnapshotFrame& frame) {
    Writer out;
    out.varint(kSnapshotVersion);
    out.varint(frame.incarnation);
    out.varint(frame.epochsCompleted);
    out.varint(frame.nextClientId);
    out.u8(frame.safeMode ? 1 : 0);
    out.varint(frame.overBudgetStreak);
    out.varint(frame.inBudgetStreak);
    out.f64(frame.lastRatio);
    out.f64(frame.lastBudgetNs);
    out.u8(frame.lastWithinBudget ? 1 : 0);
    out.fixed64(frame.surveyFingerprint);
    encodeFullPolicy(out, frame.currentPolicy);

    out.varint(frame.regionNames.size());
    for (const std::string& name : frame.regionNames) {
        out.str(name);
    }

    out.varint(frame.nodes.size());
    for (const SnapshotNode& node : frame.nodes) {
        out.varint(node.parent);
        out.varint(node.region);
        out.varint(node.visits);
        out.varint(node.inclusiveNs);
    }

    out.varint(frame.lastTotals.size());
    for (const auto& [name, totals] : frame.lastTotals) {
        out.str(name);
        out.varint(totals.visits);
        out.varint(totals.exclusiveNs);
    }

    out.varint(frame.model.epochs);
    out.f64(frame.model.runtimeNs);
    out.f64(frame.model.incurredCostNs);
    out.f64(frame.model.lastEpochCostNs);
    out.f64(frame.model.lastEpochRuntimeNs);
    out.varint(frame.model.lastMeasurementId);
    out.varint(frame.model.estimates.size());
    for (const auto& [name, estimate] : frame.model.estimates) {
        out.str(name);
        out.f64(estimate.visits);
        out.f64(estimate.exclusiveNs);
        out.varint(estimate.epochsObserved);
        out.f64(estimate.samplingFactor);
    }
    out.varint(frame.model.lastSuppressed.size());
    for (const auto& [name, count] : frame.model.lastSuppressed) {
        out.str(name);
        out.varint(count);
    }

    out.varint(frame.clients.size());
    for (const SnapshotClient& client : frame.clients) {
        out.varint(client.id);
        out.u8(client.evicted ? 1 : 0);
        out.varint(client.missedEpochs);
        out.u8(client.needsBaseline ? 1 : 0);
        out.varint(client.idMap.size());
        for (std::uint32_t fleetId : client.idMap) {
            out.varint(fleetId);
        }
        out.varint(client.regionMap.size());
        for (std::uint32_t handle : client.regionMap) {
            out.varint(handle);
        }
        encodeWatermark(out, client.watermark);
        out.varint(client.suppressedAcked.size());
        for (const auto& [handle, count] : client.suppressedAcked) {
            out.varint(handle);
            out.varint(count);
        }
        out.f64(client.runtimeAckedNs);
        out.varint(client.epochsAcked);
        encodeFullPolicy(out, client.lastSentPolicy);
        out.varint(client.pending.size());
        for (const std::vector<std::uint8_t>& pending : client.pending) {
            out.varint(pending.size());
            for (std::uint8_t byte : pending) {
                out.u8(byte);
            }
        }
    }
    return seal(FrameType::Snapshot, out.take());
}

SnapshotFrame decodeSnapshotFrame(const std::vector<std::uint8_t>& bytes) {
    Reader in(nullptr, 0);
    expectType(openFrame(bytes, in), FrameType::Snapshot);

    const std::uint64_t version = in.varint();
    if (version != kSnapshotVersion) {
        throw WireError("unsupported snapshot version");
    }
    SnapshotFrame frame;
    frame.incarnation = in.varint();
    if (frame.incarnation == 0) {
        throw WireError("zero incarnation");
    }
    frame.epochsCompleted = in.varint();
    frame.nextClientId = in.varint();
    frame.safeMode = in.u8() != 0;
    frame.overBudgetStreak = in.varint();
    frame.inBudgetStreak = in.varint();
    frame.lastRatio = in.f64();
    frame.lastBudgetNs = in.f64();
    frame.lastWithinBudget = in.u8() != 0;
    frame.surveyFingerprint = in.fixed64();
    frame.currentPolicy = decodeFullPolicy(in);

    const std::size_t regionCount = in.listCount(1, "region name");
    for (std::size_t i = 0; i < regionCount; ++i) {
        frame.regionNames.push_back(in.str());
    }

    const std::size_t nodeCount = in.listCount(4, "snapshot node");
    for (std::size_t i = 0; i < nodeCount; ++i) {
        SnapshotNode node;
        node.parent = in.varint32("node parent");
        node.region = in.varint32("node region");
        // Node i in the list has id i + 1; its parent must precede it.
        if (node.parent > i) {
            throw WireError("snapshot node parent not before node");
        }
        if (node.region >= frame.regionNames.size()) {
            throw WireError("snapshot node region out of range");
        }
        node.visits = in.varint();
        node.inclusiveNs = in.varint();
        frame.nodes.push_back(node);
    }

    const std::size_t totalCount = in.listCount(3, "last total");
    std::string lastName;
    for (std::size_t i = 0; i < totalCount; ++i) {
        std::string name = in.str();
        if (i > 0 && name <= lastName) {
            throw WireError("last totals not strictly sorted");
        }
        scorep::ProfileTree::RegionTotals totals;
        totals.visits = in.varint();
        totals.exclusiveNs = in.varint();
        lastName = name;
        frame.lastTotals.emplace_back(std::move(name), totals);
    }

    frame.model.epochs = static_cast<std::size_t>(in.varint());
    frame.model.runtimeNs = in.f64();
    frame.model.incurredCostNs = in.f64();
    frame.model.lastEpochCostNs = in.f64();
    frame.model.lastEpochRuntimeNs = in.f64();
    frame.model.lastMeasurementId = in.varint();
    const std::size_t estimateCount = in.listCount(27, "model estimate");
    lastName.clear();
    for (std::size_t i = 0; i < estimateCount; ++i) {
        std::string name = in.str();
        if (i > 0 && name <= lastName) {
            throw WireError("model estimates not strictly sorted");
        }
        adapt::RegionEstimate estimate;
        estimate.visits = in.f64();
        estimate.exclusiveNs = in.f64();
        estimate.epochsObserved = static_cast<std::size_t>(in.varint());
        estimate.samplingFactor = in.f64();
        lastName = name;
        frame.model.estimates.emplace_back(std::move(name), estimate);
    }
    const std::size_t suppressedCount = in.listCount(2, "model suppressed");
    lastName.clear();
    for (std::size_t i = 0; i < suppressedCount; ++i) {
        std::string name = in.str();
        if (i > 0 && name <= lastName) {
            throw WireError("model suppressed not strictly sorted");
        }
        const std::uint64_t count = in.varint();
        lastName = name;
        frame.model.lastSuppressed.emplace_back(std::move(name), count);
    }

    const std::size_t clientCount = in.listCount(8, "snapshot client");
    std::uint64_t lastClientId = 0;
    for (std::size_t c = 0; c < clientCount; ++c) {
        SnapshotClient client;
        client.id = in.varint();
        if (c > 0 && client.id <= lastClientId) {
            throw WireError("snapshot clients not strictly sorted");
        }
        lastClientId = client.id;
        if (client.id >= frame.nextClientId) {
            throw WireError("snapshot client id beyond next id");
        }
        client.evicted = in.u8() != 0;
        client.missedEpochs = in.varint();
        client.needsBaseline = in.u8() != 0;
        const std::size_t idMapSize = in.listCount(1, "id map entry");
        for (std::size_t i = 0; i < idMapSize; ++i) {
            const std::uint32_t fleetId = in.varint32("id map entry");
            // Fleet node ids: root plus the snapshot's node list.
            if (fleetId > frame.nodes.size()) {
                throw WireError("id map entry out of range");
            }
            client.idMap.push_back(fleetId);
        }
        const std::size_t regionMapSize = in.listCount(1, "region map entry");
        for (std::size_t i = 0; i < regionMapSize; ++i) {
            const std::uint32_t handle = in.varint32("region map entry");
            if (handle != scorep::kNoRegion &&
                handle >= frame.regionNames.size()) {
                throw WireError("region map entry out of range");
            }
            client.regionMap.push_back(handle);
        }
        client.watermark = decodeWatermark(in);
        if (client.watermark.nodeCount != client.idMap.size()) {
            throw WireError("watermark disagrees with id map");
        }
        const std::size_t ackedCount = in.listCount(2, "suppressed acked");
        std::uint64_t lastHandle = 0;
        for (std::size_t i = 0; i < ackedCount; ++i) {
            const std::uint32_t handle = in.varint32("suppressed handle");
            if (i > 0 && handle <= lastHandle) {
                throw WireError("suppressed acked not strictly sorted");
            }
            lastHandle = handle;
            client.suppressedAcked.emplace_back(handle, in.varint());
        }
        client.runtimeAckedNs = in.f64();
        client.epochsAcked = in.varint();
        client.lastSentPolicy = decodeFullPolicy(in);
        const std::size_t pendingCount = in.listCount(1, "pending frame");
        for (std::size_t i = 0; i < pendingCount; ++i) {
            const std::uint64_t size = in.varint();
            if (size > in.remaining()) {
                throw WireError("pending frame exceeds snapshot size");
            }
            std::vector<std::uint8_t> pending;
            pending.reserve(static_cast<std::size_t>(size));
            for (std::uint64_t b = 0; b < size; ++b) {
                pending.push_back(in.u8());
            }
            // Each pending frame must itself be a sound delta frame from
            // this client — decode it now so restore never replays garbage.
            DeltaFrame delta = decodeDeltaFrame(pending);
            if (delta.clientId != client.id) {
                throw WireError("pending frame from wrong client");
            }
            client.pending.push_back(std::move(pending));
        }
        frame.clients.push_back(std::move(client));
    }
    if (!in.done()) {
        throw WireError("trailing bytes after snapshot payload");
    }
    return frame;
}

FrameType frameTypeOf(const std::vector<std::uint8_t>& bytes) {
    Reader in(nullptr, 0);
    return openFrame(bytes, in);
}

std::uint64_t decodeControlFrame(const std::vector<std::uint8_t>& bytes,
                                 FrameType expected) {
    Reader in(nullptr, 0);
    expectType(openFrame(bytes, in), expected);
    const std::uint64_t clientId = in.varint();
    if (!in.done()) {
        throw WireError("trailing bytes after control payload");
    }
    return clientId;
}

}  // namespace capi::fleet

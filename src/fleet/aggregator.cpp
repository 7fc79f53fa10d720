#include "fleet/aggregator.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "cg/call_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace capi::fleet {

namespace {

struct FleetSpanNames {
    std::uint32_t epoch;
    std::uint32_t merge;
    std::uint32_t observe;
    std::uint32_t decide;
    std::uint32_t plan;
    std::uint32_t broadcast;
    std::uint32_t evict;
    std::uint32_t resume;
    std::uint32_t checkpoint;
    std::uint32_t restore;
};

const FleetSpanNames& fleetSpanNames() {
    static const FleetSpanNames names = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return FleetSpanNames{r.internName("fleet.epoch"),
                              r.internName("fleet.merge"),
                              r.internName("fleet.observe"),
                              r.internName("fleet.decide"),
                              r.internName("fleet.plan"),
                              r.internName("fleet.broadcast"),
                              r.internName("fleet.evict"),
                              r.internName("fleet.resume"),
                              r.internName("fleet.checkpoint"),
                              r.internName("fleet.restore")};
    }();
    return names;
}

}  // namespace

Aggregator::Aggregator(const cg::CallGraph& graph,
                       select::InstrumentationConfig surveyIc,
                       AggregatorOptions options)
    : graph_(&graph),
      options_(std::move(options)),
      data_(options_.dataQueueCapacity),
      decider_(graph, options_.config,
               {.model = std::nullopt,
                .plan = fleetSpanNames().plan,
                .planCategory = obs::SpanCategory::Fleet}) {
    // The fleet converges from the same starting point every client's
    // controller starts from: the survey policy, fully instrumented.
    decider_.start(std::move(surveyIc));
    publish();

    static std::atomic<std::uint64_t> nextSeq{0};
    const std::uint64_t seq = nextSeq.fetch_add(1, std::memory_order_relaxed);
    metricsCollectorId_ = obs::MetricsRegistry::global().addCollector(
        [this, seq](std::vector<obs::Sample>& out) {
            AggregatorStats snapshot;
            std::size_t clients = 0;
            std::uint64_t epochs = 0;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                snapshot = stats_;
                clients = clients_.size();
                epochs = epochsCompleted_;
            }
            const ChannelStats queue = data_.stats();
            const std::string base = "{agg=\"" + std::to_string(seq) + "\"}";
            auto counter = [&out, &base](const char* name,
                                         std::uint64_t value) {
                obs::Sample s;
                s.name = std::string(name) + base;
                s.kind = obs::MetricKind::Counter;
                s.value = static_cast<double>(value);
                out.push_back(std::move(s));
            };
            auto gauge = [&out, &base](const char* name, double value) {
                obs::Sample s;
                s.name = std::string(name) + base;
                s.kind = obs::MetricKind::Gauge;
                s.value = value;
                out.push_back(std::move(s));
            };
            counter("capi_fleet_frames_merged_total", snapshot.framesMerged);
            counter("capi_fleet_bytes_in_total", snapshot.bytesIn);
            counter("capi_fleet_bytes_out_total", snapshot.bytesOut);
            counter("capi_fleet_policy_frames_encoded_total",
                    snapshot.policyFramesEncoded);
            counter("capi_fleet_epochs_total", epochs);
            counter("capi_fleet_decode_errors_total", snapshot.decodeErrors);
            counter("capi_fleet_resyncs_total", snapshot.resyncs);
            counter("capi_fleet_backpressure_stalls_total", queue.stalls);
            counter("capi_fleet_dropped_deltas_total", queue.rejected);
            counter("capi_fleet_timeout_epochs_total", snapshot.timeoutEpochs);
            counter("capi_fleet_evictions_total", snapshot.evictions);
            counter("capi_fleet_resumes_total",
                    snapshot.resumes + snapshot.sessionResumes);
            counter("capi_fleet_checkpoints_total", snapshot.checkpoints);
            counter("capi_fleet_checkpoint_bytes_total",
                    snapshot.checkpointBytes);
            gauge("capi_fleet_queue_depth", static_cast<double>(queue.depth));
            gauge("capi_fleet_clients", static_cast<double>(clients));
        });
}

Aggregator::Aggregator(const cg::CallGraph& graph,
                       select::InstrumentationConfig surveyIc,
                       const std::vector<std::uint8_t>& snapshot,
                       AggregatorOptions options)
    : Aggregator(graph, std::move(surveyIc), std::move(options)) {
    obs::ScopedSpan restoreSpan(fleetSpanNames().restore,
                                obs::SpanCategory::Fleet);
    restoreSpan.setArg(snapshot.size());
    restoreFromSnapshot(decodeSnapshotFrame(snapshot));
}

void Aggregator::restoreFromSnapshot(const SnapshotFrame& snap) {
    // Construction is single-threaded; no lock needed.
    const std::uint64_t expectedSurvey =
        select::InstrumentationPolicy::fullOf(decider_.surveyIc()).fingerprint();
    if (snap.surveyFingerprint != expectedSurvey) {
        throw WireError("snapshot was taken against a different survey");
    }

    incarnation_ = snap.incarnation + 1;
    epochsCompleted_ = snap.epochsCompleted;
    nextClientId_ = snap.nextClientId;
    lastRatio_ = snap.lastRatio;
    lastBudgetNs_ = snap.lastBudgetNs;
    lastWithinBudget_ = snap.lastWithinBudget;
    // Self-cost billing restarts from the recorder's current position: the
    // events of the dead incarnation died with it.
    decider_.restoreState(adapt::DeciderState{snap.model, snap.currentPolicy,
                                              snap.safeMode,
                                              snap.overBudgetStreak,
                                              snap.inBudgetStreak});
    publish();

    regionNames_ = snap.regionNames;
    for (std::size_t i = 0; i < regionNames_.size(); ++i) {
        auto [it, inserted] = regionIds_.try_emplace(
            regionNames_[i], static_cast<scorep::RegionHandle>(i));
        if (!inserted) {
            throw WireError("snapshot has duplicate region name");
        }
        modelIds_.push_back(decider_.regionId(regionNames_[i]));
    }

    // Replay the tree shape in node-id order: childOf assigns ids
    // sequentially, so each created node must land exactly where the
    // snapshot says it was — a duplicate (parent, region) pair or any other
    // shape inconsistency shows up as an id mismatch, rejected typed.
    for (std::size_t i = 0; i < snap.nodes.size(); ++i) {
        const SnapshotNode& node = snap.nodes[i];
        const std::size_t id = fleetTree_.childOf(node.parent, node.region);
        if (id != i + 1) {
            throw WireError("snapshot tree shape is inconsistent");
        }
        scorep::ProfileNodeRef ref = fleetTree_.node(id);
        ref.visits = node.visits;
        ref.inclusiveNs = node.inclusiveNs;
    }

    lastTotals_.assign(regionNames_.size(), std::nullopt);
    for (const auto& [name, totals] : snap.lastTotals) {
        auto it = regionIds_.find(name);
        if (it == regionIds_.end()) {
            throw WireError("snapshot totals name an unknown region");
        }
        lastTotals_[it->second] = totals;
    }

    // Clients restored onto the same diff base share one snapshot of it,
    // so the first broadcast after a restore still encodes once per base.
    std::vector<PublishedPtr> bases{published_};
    auto baseFor = [&bases](const select::InstrumentationPolicy& policy) {
        for (const PublishedPtr& base : bases) {
            if (samePolicy(base->policy, policy)) {
                return base;
            }
        }
        bases.push_back(std::make_shared<const PublishedPolicy>(policy));
        return bases.back();
    };
    for (const SnapshotClient& sc : snap.clients) {
        ClientState state;
        state.id = sc.id;
        state.policyChannel =
            std::make_unique<Channel>(options_.policyQueueCapacity);
        state.idMap = sc.idMap;
        state.regionMap = sc.regionMap;
        state.acked = sc.watermark;
        for (const auto& [handle, count] : sc.suppressedAcked) {
            state.suppressedAcked.emplace(handle, count);
        }
        state.runtimeAckedNs = sc.runtimeAckedNs;
        state.epochsAcked = sc.epochsAcked;
        state.lastSent = baseFor(sc.lastSentPolicy);
        state.needsBaseline = sc.needsBaseline;
        state.evicted = sc.evicted;
        state.missedEpochs = sc.missedEpochs;
        for (const std::vector<std::uint8_t>& bytes : sc.pending) {
            state.pending.push_back(decodeDeltaFrame(bytes));
        }
        clients_.emplace(state.id, std::move(state));
    }

    bool anyPending = false;
    for (const auto& [id, client] : clients_) {
        if (!client.evicted && !client.pending.empty()) {
            anyPending = true;
        }
    }
    epochOpenedAtNs_ = anyPending ? support::nowNs() : 0;
    stats_.restores = 1;
}

Aggregator::~Aggregator() {
    obs::MetricsRegistry::global().removeCollector(metricsCollectorId_);
    stop();
}

Aggregator::Session Aggregator::connect() {
    std::lock_guard<std::mutex> lock(mutex_);
    ClientState state;
    state.id = nextClientId_++;
    state.policyChannel = std::make_unique<Channel>(options_.policyQueueCapacity);
    state.idMap.push_back(static_cast<std::uint32_t>(fleetTree_.root()));
    state.needsBaseline = true;
    auto [it, inserted] = clients_.emplace(state.id, std::move(state));
    ++stats_.clientsConnected;
    // Late-joiner catch-up, half one: a full-policy baseline so the client
    // converges onto the fleet's current policy before its first epoch.
    sendPolicyTo(it->second, encodePolicyFrameFrom(nullptr));
    return Session{it->first, it->second.policyChannel.get(), false, {}};
}

Aggregator::Session Aggregator::resume(std::uint64_t clientId) {
    // The handshake itself can be lost in transit — same site as a client's
    // dropped data frame; the client retries under backoff.
    if (support::fault::shouldFail(support::fault::sites::kFleetFrameDrop)) {
        throw WireError("injected: resume handshake dropped");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(clientId);
    if (it == clients_.end()) {
        throw WireError("resume for unknown session");
    }
    ClientState& client = it->second;
    // Fresh policy channel: whatever was queued (or lost) on the old one is
    // summarized by lastPolicyFingerprint — the client resyncs if its own
    // policy does not match.
    client.policyChannel->close();
    parkedChannels_.push_back(std::move(client.policyChannel));
    client.policyChannel =
        std::make_unique<Channel>(options_.policyQueueCapacity);
    client.evicted = false;
    client.missedEpochs = 0;
    ++stats_.sessionResumes;
    obs::TraceRecorder::global().recordInstant(fleetSpanNames().resume,
                                               obs::SpanCategory::Fleet,
                                               support::nowNs(), clientId);

    Session session;
    session.clientId = clientId;
    session.policyChannel = client.policyChannel.get();
    session.resumed = true;
    session.resume.watermark = client.acked;
    for (scorep::RegionHandle handle : client.regionMap) {
        session.resume.ackedRegions.push_back(handle != scorep::kNoRegion);
    }
    for (const auto& [handle, count] : client.suppressedAcked) {
        session.resume.suppressed.emplace_back(handle, count);
    }
    session.resume.runtimeNs = client.runtimeAckedNs;
    session.resume.coveredEpochs = client.epochsAcked;
    session.resume.lastPolicyFingerprint = client.lastSent->fingerprint;
    session.resume.incarnation = incarnation_;
    return session;
}

void Aggregator::disconnect(std::uint64_t clientId) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = clients_.find(clientId);
    if (it == clients_.end()) {
        return;
    }
    it->second.policyChannel->close();
    // The channel must outlive a client still blocked in receive(); park it
    // until destruction rather than freeing under a reader.
    parkedChannels_.push_back(std::move(it->second.policyChannel));
    clients_.erase(it);
    ++stats_.clientsDisconnected;
}

std::vector<std::uint8_t> Aggregator::checkpoint() {
    std::lock_guard<std::mutex> lock(mutex_);
    return checkpointLocked();
}

std::vector<std::uint8_t> Aggregator::checkpointLocked() {
    obs::ScopedSpan span(fleetSpanNames().checkpoint, obs::SpanCategory::Fleet);
    SnapshotFrame snap;
    snap.incarnation = incarnation_;
    snap.epochsCompleted = epochsCompleted_;
    snap.nextClientId = nextClientId_;
    adapt::DeciderState decider = decider_.saveState();
    snap.safeMode = decider.safeMode;
    snap.overBudgetStreak = decider.overBudgetStreak;
    snap.inBudgetStreak = decider.inBudgetStreak;
    snap.currentPolicy = std::move(decider.policy);
    snap.model = std::move(decider.model);
    snap.lastRatio = lastRatio_;
    snap.lastBudgetNs = lastBudgetNs_;
    snap.lastWithinBudget = lastWithinBudget_;
    snap.surveyFingerprint =
        select::InstrumentationPolicy::fullOf(decider_.surveyIc()).fingerprint();
    snap.regionNames = regionNames_;
    const scorep::ProfileTree& tree = fleetTree_;
    for (std::size_t i = 1; i < tree.nodeCount(); ++i) {
        const scorep::ProfileNode node = tree.node(i);
        snap.nodes.push_back(SnapshotNode{tree.parentOf(i), node.region,
                                          node.visits, node.inclusiveNs});
    }
    // regionIds_ walks names in order: the list comes out sorted.
    for (const auto& [name, handle] : regionIds_) {
        if (handle < lastTotals_.size() && lastTotals_[handle]) {
            snap.lastTotals.emplace_back(name, *lastTotals_[handle]);
        }
    }
    for (const auto& [id, client] : clients_) {
        SnapshotClient sc;
        sc.id = id;
        sc.evicted = client.evicted;
        sc.missedEpochs = client.missedEpochs;
        sc.needsBaseline = client.needsBaseline;
        sc.idMap = client.idMap;
        sc.regionMap = client.regionMap;
        sc.watermark = client.acked;
        sc.suppressedAcked.assign(client.suppressedAcked.begin(),
                                  client.suppressedAcked.end());
        sc.runtimeAckedNs = client.runtimeAckedNs;
        sc.epochsAcked = client.epochsAcked;
        sc.lastSentPolicy = client.lastSent->policy;
        // Pending frames re-encode to their exact original bytes: the codec
        // is canonical, so decode-then-encode is the identity.
        for (const DeltaFrame& frame : client.pending) {
            sc.pending.push_back(encodeDeltaFrame(frame));
        }
        snap.clients.push_back(std::move(sc));
    }
    std::vector<std::uint8_t> bytes = encodeSnapshotFrame(snap);
    ++stats_.checkpoints;
    stats_.checkpointBytes += bytes.size();
    span.setArg(bytes.size());
    return bytes;
}

scorep::RegionHandle Aggregator::fleetHandleFor(ClientState& client,
                                                std::uint32_t clientHandle) {
    if (clientHandle >= client.regionMap.size()) {
        return scorep::kNoRegion;
    }
    return client.regionMap[clientHandle];
}

void Aggregator::handleFrame(const std::vector<std::uint8_t>& bytes) {
    FrameType type;
    try {
        type = frameTypeOf(bytes);
    } catch (const WireError&) {
        ++stats_.decodeErrors;
        return;
    }
    try {
        switch (type) {
            case FrameType::Delta: {
                DeltaFrame frame = decodeDeltaFrame(bytes);
                auto it = clients_.find(frame.clientId);
                if (it == clients_.end()) {
                    ++stats_.decodeErrors;  // frame from a departed client
                    return;
                }
                ClientState& client = it->second;
                // Register first-use region defs before validating the CCT
                // against them.
                for (const RegionDef& def : frame.newRegions) {
                    auto [nameIt, inserted] = regionIds_.try_emplace(
                        def.name,
                        static_cast<scorep::RegionHandle>(regionNames_.size()));
                    if (inserted) {
                        regionNames_.push_back(def.name);
                        modelIds_.push_back(decider_.regionId(def.name));
                    }
                    if (def.handle >= client.regionMap.size()) {
                        client.regionMap.resize(def.handle + 1,
                                                scorep::kNoRegion);
                    }
                    client.regionMap[def.handle] = nameIt->second;
                }
                // Cross-frame validation: every referenced handle must have
                // been defined by now, and the node stream must continue
                // exactly at this client's acked watermark (NOT the id map,
                // which only advances at merge — pending frames may stack
                // ahead of it). A violation is a torn stream, not a torn
                // frame — drop it and let the client's next frame (or a
                // resync) recover.
                const std::size_t expectedBase =
                    client.acked.nodeCount > 0 ? client.acked.nodeCount : 1;
                if (frame.cct.baseNodeCount != expectedBase) {
                    ++stats_.decodeErrors;
                    return;
                }
                for (const scorep::CctNewNode& node : frame.cct.newNodes) {
                    if (fleetHandleFor(client, node.region) ==
                        scorep::kNoRegion) {
                        ++stats_.decodeErrors;
                        return;
                    }
                }
                for (const SuppressedDelta& entry : frame.suppressed) {
                    if (fleetHandleFor(client, entry.region) ==
                        scorep::kNoRegion) {
                        ++stats_.decodeErrors;
                        return;
                    }
                }
                stats_.bytesIn += bytes.size();
                // A delta from an evicted client IS its resume: the frame
                // base-checks against the acked watermark, so everything the
                // client accumulated while evicted arrives coalesced in it —
                // no catch-up handshake needed.
                if (client.evicted) {
                    client.evicted = false;
                    ++stats_.resumes;
                    obs::TraceRecorder::global().recordInstant(
                        fleetSpanNames().resume, obs::SpanCategory::Fleet,
                        support::nowNs(), client.id);
                }
                client.missedEpochs = 0;
                // Advance the acked mirror at ingest (the client advanced
                // its watermark when the send succeeded): checkpoints that
                // carry the pending queue stay self-consistent, and resume()
                // rewinds the client to exactly what arrived.
                if (client.acked.nodeCount == 0) {
                    client.acked.nodeCount = 1;
                    client.acked.visits.push_back(0);
                    client.acked.inclusiveNs.push_back(0);
                }
                for (std::size_t i = 0; i < frame.cct.newNodes.size(); ++i) {
                    client.acked.visits.push_back(0);
                    client.acked.inclusiveNs.push_back(0);
                }
                client.acked.nodeCount += frame.cct.newNodes.size();
                for (const scorep::CctNodeChange& change : frame.cct.changed) {
                    client.acked.visits[change.node] += change.visitsDelta;
                    client.acked.inclusiveNs[change.node] +=
                        change.inclusiveNsDelta;
                }
                for (const SuppressedDelta& entry : frame.suppressed) {
                    client.suppressedAcked[entry.region] += entry.visits;
                }
                client.runtimeAckedNs += frame.runtimeNs;
                client.epochsAcked += frame.coveredEpochs;
                client.pending.push_back(std::move(frame));
                if (epochOpenedAtNs_ == 0) {
                    epochOpenedAtNs_ = support::nowNs();
                }
                return;
            }
            case FrameType::Resync: {
                const std::uint64_t clientId =
                    decodeControlFrame(bytes, FrameType::Resync);
                auto it = clients_.find(clientId);
                if (it == clients_.end()) {
                    return;
                }
                ++stats_.resyncs;
                it->second.needsBaseline = true;
                // Answer immediately — the client is blocked waiting for a
                // baseline, not for the next epoch.
                sendPolicyTo(it->second, encodePolicyFrameFrom(nullptr));
                return;
            }
            case FrameType::Bye: {
                const std::uint64_t clientId =
                    decodeControlFrame(bytes, FrameType::Bye);
                auto it = clients_.find(clientId);
                if (it != clients_.end()) {
                    it->second.policyChannel->close();
                    parkedChannels_.push_back(
                        std::move(it->second.policyChannel));
                    clients_.erase(it);
                    ++stats_.clientsDisconnected;
                }
                return;
            }
            default:
                ++stats_.decodeErrors;  // policy frames never flow inbound
                return;
        }
    } catch (const WireError&) {
        ++stats_.decodeErrors;
    }
}

bool Aggregator::epochReady() const {
    std::size_t active = 0;
    for (const auto& [id, client] : clients_) {
        if (client.evicted) {
            continue;
        }
        if (client.pending.empty()) {
            return false;
        }
        ++active;
    }
    return active > 0;
}

bool Aggregator::timeoutClosable(std::uint64_t nowNs) const {
    const EpochPolicy& policy = options_.epochPolicy;
    if (policy.timeoutNs == 0 || policy.quorum == 0) {
        return false;  // strict mode: epochs never close on time
    }
    if (epochOpenedAtNs_ == 0 || nowNs - epochOpenedAtNs_ < policy.timeoutNs) {
        return false;
    }
    std::size_t ready = 0;
    for (const auto& [id, client] : clients_) {
        if (!client.evicted && !client.pending.empty()) {
            ++ready;
        }
    }
    return ready >= policy.quorum;
}

void Aggregator::closeEpoch(bool timedOut) {
    // The injected crash fires before ANY epoch state mutates: the crashed
    // incarnation's last checkpoint describes a clean epoch boundary, which
    // is what restore resumes from.
    if (support::fault::shouldFail(
            support::fault::sites::kFleetAggregatorCrash)) {
        ++stats_.crashes;
        throw AggregatorCrashError("injected crash at epoch close");
    }
    const FleetSpanNames& spans = fleetSpanNames();
    obs::ScopedSpan epochSpan(spans.epoch, obs::SpanCategory::Fleet);
    epochSpan.setArg(epochsCompleted_ + 1);

    // 0. Liveness accounting on a timeout close: every active client that
    // contributed nothing is Lagging; graceEpochs consecutive misses evict
    // it from the completion rule (its session state stays — see resume()).
    std::vector<std::uint64_t> missedIds;
    if (timedOut) {
        ++stats_.timeoutEpochs;
        for (auto& [id, client] : clients_) {
            if (client.evicted || !client.pending.empty()) {
                continue;
            }
            ++client.missedEpochs;
            ++stats_.missedFrames;
            missedIds.push_back(id);
            if (options_.epochPolicy.graceEpochs > 0 &&
                client.missedEpochs >= options_.epochPolicy.graceEpochs) {
                client.evicted = true;
                ++stats_.evictions;
                obs::TraceRecorder::global().recordInstant(
                    spans.evict, obs::SpanCategory::Fleet, support::nowNs(),
                    id);
            }
        }
    }

    // 1. Merge one frame per contributing client, in ascending client-id
    // order — the runtime sum mirrors a reference controller's rank-order
    // sum bit for bit.
    obs::ScopedSpan mergeSpan(spans.merge, obs::SpanCategory::Fleet);
    double worldRuntimeNs = 0.0;
    std::size_t divergent = 0;
    select::PolicyDelta divergenceDiag;
    std::vector<std::uint64_t> suppressedByHandle(regionNames_.size(), 0);
    const std::uint64_t reducerFingerprint = published_->fingerprint;
    std::size_t framesMerged = 0;
    for (auto& [id, client] : clients_) {
        if (client.pending.empty()) {
            continue;  // lagging or evicted: merged by a later epoch
        }
        DeltaFrame frame = std::move(client.pending.front());
        client.pending.pop_front();
        scorep::CctDelta remapped = std::move(frame.cct);
        for (scorep::CctNewNode& node : remapped.newNodes) {
            node.region = fleetHandleFor(client, node.region);
        }
        scorep::applyCctDelta(remapped, fleetTree_, client.idMap);
        worldRuntimeNs += frame.runtimeNs;
        if (frame.policyFingerprint != reducerFingerprint) {
            ++divergent;
            // Diagnosis, not just a count: when the client measured under
            // exactly the policy we last managed to deliver to it (the
            // lagging case), the region-level gap is reconstructible.
            if (frame.policyFingerprint == client.lastSent->fingerprint) {
                divergenceDiag = select::policyDiff(client.lastSent->policy,
                                                    published_->policy);
            }
        }
        for (const SuppressedDelta& entry : frame.suppressed) {
            suppressedByHandle[fleetHandleFor(client, entry.region)] +=
                entry.visits;
        }
        ++framesMerged;
    }
    stats_.framesMerged += framesMerged;
    stats_.divergentClients += divergent;
    lastDivergence_ = std::move(divergenceDiag);
    mergeSpan.setArg(framesMerged);
    mergeSpan.end();

    // 2. The epoch's observation: cumulative per-region totals differenced
    // against the last epoch's snapshot. Matches the per-epoch merged tree
    // a reference controller plans over, region for region, keyed by the
    // Decider's region id of each fleet handle.
    obs::ScopedSpan observeSpan(spans.observe, obs::SpanCategory::Fleet);
    TotalsByHandle totalsNow = totalsByHandleLocked();
    std::vector<adapt::RegionObservation> observed;
    for (std::size_t handle = 0; handle < totalsNow.size(); ++handle) {
        if (!totalsNow[handle]) {
            continue;  // no fleet-tree node: suppressed visits alone do not count
        }
        const scorep::ProfileTree::RegionTotals& totals = *totalsNow[handle];
        scorep::ProfileTree::RegionTotals last;
        if (handle < lastTotals_.size() && lastTotals_[handle]) {
            last = *lastTotals_[handle];
        }
        const std::uint64_t dVisits =
            totals.visits >= last.visits ? totals.visits - last.visits : 0;
        const std::uint64_t dExclusive =
            totals.exclusiveNs >= last.exclusiveNs
                ? totals.exclusiveNs - last.exclusiveNs
                : 0;
        const std::uint64_t suppressed = suppressedByHandle[handle];
        // Untouched regions stay out of the fold: the model's activeIc decay
        // (regions instrumented but silent this epoch) and freeze semantics
        // (regions not instrumented at all) both key off absence.
        if (dVisits == 0 && dExclusive == 0 && suppressed == 0) {
            continue;
        }
        observed.push_back(
            {modelIds_[handle], dVisits, dExclusive, suppressed});
    }
    lastTotals_ = std::move(totalsNow);
    observeSpan.setArg(observed.size());
    observeSpan.end();

    // 3. The identical decision the in-process controller would make.
    obs::ScopedSpan decideSpan(spans.decide, obs::SpanCategory::Fleet);
    adapt::Decision decision = decider_.decide(observed, worldRuntimeNs);
    decider_.adopt(std::move(decision.policy));
    decideSpan.end();

    ++epochsCompleted_;
    ++stats_.epochsCompleted;
    lastRatio_ = decision.measuredOverheadRatio;
    lastBudgetNs_ = decision.budgetNs;
    lastWithinBudget_ = decision.withinBudget;

    // 4. Publish the converged policy once and broadcast it: a delta
    // against what each client last received, a baseline for fresh or
    // resyncing clients. Clients sharing a diff base (every in-sync client
    // shares the previous published policy) share one encoded frame.
    // Evicted clients are skipped (their frozen lastSent keeps the diff
    // chain anchored at what they actually have); Lagging clients get a
    // best-effort trySend — a stalled client's full queue must never block
    // the epoch pipeline for everyone else.
    obs::ScopedSpan broadcastSpan(spans.broadcast, obs::SpanCategory::Fleet);
    publish();
    std::map<const PublishedPolicy*, std::vector<std::uint8_t>> framesByBase;
    std::size_t framesOut = 0;
    for (auto& [id, client] : clients_) {
        if (client.evicted) {
            continue;
        }
        const PublishedPolicy* base =
            client.needsBaseline ? nullptr : client.lastSent.get();
        auto frame = framesByBase.find(base);
        if (frame == framesByBase.end()) {
            frame = framesByBase.emplace(base, encodePolicyFrameFrom(base))
                        .first;
        }
        const bool lagging =
            std::binary_search(missedIds.begin(), missedIds.end(), id);
        sendPolicyTo(client, frame->second, /*blocking=*/!lagging);
        ++framesOut;
    }
    broadcastSpan.setArg(framesOut);

    // A stacked frame means the next epoch is already open; its timeout
    // clock starts now, not at that frame's (past) arrival.
    bool anyPending = false;
    for (const auto& [id, client] : clients_) {
        if (!client.evicted && !client.pending.empty()) {
            anyPending = true;
        }
    }
    epochOpenedAtNs_ = anyPending ? support::nowNs() : 0;
}

const Aggregator::PublishedPtr& Aggregator::nothingSent() {
    static const PublishedPtr empty =
        std::make_shared<const PublishedPolicy>(select::InstrumentationPolicy{});
    return empty;
}

bool Aggregator::samePolicy(const select::InstrumentationPolicy& a,
                            const select::InstrumentationPolicy& b) {
    auto sameRegion = [](const select::RegionPolicy& x,
                         const select::RegionPolicy& y) {
        return x.tier == y.tier && x.sampling == y.sampling;
    };
    return a.functions == b.functions &&
           std::equal(a.regions.begin(), a.regions.end(), b.regions.begin(),
                      b.regions.end(), sameRegion) &&
           a.staticIds == b.staticIds && a.specName == b.specName &&
           a.application == b.application;
}

void Aggregator::publish() {
    // An unchanged decision keeps the published snapshot: no copy, no
    // rehash, and every in-sync client's diff base stays published_.
    if (published_ == nullptr ||
        !samePolicy(published_->policy, decider_.policy())) {
        published_ = std::make_shared<const PublishedPolicy>(decider_.policy());
    }
}

std::vector<std::uint8_t> Aggregator::encodePolicyFrameFrom(
    const PublishedPolicy* base) {
    const select::InstrumentationPolicy& policy = published_->policy;
    PolicyFrame frame;
    frame.epoch = epochsCompleted_;
    frame.incarnation = incarnation_;
    frame.fingerprint = published_->fingerprint;
    frame.measuredOverheadRatio = lastRatio_;
    frame.budgetNs = lastBudgetNs_;
    frame.withinBudget = lastWithinBudget_;
    frame.baseline = base == nullptr;
    if (base == nullptr) {
        for (std::size_t i = 0; i < policy.functions.size(); ++i) {
            frame.upserts.push_back(
                PolicyFrameEntry{policy.functions[i], policy.regions[i]});
        }
    } else if (base == published_.get()) {
        frame.prevFingerprint = base->fingerprint;  // nothing changed
    } else {
        // One merge of the two sorted function lists: upserts come out in
        // policy order, removals in the base's order.
        frame.prevFingerprint = base->fingerprint;
        const select::InstrumentationPolicy& before = base->policy;
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < policy.functions.size() || j < before.functions.size()) {
            const int order =
                i == policy.functions.size()   ? 1
                : j == before.functions.size() ? -1
                    : policy.functions[i].compare(before.functions[j]);
            if (order < 0) {
                frame.upserts.push_back(
                    PolicyFrameEntry{policy.functions[i], policy.regions[i]});
                ++i;
            } else if (order > 0) {
                frame.removed.push_back(before.functions[j]);
                ++j;
            } else {
                if (before.regions[j] != policy.regions[i]) {
                    frame.upserts.push_back(PolicyFrameEntry{
                        policy.functions[i], policy.regions[i]});
                }
                ++i;
                ++j;
            }
        }
    }
    ++stats_.policyFramesEncoded;
    return encodePolicyFrame(frame);
}

void Aggregator::sendPolicyTo(ClientState& client,
                              std::vector<std::uint8_t> bytes, bool blocking) {
    const std::size_t byteCount = bytes.size();
    const SendResult result = blocking
                                  ? client.policyChannel->send(std::move(bytes))
                                  : client.policyChannel->trySend(
                                        std::move(bytes));
    if (result == SendResult::Ok) {
        stats_.bytesOut += byteCount;
        ++stats_.policyFramesSent;
        // The diff base only advances when the frame actually landed — a
        // refused frame leaves the chain anchored at what the client has,
        // so the NEXT delivered update still chains cleanly (no resync).
        client.lastSent = published_;
        client.needsBaseline = false;
    } else if (result == SendResult::Backpressure) {
        ++stats_.laggingPolicyDrops;
    }
}

bool Aggregator::pump() {
    bool progressed = false;
    while (auto frame = data_.tryReceive()) {
        std::lock_guard<std::mutex> lock(mutex_);
        handleFrame(*frame);
        progressed = true;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    while (epochReady()) {
        closeEpoch(false);
        progressed = true;
    }
    if (timeoutClosable(support::nowNs())) {
        closeEpoch(true);
        progressed = true;
    }
    return progressed;
}

void Aggregator::serve() {
    const EpochPolicy policy = options_.epochPolicy;
    const bool timed = policy.timeoutNs > 0 && policy.quorum > 0;
    while (true) {
        std::optional<std::vector<std::uint8_t>> frame;
        if (timed) {
            // Bounded wait sized to the open epoch's remaining budget, so a
            // dead client can delay the close by at most timeoutNs.
            std::uint64_t waitNs = policy.timeoutNs;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (epochOpenedAtNs_ != 0) {
                    const std::uint64_t elapsed =
                        support::nowNs() - epochOpenedAtNs_;
                    waitNs = elapsed >= policy.timeoutNs
                                 ? 1
                                 : policy.timeoutNs - elapsed;
                }
            }
            frame = data_.receiveFor(waitNs);
        } else {
            frame = data_.receive();
        }
        if (!frame.has_value()) {
            if (data_.closed()) {
                break;  // closed and drained
            }
            std::lock_guard<std::mutex> lock(mutex_);
            if (timeoutClosable(support::nowNs())) {
                closeEpoch(true);
            }
            continue;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        handleFrame(*frame);
        while (epochReady()) {
            closeEpoch(false);
        }
        if (timed && timeoutClosable(support::nowNs())) {
            closeEpoch(true);
        }
    }
    // Exit accounting: a serve loop that returns while clients are still
    // registered used to do so silently — every such client is now named
    // (it may be blocked in awaitPolicy forever if its driver forgot to
    // stop it), and the final stats line always prints.
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, client] : clients_) {
        ++stats_.abandonedClients;
        support::logWarn() << "fleet aggregator: serve() exiting with client "
                           << id << " still registered (pending="
                           << client.pending.size()
                           << ", missedEpochs=" << client.missedEpochs
                           << (client.evicted ? ", evicted" : "") << ")";
    }
    support::logInfo() << "fleet aggregator: serve() exit: epochs="
                       << stats_.epochsCompleted
                       << " framesMerged=" << stats_.framesMerged
                       << " connected=" << stats_.clientsConnected
                       << " disconnected=" << stats_.clientsDisconnected
                       << " abandoned=" << stats_.abandonedClients
                       << " evictions=" << stats_.evictions
                       << " resumes=" << stats_.resumes + stats_.sessionResumes
                       << " timeoutEpochs=" << stats_.timeoutEpochs
                       << " decodeErrors=" << stats_.decodeErrors;
}

void Aggregator::stop() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopped_ = true;
        for (auto& [id, client] : clients_) {
            client.policyChannel->close();
        }
    }
    data_.close();
}

std::uint64_t Aggregator::epochsCompleted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return epochsCompleted_;
}

std::uint64_t Aggregator::incarnation() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return incarnation_;
}

select::PolicyDelta Aggregator::lastDivergence() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return lastDivergence_;
}

std::uint64_t Aggregator::convergedFingerprint() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return published_->fingerprint;
}

bool Aggregator::safeMode() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return decider_.safeMode();
}

select::InstrumentationPolicy Aggregator::convergedPolicy() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return published_->policy;
}

std::map<std::string, scorep::ProfileTree::RegionTotals>
Aggregator::totalsByName() const {
    std::lock_guard<std::mutex> lock(mutex_);
    const TotalsByHandle totals = totalsByHandleLocked();
    std::map<std::string, scorep::ProfileTree::RegionTotals> byName;
    for (const auto& [name, handle] : regionIds_) {
        if (totals[handle]) {
            byName.emplace_hint(byName.end(), name, *totals[handle]);
        }
    }
    return byName;
}

Aggregator::TotalsByHandle Aggregator::totalsByHandleLocked() const {
    TotalsByHandle totals(regionNames_.size());
    const std::vector<std::uint64_t> exclusive = fleetTree_.exclusiveAll();
    for (std::size_t i = 0; i < fleetTree_.nodeCount(); ++i) {
        const scorep::ProfileNode node = fleetTree_.node(i);
        if (node.region == scorep::kNoRegion) {
            continue;
        }
        std::optional<scorep::ProfileTree::RegionTotals>& entry =
            totals[node.region];
        if (!entry) {
            entry.emplace();
        }
        entry->visits += node.visits;
        entry->exclusiveNs += exclusive[i];
    }
    return totals;
}

AggregatorStats Aggregator::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t Aggregator::clientCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return clients_.size();
}

}  // namespace capi::fleet

#include "fleet/client.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "support/backoff.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"

namespace capi::fleet {

namespace {

struct ClientSpanNames {
    std::uint32_t encode;
    std::uint32_t send;
    std::uint32_t adopt;
};

const ClientSpanNames& clientSpanNames() {
    static const ClientSpanNames names = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return ClientSpanNames{r.internName("fleet.encode"),
                               r.internName("fleet.send"),
                               r.internName("fleet.adopt")};
    }();
    return names;
}

/// The policy a frame describes, walked as one merge of sorted lists. The
/// result equals setRegion() per upsert and then per removal on the base
/// (of repeated upsert names the last wins). The aggregator sends both
/// lists sorted; anything else is sorted here first.
class FrameMerge {
public:
    /// Locates every name the frame mentions in the base once, so each
    /// walk compares no strings.
    FrameMerge(const PolicyFrame& frame,
               const select::InstrumentationPolicy& base)
        : base_(base) {
        std::vector<const PolicyFrameEntry*> upserts;
        upserts.reserve(frame.upserts.size());
        for (const PolicyFrameEntry& entry : frame.upserts) {
            upserts.push_back(&entry);
        }
        auto byName = [](const PolicyFrameEntry* a, const PolicyFrameEntry* b) {
            return a->name < b->name;
        };
        if (!std::is_sorted(upserts.begin(), upserts.end(), byName)) {
            std::stable_sort(upserts.begin(), upserts.end(), byName);
        }
        std::vector<std::string_view> removed(frame.removed.begin(),
                                              frame.removed.end());
        std::sort(removed.begin(), removed.end());

        const std::vector<std::string>& names = base.functions;
        auto from = names.begin();
        std::size_t j = 0;
        std::size_t r = 0;
        while (j < upserts.size() || r < removed.size()) {
            const std::string_view name =
                r == removed.size() ||
                        (j < upserts.size() && upserts[j]->name < removed[r])
                    ? std::string_view(upserts[j]->name)
                    : removed[r];
            Change change;
            from = std::lower_bound(from, names.end(), name);
            change.at = static_cast<std::size_t>(from - names.begin());
            change.inBase = from != names.end() && *from == name;
            const PolicyFrameEntry* upsert = nullptr;
            for (; j < upserts.size() && upserts[j]->name == name; ++j) {
                upsert = upserts[j];
            }
            bool isRemoved = false;
            for (; r < removed.size() && removed[r] == name; ++r) {
                isRemoved = true;
            }
            if (upsert != nullptr && !isRemoved) {
                change.region = upsert->policy;
                if (change.region.tier == select::Tier::Full) {
                    change.region.sampling = select::SamplingSpec{};  // as setRegion()
                }
                if (change.region.tier != select::Tier::Off) {
                    change.upsert = upsert;
                }
            }
            changes_.push_back(change);
        }
    }

    /// Index in the base of the first entry the frame may change: the
    /// base's entries before it are also the result's first entries. The
    /// base's size when the frame changes nothing.
    std::size_t firstChange() const {
        return changes_.empty() ? base_.size() : changes_.front().at;
    }

    /// Calls visit(baseIndex) for each base entry the frame replaces or
    /// removes.
    template <typename Visit>
    void forEachDropped(Visit&& visit) const {
        for (const Change& change : changes_) {
            if (change.inBase) {
                visit(change.at);
            }
        }
    }

    /// Walks the result from firstChange() on, in name order: keep(from,
    /// count) for each run of base entries [from, from + count) it keeps,
    /// supply(name, region) for each entry the frame supplies. The walk
    /// compares no names, so the callbacks may move the base's entries.
    template <typename Keep, typename Supply>
    void forEach(Keep&& keep, Supply&& supply) const {
        std::size_t i = firstChange();
        for (const Change& change : changes_) {
            if (change.at > i) {
                keep(i, change.at - i);
                i = change.at;
            }
            if (change.upsert != nullptr) {
                supply(change.upsert->name, change.region);
            }
            if (change.inBase) {
                ++i;  // replaced or dropped
            }
        }
        if (base_.size() > i) {
            keep(i, base_.size() - i);
        }
    }

private:
    /// One name the frame mentions: an upsert, a removal, or both.
    struct Change {
        std::size_t at = 0;  ///< lower_bound of the name in the base.
        bool inBase = false;
        /// The upsert the result takes the entry from (the last one for
        /// the name); null when the name ends up Off.
        const PolicyFrameEntry* upsert = nullptr;
        select::RegionPolicy region;  ///< upsert's, normalized.
    };

    const select::InstrumentationPolicy& base_;
    std::vector<Change> changes_;
};

}  // namespace

void FleetClient::TierCounts::add(const select::RegionPolicy& region) {
    full += region.tier == select::Tier::Full ? 1 : 0;
    sampled += region.tier == select::Tier::Sampled ? 1 : 0;
}

void FleetClient::TierCounts::remove(const select::RegionPolicy& region) {
    full -= region.tier == select::Tier::Full ? 1 : 0;
    sampled -= region.tier == select::Tier::Sampled ? 1 : 0;
}

bool FleetClient::applyVerified(const PolicyFrame& frame) {
    const select::InstrumentationPolicy none;
    const select::InstrumentationPolicy& base = frame.baseline ? none : policy_;
    const FrameMerge merge(frame, base);
    // The entries before the first change keep their index, hash and
    // digest chain, so the digest resumes there. A baseline keeps nothing.
    const std::size_t keep = merge.firstChange();
    tail_.prefix.clear();
    tail_.placements.clear();
    select::PolicyDigest digest(prefix_[keep]);
    std::size_t to = keep;
    merge.forEach(
        [&](std::size_t from, std::size_t count) {
            if (to != from) {
                tail_.placements.push_back({to, from, count});
            }
            for (std::size_t i = from; i < from + count; ++i) {
                digest.addHashed(hashes_[i], base.regions[i]);
                tail_.prefix.push_back(digest.chain());
            }
            to += count;
        },
        [&](const std::string& name, const select::RegionPolicy& region) {
            const std::uint64_t hash = support::fnv1a(name);
            tail_.placements.push_back({to, 0, 1, &name, &region, hash});
            digest.addHashed(hash, region);
            tail_.prefix.push_back(digest.chain());
            ++to;
        });
    if (digest.value(base.staticIds) != frame.fingerprint) {
        return false;
    }

    if (frame.baseline) {
        policy_ = select::InstrumentationPolicy{};
        policy_.specName = "fleet";
        hashes_.clear();
        tiers_ = {};
    }
    merge.forEachDropped([&](std::size_t baseIndex) {
        tiers_.remove(policy_.regions[baseIndex]);
    });
    auto moveRun = [&](const Placement& run) {
        auto moveIn = [&](auto& list) {
            const auto first = list.begin() + run.from;
            if (run.to < run.from) {
                std::move(first, first + run.count, list.begin() + run.to);
            } else {
                std::move_backward(first, first + run.count,
                                   list.begin() + run.to + run.count);
            }
        };
        moveIn(policy_.functions);
        moveIn(policy_.regions);
        moveIn(hashes_);
    };
    // Every kept entry moves at most once. Runs moving left go first, front
    // to back; then the lists take their new size, and runs moving right
    // and the frame's entries go back to front. Either way a slot is only
    // written once its entry is dropped or has moved on.
    for (const Placement& placement : tail_.placements) {
        if (placement.name == nullptr && placement.to < placement.from) {
            moveRun(placement);
        }
    }
    policy_.functions.resize(to);
    policy_.regions.resize(to);
    hashes_.resize(to);
    for (auto it = tail_.placements.rbegin(); it != tail_.placements.rend();
         ++it) {
        if (it->name != nullptr) {
            policy_.functions[it->to] = *it->name;
            policy_.regions[it->to] = *it->region;
            hashes_[it->to] = it->hash;
            tiers_.add(*it->region);
        } else if (it->to > it->from) {
            moveRun(*it);
        }
    }
    prefix_.resize(keep + 1);
    prefix_.insert(prefix_.end(), tail_.prefix.begin(), tail_.prefix.end());
    return true;
}

FleetClient::FleetClient(Aggregator& aggregator, adapt::Controller& controller,
                         FleetClientOptions options)
    : FleetClient(aggregator, &controller, options) {}

FleetClient::FleetClient(Aggregator& aggregator, FleetClientOptions options)
    : FleetClient(aggregator, static_cast<adapt::Controller*>(nullptr),
                  options) {}

FleetClient::FleetClient(Aggregator& aggregator, adapt::Controller* controller,
                         FleetClientOptions options)
    : aggregator_(&aggregator), controller_(controller), options_(options) {
    session_ = aggregator_->connect();
    advanceWatermark(watermark_, cumulative_);
    // Late-joiner catch-up, client half: the baseline connect() queued is
    // adopted before the constructor returns, so the first epoch already
    // measures under the fleet's converged policy.
    lastReport_ = awaitPolicy();
}

FleetClient::~FleetClient() {
    // Best-effort Bye (exercises the wire path when a serve loop is
    // running), then the authoritative deregistration. Whichever lands
    // first wins; the loser is ignored.
    (void)aggregator_->dataChannel().trySend(
        encodeControlFrame(FrameType::Bye, session_.clientId));
    aggregator_->disconnect(session_.clientId);
}

adapt::EpochReport FleetClient::epoch(const scorep::ProfileTree& profile,
                                      const scorep::Measurement& measurement,
                                      double runtimeNs) {
    const SendResult sent = sendEpoch(profile, measurement, runtimeNs);
    if (sent != SendResult::Ok) {
        // Dropped (or the aggregator is gone): no fleet epoch closes on our
        // account, so there is no policy frame to wait for. The next
        // successful send coalesces this epoch.
        return lastReport_;
    }
    return awaitPolicy();
}

SendResult FleetClient::sendEpoch(const scorep::ProfileTree& profile,
                                  const scorep::Measurement& measurement,
                                  double runtimeNs) {
    // Injected death fires BEFORE the profile merges: the epoch leaves no
    // trace in the cumulative tree, so re-driving it after reconnect()
    // counts it exactly once.
    if (support::fault::shouldFail(support::fault::sites::kFleetClientDeath)) {
        throw ClientDeadError("injected client death before epoch send");
    }
    const ClientSpanNames& spans = clientSpanNames();
    cumulative_.mergeFrom(profile);

    DeltaFrame frame;
    frame.clientId = session_.clientId;
    frame.epoch = ++localEpoch_;
    frame.coveredEpochs = pendingEpochs_ + 1;
    frame.runtimeNs = pendingRuntimeNs_ + runtimeNs;
    frame.policyFingerprint = fingerprint_;

    obs::ScopedSpan encodeSpan(spans.encode, obs::SpanCategory::Fleet);
    frame.cct = scorep::extractCctDelta(cumulative_, watermark_);

    // First-use region defs: handles the aggregator has not acked yet, in
    // first-appearance order. A dropped frame's defs re-collect here next
    // time because sentRegions_ only advances on ack.
    std::unordered_set<scorep::RegionHandle> inFrame;
    auto maybeDefineRegion = [&](scorep::RegionHandle handle) {
        const bool acked =
            handle < sentRegions_.size() && sentRegions_[handle];
        if (acked || !inFrame.insert(handle).second) {
            return;
        }
        frame.newRegions.push_back(
            RegionDef{handle, measurement.region(handle).name});
    };
    for (const scorep::CctNewNode& node : frame.cct.newNodes) {
        maybeDefineRegion(node.region);
    }

    // Suppressed-visit deltas: cumulative gate counters differenced against
    // the last ACKED baseline, plus whatever dropped frames accumulated. A
    // fresh Measurement instance restarts the counters, so its values are
    // already deltas.
    const std::uint64_t instanceId = measurement.instanceId();
    auto suppressedNow = measurement.suppressedVisits();
    std::map<scorep::RegionHandle, std::uint64_t> deltas = pendingSuppressed_;
    for (const auto& [handle, count] : suppressedNow) {
        std::uint64_t base = 0;
        if (instanceId == measurementId_) {
            auto it = suppressedBase_.find(handle);
            base = it == suppressedBase_.end() ? 0 : it->second;
        }
        const std::uint64_t delta = count >= base ? count - base : count;
        if (delta > 0) {
            deltas[handle] += delta;
        }
    }
    for (const auto& [handle, delta] : deltas) {
        maybeDefineRegion(handle);
        frame.suppressed.push_back(SuppressedDelta{handle, delta});
    }

    std::vector<std::uint8_t> bytes = encodeDeltaFrame(frame);
    const std::size_t byteCount = bytes.size();
    encodeSpan.setArg(byteCount);
    encodeSpan.end();

    // A stall (client wedged past the epoch) and a frame drop (transport
    // ate the frame) are indistinguishable to the protocol: the frame never
    // arrives, nothing is acked, and the next successful send coalesces —
    // the exact Backpressure path, so both reuse it.
    const bool stallInjected =
        support::fault::shouldFail(support::fault::sites::kFleetClientStall);
    const bool dropInjected =
        !stallInjected &&
        support::fault::shouldFail(support::fault::sites::kFleetFrameDrop);
    SendResult result;
    if (stallInjected || dropInjected) {
        if (stallInjected) {
            ++stats_.stallsInjected;
        } else {
            ++stats_.dropsInjected;
        }
        result = SendResult::Backpressure;
    } else {
        obs::ScopedSpan sendSpan(spans.send, obs::SpanCategory::Fleet);
        sendSpan.setArg(byteCount);
        Channel& data = aggregator_->dataChannel();
        result = options_.blockingSend ? data.send(std::move(bytes))
                                       : data.trySend(std::move(bytes));
    }

    // Either way the baseline moves up to the counters just read; what
    // distinguishes ack from drop is whether the read deltas are consumed
    // or carried.
    suppressedBase_.clear();
    for (const auto& [handle, count] : suppressedNow) {
        suppressedBase_[handle] = count;
    }
    measurementId_ = instanceId;

    if (result == SendResult::Ok) {
        scorep::advanceWatermark(watermark_, cumulative_);
        for (const RegionDef& def : frame.newRegions) {
            if (def.handle >= sentRegions_.size()) {
                sentRegions_.resize(def.handle + 1, false);
            }
            sentRegions_[def.handle] = true;
        }
        runtimeShippedNs_ += frame.runtimeNs;
        epochsShipped_ += frame.coveredEpochs;
        for (const SuppressedDelta& entry : frame.suppressed) {
            suppressedShipped_[entry.region] += entry.visits;
        }
        pendingSuppressed_.clear();
        stats_.coalescedEpochs += pendingEpochs_;
        pendingEpochs_ = 0;
        pendingRuntimeNs_ = 0.0;
        ++stats_.framesSent;
        stats_.bytesSent += byteCount;
    } else {
        if (result == SendResult::Backpressure && !stallInjected &&
            !dropInjected) {
            ++stats_.droppedDeltas;
        }
        // Coalesce: watermark and region acks stay put; the runtime and
        // suppressed deltas ride the next frame.
        pendingSuppressed_ = std::move(deltas);
        ++pendingEpochs_;
        pendingRuntimeNs_ += runtimeNs;
    }
    return result;
}

adapt::EpochReport FleetClient::awaitPolicy() {
    const ClientSpanNames& spans = clientSpanNames();
    while (true) {
        auto bytes = session_.policyChannel->receive();
        if (!bytes.has_value()) {
            return lastReport_;  // aggregator shut down
        }
        PolicyFrame frame;
        try {
            const FrameType type = frameTypeOf(*bytes);
            if (type != FrameType::PolicyBaseline &&
                type != FrameType::PolicyUpdate) {
                continue;  // stray frame on a policy channel; ignore
            }
            frame = decodePolicyFrame(*bytes);
        } catch (const WireError&) {
            continue;  // defensive: in-process channels should never corrupt
        }
        ++stats_.policyFramesReceived;
        if (awaitingBaseline_ && !frame.baseline) {
            // Updates queued before our resync was handled: their diff base
            // is gone. The baseline is on its way.
            continue;
        }
        if (!frame.baseline && frame.prevFingerprint != fingerprint_) {
            requestResync();
            continue;
        }
        obs::ScopedSpan adoptSpan(spans.adopt, obs::SpanCategory::Fleet);
        // Commit only after the fingerprint verifies, so policy() always
        // matches policyFingerprint().
        if (!applyVerified(frame)) {
            if (frame.baseline) {
                // A baseline that does not reconstruct is not recoverable
                // by another resync (static IDs, say, are not carried on
                // the wire) — fail loudly rather than run diverged.
                throw WireError("baseline did not reconstruct the "
                                "advertised policy fingerprint");
            }
            requestResync();
            continue;
        }
        if (frame.baseline) {
            ++stats_.baselinesReceived;
        }
        fingerprint_ = frame.fingerprint;
        awaitingBaseline_ = false;
        // Restart detection: the incarnation moving means a different
        // aggregator process now holds (a restored copy of) our session.
        if (incarnation_ != 0 && frame.incarnation != incarnation_) {
            ++stats_.restartsDetected;
        }
        incarnation_ = frame.incarnation;
        adoptSpan.setArg(policy_.size());
        adoptSpan.end();

        adapt::EpochReport report = reportOf(frame);
        if (controller_ != nullptr) {
            report = controller_->adoptPolicy(policy_, report);
        }
        lastReport_ = report;
        return report;
    }
}

void FleetClient::requestResync() {
    ++stats_.resyncs;
    awaitingBaseline_ = true;
    (void)aggregator_->dataChannel().send(
        encodeControlFrame(FrameType::Resync, session_.clientId));
}

bool FleetClient::reconnect(Aggregator& aggregator) {
    aggregator_ = &aggregator;
    constexpr std::size_t kResumeAttempts = 5;
    support::Backoff backoff({}, session_.clientId);
    for (std::size_t attempt = 0; attempt < kResumeAttempts; ++attempt) {
        try {
            Aggregator::Session session =
                aggregator_->resume(session_.clientId);
            adoptResume(session);
            ++stats_.reconnects;
            ++stats_.sessionResumes;
            return true;
        } catch (const WireError&) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(backoff.nextDelayNs()));
        }
    }
    fullResync();
    ++stats_.reconnects;
    ++stats_.fullResyncs;
    return false;
}

void FleetClient::adoptResume(const Aggregator::Session& session) {
    const Aggregator::ResumeState& rs = session.resume;
    session_ = session;

    // Rewind to the acked state. Everything between the acked totals and
    // the local totals becomes pending, to coalesce onto the next delta.
    // The subtractions are exact: shipped and acked accumulate the same
    // per-frame values in the same order, so their partial sums are
    // bit-identical doubles.
    watermark_ = rs.watermark;
    pendingRuntimeNs_ = (runtimeShippedNs_ + pendingRuntimeNs_) - rs.runtimeNs;
    runtimeShippedNs_ = rs.runtimeNs;
    pendingEpochs_ = localEpoch_ - rs.coveredEpochs;
    epochsShipped_ = rs.coveredEpochs;

    std::map<scorep::RegionHandle, std::uint64_t> ackedSuppressed;
    for (const auto& [handle, count] : rs.suppressed) {
        ackedSuppressed[handle] = count;
    }
    std::map<scorep::RegionHandle, std::uint64_t> totals = pendingSuppressed_;
    for (const auto& [handle, count] : suppressedShipped_) {
        totals[handle] += count;
    }
    pendingSuppressed_.clear();
    for (const auto& [handle, total] : totals) {
        auto it = ackedSuppressed.find(handle);
        const std::uint64_t acked =
            it == ackedSuppressed.end() ? 0 : it->second;
        if (total > acked) {
            pendingSuppressed_[handle] = total - acked;
        }
    }
    suppressedShipped_ = std::move(ackedSuppressed);

    sentRegions_.assign(rs.ackedRegions.begin(), rs.ackedRegions.end());

    if (incarnation_ != 0 && rs.incarnation != incarnation_) {
        ++stats_.restartsDetected;
    }
    incarnation_ = rs.incarnation;

    // The policy chain continues from what the aggregator last sent us. If
    // we are behind (a broadcast refused while we were down), ask for a
    // baseline now; the reply rides the next epoch's policy frame.
    if (fingerprint_ != rs.lastPolicyFingerprint) {
        requestResync();
    }
}

void FleetClient::fullResync() {
    // Register as a brand-new client and replay the entire history in the
    // first delta. Only exact when the aggregator holds none of this
    // client's prior contributions (a fresh server after a failed restore);
    // against a server that kept our data this double-counts — which is why
    // it is strictly the last resort.
    session_ = aggregator_->connect();
    watermark_ = scorep::CctWatermark{};
    sentRegions_.clear();
    suppressedBase_.clear();
    for (const auto& [handle, count] : suppressedShipped_) {
        pendingSuppressed_[handle] += count;
    }
    suppressedShipped_.clear();
    pendingEpochs_ = localEpoch_;
    pendingRuntimeNs_ = runtimeShippedNs_ + pendingRuntimeNs_;
    runtimeShippedNs_ = 0.0;
    epochsShipped_ = 0;
    awaitingBaseline_ = true;
    lastReport_ = awaitPolicy();  // connect() queued a baseline
}

adapt::EpochReport FleetClient::reportOf(const PolicyFrame& frame) const {
    adapt::EpochReport report;
    report.epoch = frame.epoch;
    report.measuredOverheadRatio = frame.measuredOverheadRatio;
    report.withinBudget = frame.withinBudget;
    report.budgetNs = frame.budgetNs;
    report.policyFingerprint = frame.fingerprint;
    report.icSize = policy_.size();
    report.fullRegions = tiers_.full;
    report.sampledRegions = tiers_.sampled;
    return report;
}

}  // namespace capi::fleet

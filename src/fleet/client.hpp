// The producer side of fleet aggregation.
//
// A FleetClient wraps one process's adaptive loop: instead of planning
// privately, it encodes the epoch's CCT delta against the last acknowledged
// watermark, ships it to the Aggregator over the shared data channel, and
// adopts the converged policy the aggregator pushes back on this client's
// private policy channel (Controller::adoptPolicy, which repatches a
// controller whose live policy diverged from the converged one).
//
// Late-joiner protocol, client half: construction connects, then blocks on
// the policy channel for the full-policy baseline the aggregator queues at
// connect() — so a client that joins mid-fleet is converged before its
// first epoch. After the baseline, policy frames are deltas chained by
// fingerprint; a broken chain triggers a Resync request and the client
// discards updates until the fresh baseline arrives.
//
// Backpressure, client half: with `blockingSend` (default) the client
// stalls in the channel until the aggregator drains — epochs stay lossless.
// Without it, a full queue DROPS the frame and the client keeps its
// watermark, suppressed-counter baselines and runtime accumulator
// unadvanced: the next frame coalesces the missed epochs (coveredEpochs >
// 1), so the fleet profile stays exact either way.
//
// Handle-stability contract: the cumulative tree, the acked-region-def
// bookkeeping and the suppressed baselines are all indexed by this
// client's region HANDLES, and a def is shipped exactly once per handle —
// so the (handle -> name) mapping must stay stable for the client's
// lifetime. Either keep one Measurement per client, or, when every epoch
// uses a fresh Measurement instance, define the full region-name universe
// in a fixed order before events fire so repatching can never renumber
// handles by changing first-sighting order. A renumbered handle would
// silently alias another region's history on the aggregator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "adapt/controller.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/channel.hpp"
#include "fleet/wire.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_delta.hpp"
#include "select/ic.hpp"

namespace capi::fleet {

/// Raised by the fleet.client_death fault site at the top of sendEpoch,
/// BEFORE the epoch's profile merges into the cumulative tree — so a caller
/// that reconnect()s can re-drive the same epoch without double counting.
class ClientDeadError : public support::Error {
public:
    explicit ClientDeadError(const std::string& what)
        : support::Error("fleet client: " + what) {}
};

struct FleetClientOptions {
    /// true: send() and stall under backpressure (lossless). false:
    /// trySend() and drop-and-coalesce (bounded producer latency).
    bool blockingSend = true;
};

/// Cumulative client-side counters.
struct FleetClientStats {
    std::uint64_t framesSent = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t droppedDeltas = 0;    ///< trySend frames refused on full.
    std::uint64_t coalescedEpochs = 0;  ///< Epochs riding a later frame.
    std::uint64_t policyFramesReceived = 0;
    std::uint64_t baselinesReceived = 0;
    std::uint64_t resyncs = 0;
    // --- fault-tolerance accounting --------------------------------------
    std::uint64_t stallsInjected = 0;  ///< fleet.client_stall fires (coalesced).
    std::uint64_t dropsInjected = 0;   ///< fleet.frame_drop fires (coalesced).
    std::uint64_t reconnects = 0;      ///< reconnect() calls that recovered.
    std::uint64_t sessionResumes = 0;  ///< ... via the resume protocol.
    std::uint64_t fullResyncs = 0;     ///< ... via the register-fresh fallback.
    std::uint64_t restartsDetected = 0;  ///< Policy frames whose incarnation
                                         ///< moved (aggregator restarted).
};

class FleetClient {
public:
    /// Controller-attached: `controller` must have start()ed (its survey
    /// policy applied) — the constructor connects and immediately adopts
    /// the aggregator's baseline through Controller::adoptPolicy, which is
    /// a no-op for a fresh fleet and a catch-up repatch for a late joiner.
    /// Both references must outlive the client.
    FleetClient(Aggregator& aggregator, adapt::Controller& controller,
                FleetClientOptions options = {});
    /// Headless: tracks the converged policy internally without driving a
    /// Controller/DynCapi — the shape soak tests run thousands of.
    explicit FleetClient(Aggregator& aggregator,
                         FleetClientOptions options = {});
    ~FleetClient();

    FleetClient(const FleetClient&) = delete;
    FleetClient& operator=(const FleetClient&) = delete;

    /// One fleet epoch: sendEpoch + awaitPolicy. With blocking sends, every
    /// client's controller leaves the epoch on the one converged policy.
    adapt::EpochReport epoch(const scorep::ProfileTree& profile,
                             const scorep::Measurement& measurement,
                             double runtimeNs);

    /// First half: folds `profile` (this epoch's tree, as passed to
    /// Controller::epoch) into the cumulative tree, extracts the delta
    /// since the last ack and ships it. Ok advances the watermark;
    /// Backpressure (non-blocking mode only) leaves everything unadvanced
    /// to coalesce. `measurement` supplies region names and suppressed
    /// counters and must be this client's own (fleet clients never share
    /// one — cumulative counters would multiply-count across frames).
    SendResult sendEpoch(const scorep::ProfileTree& profile,
                         const scorep::Measurement& measurement,
                         double runtimeNs);

    /// Second half: blocks for the aggregator's policy frame, applies the
    /// delta (or baseline), verifies the fingerprint chain (Resync on
    /// mismatch), and adopts the result into the controller if attached.
    /// Returns the epoch report as this client experienced it. A closed
    /// policy channel (aggregator shut down) returns the last report.
    adapt::EpochReport awaitPolicy();

    /// Recovers the session after a failure (injected client death, or an
    /// aggregator crash + restore): retries Aggregator::resume() under
    /// backoff (jitter seeded with the client id, so a fleet of reconnecting
    /// clients desynchronizes deterministically), rewinding the local
    /// watermark/region/suppressed/runtime bookkeeping to the returned acked
    /// state so the next delta coalesces everything unacknowledged — by
    /// construction it sums to exactly what an uninterrupted run would have
    /// shipped. After five failed attempts it falls back to registering as a
    /// brand new client whose first delta replays the FULL cumulative history;
    /// that fallback is only exact against an aggregator holding none of
    /// this client's data (the fresh-server-after-failed-restore case).
    /// Returns true on a session resume, false on the fallback. `aggregator`
    /// may be a different (restored) instance than the one connected to.
    bool reconnect(Aggregator& aggregator);

    std::uint64_t clientId() const { return session_.clientId; }
    /// The aggregator-owned channel this client's policy frames arrive on
    /// (replaced by reconnect()).
    Channel& policyChannel() const { return *session_.policyChannel; }
    /// Last aggregator incarnation observed on a policy frame (0 until the
    /// first frame arrives).
    std::uint64_t aggregatorIncarnation() const { return incarnation_; }
    /// Fingerprint of the policy this client currently runs.
    std::uint64_t policyFingerprint() const { return fingerprint_; }
    const select::InstrumentationPolicy& policy() const { return policy_; }
    const adapt::EpochReport& lastReport() const { return lastReport_; }
    const FleetClientStats& stats() const { return stats_; }

private:
    FleetClient(Aggregator& aggregator, adapt::Controller* controller,
                FleetClientOptions options);

    /// Applies `frame` to policy_ (to nothing, for a baseline) only if the
    /// result hashes to the frame's fingerprint; returns whether it did.
    /// Only the tail from the frame's first change on is digested, and only
    /// on a match is it replaced (in policy_, hashes_, prefix_ and tiers_);
    /// on a mismatch nothing but the tail_ scratch has changed.
    bool applyVerified(const PolicyFrame& frame);
    void requestResync();
    adapt::EpochReport reportOf(const PolicyFrame& frame) const;
    /// Rewinds local bookkeeping to a resume()'s acked state.
    void adoptResume(const Aggregator::Session& session);
    /// The register-fresh fallback: new session, full-history first delta.
    void fullResync();

    Aggregator* aggregator_;
    adapt::Controller* controller_;  ///< nullptr in headless mode.
    FleetClientOptions options_;
    Aggregator::Session session_;

    /// The client's whole history: per-epoch profiles merge in here, deltas
    /// extract against watermark_.
    scorep::ProfileTree cumulative_;
    scorep::CctWatermark watermark_;
    /// Region handles whose (handle -> name) def was acked by the
    /// aggregator; indexed by handle.
    std::vector<bool> sentRegions_;
    /// Cumulative suppressed-visit counters at the last acked frame, keyed
    /// by region handle (reset when the Measurement instance changes).
    std::unordered_map<scorep::RegionHandle, std::uint64_t> suppressedBase_;
    /// Suppressed deltas from dropped frames, carried until the next ack
    /// (ordered so re-encoded frames stay byte-deterministic).
    std::map<scorep::RegionHandle, std::uint64_t> pendingSuppressed_;
    std::uint64_t measurementId_ = 0;

    std::uint64_t localEpoch_ = 0;
    /// Drop-and-coalesce accumulators: epochs/runtime not yet acked.
    std::uint64_t pendingEpochs_ = 0;
    double pendingRuntimeNs_ = 0.0;
    /// Shipped (Ok-sent) totals, accumulated in frame order — the same
    /// order the aggregator accumulates its acked mirror, so the rewind
    /// arithmetic in adoptResume() reproduces identical partial sums.
    double runtimeShippedNs_ = 0.0;
    std::uint64_t epochsShipped_ = 0;
    std::map<scorep::RegionHandle, std::uint64_t> suppressedShipped_;

    select::InstrumentationPolicy policy_;
    /// support::fnv1a of each name, parallel to policy_.functions: the part
    /// of the fingerprint an entry kept across frames need not recompute.
    std::vector<std::uint64_t> hashes_;
    /// PolicyDigest::chain() before the first entry and after each entry
    /// of policy_ (size() + 1 values): a frame resumes the digest at its
    /// first change instead of rechaining the entries it keeps.
    std::vector<std::uint64_t> prefix_{select::PolicyDigest{}.chain()};
    /// policy_.countOf(Full) and countOf(Sampled), adjusted per frame.
    struct TierCounts {
        std::size_t full = 0;
        std::size_t sampled = 0;
        void add(const select::RegionPolicy& region);
        void remove(const select::RegionPolicy& region);
    };
    TierCounts tiers_;
    /// A stretch of a verified frame's result that is not yet where it
    /// belongs: `count` kept entries moving from index `from` to `to`, or
    /// (name set) the one entry the frame supplies at `to`.
    struct Placement {
        std::size_t to = 0;
        std::size_t from = 0;
        std::size_t count = 0;
        const std::string* name = nullptr;
        const select::RegionPolicy* region = nullptr;
        std::uint64_t hash = 0;
    };
    /// applyVerified's scratch for the tail from a frame's first change on,
    /// kept for its capacity: the digest chain after each tail entry, and
    /// the placements that move the kept entries and insert the frame's.
    struct Tail {
        std::vector<std::uint64_t> prefix;
        std::vector<Placement> placements;
    };
    Tail tail_;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t incarnation_ = 0;  ///< 0 = no policy frame seen yet.
    bool awaitingBaseline_ = true;
    adapt::EpochReport lastReport_;
    FleetClientStats stats_;
};

}  // namespace capi::fleet

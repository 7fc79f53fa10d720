// The fleet aggregation server: one controller, thousands of producers.
//
// Clients stream per-epoch CCT deltas (fleet/wire.hpp) into a bounded MPSC
// data channel; the aggregator merges them into a fleet-wide ProfileTree
// under epochal snapshots, hands each epoch's observations to an
// adapt::Decider — the same decision core an in-process Controller runs —
// and pushes the one converged policy back out to every client as a policy
// delta on its private channel.
//
// Epoch discipline: fleet epoch E closes when every connected client has an
// unconsumed delta frame; frames beyond the first stay queued for E+1, so a
// fast producer never outruns the epoch structure. Closing an epoch:
//   1. folds each client's oldest frame into the fleet tree in ascending
//      client-id order (the floating-point runtime sum must match a
//      reference controller's rank-order sum bit for bit),
//   2. differences the cumulative fleet totals against the last epoch's
//      snapshot into per-epoch observations, keyed by the Decider's region
//      id of each fleet handle (resolved once, when the region's definition
//      is interned),
//   3. decides the next policy from them (adapt::Decider::decide),
//   4. publishes the adopted policy once (an immutable shared snapshot
//      carrying its fingerprint) and broadcasts it: each distinct diff base
//      is diffed and encoded once, so every client that saw the previous
//      policy gets a copy of one shared update frame (upserts + removals);
//      a client anchored elsewhere gets its own diff, and fresh or
//      resyncing clients a full baseline. A client whose fingerprint chain
//      breaks asks for a resync instead of running diverged
//      (fleet/client.hpp).
//
// Determinism: given the same per-client epoch streams, the converged
// policy fingerprints are bit-identical to one reference Controller whose
// epoch() gets, each epoch, the rank-order merge of the same profiles and
// the rank-order sum of their runtimes — the property the tests pin. That
// is why merge order and runtime summation order are fixed here rather than
// left to arrival order; the model's fold does not depend on the order its
// observations (or their region ids) arrive in.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "adapt/config.hpp"
#include "adapt/decider.hpp"
#include "fleet/channel.hpp"
#include "fleet/wire.hpp"
#include "scorepsim/profile.hpp"
#include "scorepsim/profile_delta.hpp"
#include "select/ic.hpp"

namespace capi::fleet {

/// Raised by the fleet.aggregator_crash fault site at the top of an epoch
/// close, before any state mutates — the simulation stand-in for the server
/// process dying. Tests catch it, discard the aggregator, and restore a twin
/// from the last checkpoint.
class AggregatorCrashError : public support::Error {
public:
    explicit AggregatorCrashError(const std::string& what)
        : support::Error("fleet aggregator: " + what) {}
};

/// Epoch liveness policy for the fleet's epoch close only (mpi::
/// CollectivePolicy governs the simulated application's own collectives;
/// neither does the other's job). With both knobs set, a fleet epoch no longer waits forever for every client — it
/// closes once `timeoutNs` has elapsed since the epoch's first delta arrived
/// and at least `quorum` clients have one pending. Clients that miss a
/// timeout close are Lagging; `graceEpochs` consecutive misses evict them
/// from the epoch completion rule (their session state is RETAINED, so a
/// returning client resumes with one coalesced delta instead of a full
/// resync). Defaults keep the strict rule: every connected client blocks the
/// epoch, no timeouts, no eviction.
struct EpochPolicy {
    /// 0 = strict (never close on time). Measured from the first delta
    /// queued into an open epoch.
    std::uint64_t timeoutNs = 0;
    /// Minimum clients with a pending frame before a timeout may close the
    /// epoch. 0 = strict; a timeout close never merges zero frames.
    std::size_t quorum = 0;
    /// Consecutive missed epochs before a Lagging client is evicted
    /// (0 = lag forever, never evict).
    std::size_t graceEpochs = 2;
};

struct AggregatorOptions {
    /// Bounded MPSC queue all clients send delta frames into. Memory is
    /// capped at capacity x frame size; producers feel backpressure here.
    std::size_t dataQueueCapacity = 256;
    /// Per-client policy queue (aggregator -> client).
    std::size_t policyQueueCapacity = 8;
    /// Decider knobs — the same Config an in-process Controller takes, so
    /// reference runs and fleet runs share every constant.
    adapt::Config config;
    /// Liveness rule for epoch completion (strict by default).
    EpochPolicy epochPolicy;
};

/// Cumulative counters; snapshot under the aggregator lock. Counters are
/// per-incarnation: a restored aggregator starts them fresh (except
/// `restores`), because the property tests compare fleet state — totals and
/// fingerprints — not operational history.
struct AggregatorStats {
    std::uint64_t framesMerged = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;     ///< Policy frames, encoded size.
    std::uint64_t policyFramesSent = 0;
    /// Policy frames encoded. One broadcast encodes one frame per distinct
    /// diff base, however many clients it is sent to.
    std::uint64_t policyFramesEncoded = 0;
    std::uint64_t epochsCompleted = 0;
    std::uint64_t decodeErrors = 0;  ///< WireError frames dropped at the door.
    std::uint64_t resyncs = 0;
    /// Merged frames measured under a policy other than the published one,
    /// summed over epochs.
    std::uint64_t divergentClients = 0;
    std::uint64_t clientsConnected = 0;
    std::uint64_t clientsDisconnected = 0;
    // --- liveness / fault-tolerance accounting ---------------------------
    std::uint64_t timeoutEpochs = 0;   ///< Epochs closed by the liveness rule.
    std::uint64_t missedFrames = 0;    ///< Client-epochs merged without a frame.
    std::uint64_t evictions = 0;       ///< Clients dropped after graceEpochs.
    std::uint64_t resumes = 0;         ///< Evicted clients whose next delta
                                       ///< re-admitted them (auto-resume).
    std::uint64_t sessionResumes = 0;  ///< resume() handshakes served.
    std::uint64_t laggingPolicyDrops = 0;  ///< Broadcasts a lagging client's
                                           ///< full queue refused (trySend).
    std::uint64_t abandonedClients = 0;    ///< Still registered at serve() exit.
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t crashes = 0;   ///< Injected aggregator_crash fires.
    std::uint64_t restores = 0;  ///< 1 on an aggregator built from a snapshot.
};

class Aggregator {
public:
    /// Everything a returning client needs to continue its session instead
    /// of resyncing from scratch: the watermark/region/suppressed state the
    /// aggregator last ACKED, so the client rewinds its own bookkeeping to
    /// that point and its next delta coalesces everything since.
    struct ResumeState {
        /// The acked watermark, in CLIENT node ids — the client adopts it
        /// verbatim (its tree is append-only, so ids still line up).
        scorep::CctWatermark watermark;
        /// Region handles whose defs the aggregator holds; indexed by the
        /// client's handle.
        std::vector<bool> ackedRegions;
        /// Cumulative acked suppressed visits per client handle, sorted.
        std::vector<std::pair<std::uint32_t, std::uint64_t>> suppressed;
        double runtimeNs = 0.0;         ///< Cumulative acked runtime.
        std::uint64_t coveredEpochs = 0;  ///< Cumulative acked epoch count.
        /// Fingerprint of the policy this client was last sent — the diff
        /// base the next policy frame will chain from.
        std::uint64_t lastPolicyFingerprint = 0;
        std::uint64_t incarnation = 1;
    };

    /// What connect() hands a client: its id and the channel its policy
    /// frames arrive on (owned by the aggregator, valid until disconnect).
    /// resume() additionally fills `resume` and sets `resumed`.
    struct Session {
        std::uint64_t clientId = 0;
        Channel* policyChannel = nullptr;
        bool resumed = false;
        ResumeState resume;
    };

    /// `graph` must outlive the aggregator (the planner's SCC grouping).
    /// `surveyIc` is the candidate set every epoch replans over — the same
    /// survey the clients' controllers started from.
    Aggregator(const cg::CallGraph& graph, select::InstrumentationConfig surveyIc,
               AggregatorOptions options = {});
    /// Restores from a checkpoint() snapshot: the rebuilt aggregator
    /// continues bit-identically to an uninterrupted twin fed the same
    /// subsequent frames, under the next incarnation. `surveyIc` must be the
    /// survey the snapshot was accumulated against (fingerprint-checked).
    /// Throws WireError on a corrupt/mismatched snapshot — callers fall back
    /// to a fresh aggregator and a fleet-wide resync.
    Aggregator(const cg::CallGraph& graph, select::InstrumentationConfig surveyIc,
               const std::vector<std::uint8_t>& snapshot,
               AggregatorOptions options = {});
    ~Aggregator();

    Aggregator(const Aggregator&) = delete;
    Aggregator& operator=(const Aggregator&) = delete;

    /// Registers a client and immediately queues its catch-up baseline (the
    /// current converged policy) on the returned policy channel — the
    /// late-joiner protocol's first half. Thread-safe.
    Session connect();
    /// Re-admits a known client after a disconnect-less failure (client
    /// crash, aggregator restart): hands back a fresh policy channel plus
    /// the ResumeState the client rewinds to. Clears any eviction. Throws
    /// WireError when the session is unknown (the client must connect()
    /// fresh and resync) or when the fleet.frame_drop site eats the
    /// handshake (the client retries under backoff). Thread-safe.
    Session resume(std::uint64_t clientId);
    /// Deregisters; pending frames from this client are discarded and the
    /// epoch completion rule stops waiting for it. Unknown ids are ignored
    /// (a Bye frame may race a direct disconnect).
    void disconnect(std::uint64_t clientId);

    /// Byte-deterministic snapshot of the aggregator's complete state —
    /// same state, same bytes — sealed like every other wire frame. Restore
    /// with the snapshot constructor.
    std::vector<std::uint8_t> checkpoint();

    /// The shared ingress every client sends delta/control frames into.
    Channel& dataChannel() { return data_; }

    /// Drains every frame currently queued and closes the fleet epoch if
    /// complete. Non-blocking; returns true when any frame was processed or
    /// an epoch closed. For tests that single-step the server.
    bool pump();
    /// Blocking serve loop for a dedicated thread: receives until stop()
    /// (or dataChannel().close()) and processes epochs as they complete.
    void serve();
    void stop();

    std::uint64_t epochsCompleted() const;
    /// 1 for a fresh aggregator; previous + 1 after every snapshot restore.
    std::uint64_t incarnation() const;
    /// Divergence *diagnosis* from the last closed epoch: the region-level
    /// diff between the policy a divergent client reported measuring under
    /// and the reducer's converged policy — names, not just a fingerprint
    /// mismatch count. Empty when the last epoch had no divergent client.
    select::PolicyDelta lastDivergence() const;
    /// Fingerprint of the latest converged policy.
    std::uint64_t convergedFingerprint() const;
    /// The Decider's kill-switch has the fleet on the keep-only policy.
    bool safeMode() const;
    select::InstrumentationPolicy convergedPolicy() const;
    /// Cumulative per-region-name totals of the fleet profile.
    std::map<std::string, scorep::ProfileTree::RegionTotals> totalsByName() const;
    AggregatorStats stats() const;
    std::size_t clientCount() const;

private:
    /// One published policy: immutable once built, so every client whose
    /// diff base it is can share it instead of holding a private copy. The
    /// fingerprint is computed once, here.
    struct PublishedPolicy {
        explicit PublishedPolicy(select::InstrumentationPolicy p)
            : policy(std::move(p)), fingerprint(policy.fingerprint()) {}
        const select::InstrumentationPolicy policy;
        const std::uint64_t fingerprint;
    };
    using PublishedPtr = std::shared_ptr<const PublishedPolicy>;
    /// The empty policy: what a client that never received a frame has.
    static const PublishedPtr& nothingSent();
    /// Equal in every field a checkpoint encodes (sampling specs included).
    static bool samePolicy(const select::InstrumentationPolicy& a,
                           const select::InstrumentationPolicy& b);

    struct ClientState {
        std::uint64_t id = 0;
        std::unique_ptr<Channel> policyChannel;
        /// Client node id -> fleet node id (grows as the client's tree does).
        std::vector<std::uint32_t> idMap;
        /// Client region handle -> fleet region handle.
        std::vector<scorep::RegionHandle> regionMap;
        std::deque<DeltaFrame> pending;
        /// The policy this client last received, the diff base for the next
        /// policy frame. A broken chain (resync) falls back to a baseline.
        PublishedPtr lastSent = nothingSent();
        bool needsBaseline = false;
        // --- acked session state, updated at INGEST (not merge) so a
        // checkpoint that also carries the pending queue is self-consistent,
        // and a resume() rewinds the client to exactly what was received.
        /// Copy of the client's watermark after its last acked frame
        /// (client-side node ids; counters are exact — monotone integers).
        scorep::CctWatermark acked;
        /// Cumulative acked suppressed visits, by client handle.
        std::map<std::uint32_t, std::uint64_t> suppressedAcked;
        double runtimeAckedNs = 0.0;
        std::uint64_t epochsAcked = 0;
        // --- liveness ----------------------------------------------------
        bool evicted = false;
        std::uint64_t missedEpochs = 0;  ///< Consecutive timeout-close misses.
    };

    void restoreFromSnapshot(const SnapshotFrame& snap);
    std::vector<std::uint8_t> checkpointLocked();
    void handleFrame(const std::vector<std::uint8_t>& bytes);
    bool epochReady() const;
    /// True when the liveness policy is armed, an epoch is open past its
    /// timeout, and quorum is met.
    bool timeoutClosable(std::uint64_t nowNs) const;
    void closeEpoch(bool timedOut);
    /// Publishes decider_.policy(); called after every Decider start,
    /// adopt and restoreState, so published_ always mirrors it. A policy
    /// equal to the published one keeps published_ as it is.
    void publish();
    /// Encodes the frame that moves a client from `base` to the published
    /// policy: a baseline when `base` is null, else an update whose upserts
    /// follow policy order and whose removals follow `base` order (empty,
    /// without a merge, when `base` is published_ itself).
    std::vector<std::uint8_t> encodePolicyFrameFrom(const PublishedPolicy* base);
    /// Sends `bytes`, the frame encodePolicyFrameFrom() built for this
    /// client's base. blocking=false is the Lagging-client path: trySend,
    /// and on refusal leave the diff chain anchored (never block the epoch
    /// pipeline on a stalled client's full queue).
    void sendPolicyTo(ClientState& client, std::vector<std::uint8_t> bytes,
                      bool blocking = true);
    scorep::RegionHandle fleetHandleFor(ClientState& client,
                                        std::uint32_t clientHandle);
    /// Cumulative totals per fleet region handle; regions without a
    /// fleet-tree node are std::nullopt.
    using TotalsByHandle =
        std::vector<std::optional<scorep::ProfileTree::RegionTotals>>;
    TotalsByHandle totalsByHandleLocked() const;

    const cg::CallGraph* graph_;
    AggregatorOptions options_;
    Channel data_;

    mutable std::mutex mutex_;
    std::map<std::uint64_t, ClientState> clients_;  // ordered: merge order.
    /// Channels of departed clients, kept alive until destruction so a
    /// receiver still blocked on one wakes on close() instead of reading
    /// freed memory.
    std::vector<std::unique_ptr<Channel>> parkedChannels_;
    std::uint64_t nextClientId_ = 0;
    bool stopped_ = false;

    // --- the fleet-wide profile ------------------------------------------
    scorep::ProfileTree fleetTree_;
    /// Fleet-side region interning: name <-> dense handle.
    std::vector<std::string> regionNames_;
    std::map<std::string, scorep::RegionHandle> regionIds_;
    /// Fleet handle -> the Decider's region id, filled as regions intern.
    std::vector<adapt::RegionId> modelIds_;
    /// Cumulative totals per fleet handle at the last closed epoch; the
    /// difference against the current totals is the epoch's observation.
    TotalsByHandle lastTotals_;

    // --- the fleet's decision state ----------------------------------------
    adapt::Decider decider_;
    /// decider_.policy() as published to the clients.
    PublishedPtr published_;
    std::uint64_t epochsCompleted_ = 0;
    std::uint64_t incarnation_ = 1;
    /// nowNs() when the open epoch's first delta was ingested; 0 = no epoch
    /// open. The liveness timeout measures from here.
    std::uint64_t epochOpenedAtNs_ = 0;
    /// Diagnosis from the last epoch's divergent client (see lastDivergence).
    select::PolicyDelta lastDivergence_;
    /// Last epoch's headline numbers, repeated on catch-up/resync frames.
    double lastRatio_ = 0.0;
    double lastBudgetNs_ = 0.0;
    bool lastWithinBudget_ = true;

    AggregatorStats stats_;
    std::uint64_t metricsCollectorId_ = 0;
};

}  // namespace capi::fleet

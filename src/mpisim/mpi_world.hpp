// In-process MPI simulation with a PMPI interception layer.
//
// Ranks run on std::thread and synchronize through generation barriers.
// Time is *virtual*: every rank carries its own virtual clock (advanced by
// the execution engine's work model); blocking operations complete at the
// latest participating clock plus an operation latency, exactly like a
// perfectly synchronizing network. This makes POP efficiency metrics
// deterministic and meaningful even on a single-core host, while the real
// threads still pay real wall-clock costs for the instrumentation hooks.
//
// The PMPI layer mirrors the MPI profiling interface: a registered
// interceptor sees every operation with the rank's virtual clock before and
// after — that is all TALP needs (paper Sec. III-B).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "support/backoff.hpp"
#include "support/error.hpp"

namespace capi::mpi {

enum class OpKind : std::uint8_t {
    Init,
    Finalize,
    Barrier,
    Allreduce,
    Bcast,
    HaloExchange,
};

const char* opName(OpKind op);

/// Virtual latencies per operation, in nanoseconds.
struct LatencyModel {
    double barrierNs = 2000;
    double allreduceNs = 4000;
    double bcastNs = 3000;
    double haloExchangeNs = 5000;
    double initNs = 50000;
    double finalizeNs = 10000;

    double latencyOf(OpKind op) const;
};

/// How collectives behave when ranks die or straggle. Default: classic MPI —
/// wait forever, any missing rank hangs the world.
struct CollectivePolicy {
    /// Wall-clock budget a blocked rank grants the rest of the world before
    /// it starts evicting stragglers. 0 = wait forever (no eviction).
    std::uint64_t timeoutNs = 0;
    /// Minimum number of arrived ranks required to evict the stragglers and
    /// complete the collective without them. 0 = the full world (strict), so
    /// a timeout below full attendance aborts instead of evicting.
    int quorum = 0;
    /// Poll schedule while blocked: each wait slice grows by this backoff,
    /// so a near-on-time world costs fine-grained checks and a hung one
    /// converges to long sleeps.
    support::BackoffOptions backoff{};
    std::uint64_t backoffSeed = 0;
};

/// Thrown on a rank that has been dropped from the world (self-inflicted
/// fault injection, explicit dropRank, or straggler eviction by a quorum).
/// runRanks treats it as a tolerated death, not a failure: the rank thread
/// winds down quietly while the survivors keep collectively syncing.
class RankDroppedError : public support::Error {
public:
    explicit RankDroppedError(int rank)
        : Error("MPI: rank " + std::to_string(rank) +
                " was dropped from the world"),
          rank_(rank) {}
    int rank() const noexcept { return rank_; }

private:
    int rank_;
};

/// PMPI-style interceptor: called around every MPI operation.
class PmpiInterceptor {
public:
    virtual ~PmpiInterceptor() = default;
    /// Before the op blocks. `virtualNow` is the rank's compute clock.
    virtual void preOp(int rank, OpKind op, double virtualNow) {
        (void)rank; (void)op; (void)virtualNow;
    }
    /// After the op completes. `mpiNs` = virtual time spent inside MPI.
    virtual void postOp(int rank, OpKind op, double virtualNowAfter, double mpiNs) {
        (void)rank; (void)op; (void)virtualNowAfter; (void)mpiNs;
    }
    virtual void onInit(int rank) { (void)rank; }
    virtual void onFinalize(int rank) { (void)rank; }
};

class MpiWorld {
public:
    explicit MpiWorld(int worldSize, LatencyModel latency = {});

    int worldSize() const { return worldSize_; }
    /// Atomic: ranks mid-runOp read it without the lock. Installing is safe
    /// any time; *uninstalling* requires the ranks to be quiescent (the
    /// interceptor may already have been loaded by an in-flight op).
    void setInterceptor(PmpiInterceptor* interceptor) {
        interceptor_.store(interceptor, std::memory_order_release);
    }

    /// All operations take the rank's current virtual clock and return the
    /// clock after the operation. They throw support::Error after abort().
    double init(int rank, double virtualNow);
    double finalize(int rank, double virtualNow);
    double barrier(int rank, double virtualNow);
    double allreduce(int rank, double virtualNow);
    double bcast(int rank, double virtualNow);
    double haloExchange(int rank, double virtualNow);

    bool initialized(int rank) const;
    bool finalized(int rank) const;

    /// Installs the fault-tolerance policy for subsequent collectives. Call
    /// while the ranks are quiescent (like setInterceptor's uninstall rule).
    void setCollectivePolicy(CollectivePolicy policy);

    /// Removes a rank from the world. The rank's next collective throws
    /// RankDroppedError; a collective currently blocked on this rank
    /// completes over the remaining arrived-or-dropped set. Idempotent.
    void dropRank(int rank);
    bool rankDropped(int rank) const;
    std::vector<int> droppedRanks() const;
    int liveRankCount() const;

    /// Wakes every blocked rank with an error; used when a rank thread dies.
    void abort();
    bool aborted() const;

    /// Per-rank accumulated virtual MPI time (diagnostics).
    double mpiTimeNs(int rank) const;

private:
    /// Generation barrier collecting every rank's clock; returns the
    /// completion clock for this rank as computed by `completionFn` from all
    /// deposited clocks.
    double collectiveSync(int rank, double virtualNow, OpKind op,
                          const std::function<double(const std::vector<double>&, int)>&
                              completionFn);

    double runOp(int rank, double virtualNow, OpKind op);

    /// True when a generation is pending and every rank has either deposited
    /// its clock or been dropped — the completion condition that lets the
    /// world make progress without its dead ranks.
    bool generationCompleteLocked() const;

    /// Computes completion clocks from the arrived ranks' clocks (missing
    /// ranks masked to -infinity, which both max-based completion functions
    /// ignore) and releases the generation.
    void completeGenerationLocked();

    /// The timeout-armed wait path: sleeps in backoff-sized slices; when the
    /// deadline passes with the generation still hung, evicts the live
    /// not-arrived ranks if a quorum is present, else aborts the world.
    void waitWithTimeoutLocked(std::unique_lock<std::mutex>& lock,
                               std::uint64_t myGeneration);

    int worldSize_;
    LatencyModel latency_;
    std::atomic<PmpiInterceptor*> interceptor_{nullptr};

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<double> clocks_;
    int arrived_ = 0;
    std::uint64_t generation_ = 0;
    std::vector<double> completions_;
    bool abort_ = false;

    CollectivePolicy policy_;
    std::vector<char> dropped_;      ///< Rank removed from the world.
    std::vector<char> arrivedFlag_;  ///< Deposited into the pending generation.
    /// The pending generation's completion function, copied from the
    /// arriving ranks (equivalent by contract) so completion triggered from
    /// dropRank or straggler eviction can run it without an arrival.
    std::function<double(const std::vector<double>&, int)> pendingCompletionFn_;

    std::vector<bool> initialized_;
    std::vector<bool> finalized_;
    std::vector<double> mpiTimeNs_;
};

/// Runs `body(rank)` on one thread per rank. If any body throws, the world
/// is aborted (unblocking the other ranks) and the first error is rethrown.
void runRanks(MpiWorld& world, const std::function<void(int)>& body);

}  // namespace capi::mpi

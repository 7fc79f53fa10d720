#include "mpisim/mpi_world.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace capi::mpi {

namespace {

/// Interned trace names for the collective ops, resolved once.
std::uint32_t collectiveNameId(OpKind op) {
    static const std::array<std::uint32_t, 6> ids = [] {
        obs::TraceRecorder& r = obs::TraceRecorder::global();
        return std::array<std::uint32_t, 6>{
            r.internName(opName(OpKind::Init)),
            r.internName(opName(OpKind::Finalize)),
            r.internName(opName(OpKind::Barrier)),
            r.internName(opName(OpKind::Allreduce)),
            r.internName(opName(OpKind::Bcast)),
            r.internName(opName(OpKind::HaloExchange))};
    }();
    return ids[static_cast<std::size_t>(op)];
}

}  // namespace

const char* opName(OpKind op) {
    switch (op) {
        case OpKind::Init: return "MPI_Init";
        case OpKind::Finalize: return "MPI_Finalize";
        case OpKind::Barrier: return "MPI_Barrier";
        case OpKind::Allreduce: return "MPI_Allreduce";
        case OpKind::Bcast: return "MPI_Bcast";
        case OpKind::HaloExchange: return "MPI_Sendrecv";
    }
    return "MPI_<unknown>";
}

double LatencyModel::latencyOf(OpKind op) const {
    switch (op) {
        case OpKind::Init: return initNs;
        case OpKind::Finalize: return finalizeNs;
        case OpKind::Barrier: return barrierNs;
        case OpKind::Allreduce: return allreduceNs;
        case OpKind::Bcast: return bcastNs;
        case OpKind::HaloExchange: return haloExchangeNs;
    }
    return 0.0;
}

MpiWorld::MpiWorld(int worldSize, LatencyModel latency)
    : worldSize_(worldSize), latency_(latency) {
    if (worldSize <= 0) {
        throw support::Error("MpiWorld: world size must be positive");
    }
    clocks_.assign(static_cast<std::size_t>(worldSize), 0.0);
    completions_.assign(static_cast<std::size_t>(worldSize), 0.0);
    initialized_.assign(static_cast<std::size_t>(worldSize), false);
    finalized_.assign(static_cast<std::size_t>(worldSize), false);
    mpiTimeNs_.assign(static_cast<std::size_t>(worldSize), 0.0);
    dropped_.assign(static_cast<std::size_t>(worldSize), 0);
    arrivedFlag_.assign(static_cast<std::size_t>(worldSize), 0);
}

bool MpiWorld::generationCompleteLocked() const {
    if (arrived_ == 0) {
        return false;  // Nothing pending; dropRank must not spin the counter.
    }
    for (int r = 0; r < worldSize_; ++r) {
        if (!arrivedFlag_[static_cast<std::size_t>(r)] &&
            !dropped_[static_cast<std::size_t>(r)]) {
            return false;
        }
    }
    return true;
}

void MpiWorld::completeGenerationLocked() {
    // Missing ranks must not pull the completion clocks around: mask their
    // stale deposits to -infinity, which both completion functions (global
    // max, neighbour max) ignore by construction.
    std::vector<double> masked = clocks_;
    for (int r = 0; r < worldSize_; ++r) {
        if (!arrivedFlag_[static_cast<std::size_t>(r)]) {
            masked[static_cast<std::size_t>(r)] =
                -std::numeric_limits<double>::infinity();
        }
    }
    for (int r = 0; r < worldSize_; ++r) {
        if (arrivedFlag_[static_cast<std::size_t>(r)]) {
            completions_[static_cast<std::size_t>(r)] =
                pendingCompletionFn_(masked, r);
        }
    }
    arrived_ = 0;
    arrivedFlag_.assign(static_cast<std::size_t>(worldSize_), 0);
    pendingCompletionFn_ = {};
    ++generation_;
    cv_.notify_all();
}

void MpiWorld::waitWithTimeoutLocked(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t myGeneration) {
    support::Backoff backoff(policy_.backoff, policy_.backoffSeed);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(policy_.timeoutNs);
    auto released = [&] { return generation_ != myGeneration || abort_; };
    while (!released()) {
        cv_.wait_for(lock, std::chrono::nanoseconds(backoff.nextDelayNs()),
                     released);
        if (released()) {
            return;
        }
        if (std::chrono::steady_clock::now() < deadline) {
            continue;
        }
        // Deadline expired with the generation still hung. Count who made
        // it: with a quorum present the stragglers are evicted and the
        // collective completes over the survivors; below quorum the world
        // cannot meaningfully continue and aborts.
        int arrivedCount = 0;
        for (int r = 0; r < worldSize_; ++r) {
            arrivedCount += arrivedFlag_[static_cast<std::size_t>(r)] ? 1 : 0;
        }
        int quorum = policy_.quorum > 0 ? policy_.quorum : worldSize_;
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        if (arrivedCount < quorum) {
            abort_ = true;
            cv_.notify_all();
            obs::MetricsRegistry::global()
                .counter("capi_mpi_quorum_aborts_total")
                .add(1);
            if (recorder.enabled()) {
                static const std::uint32_t kQuorumAbort =
                    recorder.internName("mpi.quorum_abort");
                recorder.recordInstant(
                    kQuorumAbort, obs::SpanCategory::Collective,
                    support::probeNowNs(),
                    static_cast<std::uint64_t>(arrivedCount));
            }
            throw support::Error(
                "MPI: collective timed out with " + std::to_string(arrivedCount) +
                " of " + std::to_string(worldSize_) +
                " ranks arrived, below quorum " + std::to_string(quorum));
        }
        for (int r = 0; r < worldSize_; ++r) {
            if (!arrivedFlag_[static_cast<std::size_t>(r)] &&
                !dropped_[static_cast<std::size_t>(r)]) {
                dropped_[static_cast<std::size_t>(r)] = 1;
                obs::MetricsRegistry::global()
                    .counter("capi_mpi_straggler_evictions_total")
                    .add(1);
                if (recorder.enabled()) {
                    static const std::uint32_t kEvict =
                        recorder.internName("mpi.evict_straggler");
                    recorder.recordInstant(kEvict,
                                           obs::SpanCategory::Collective,
                                           support::probeNowNs(),
                                           static_cast<std::uint64_t>(r));
                }
            }
        }
        completeGenerationLocked();
        return;
    }
}

double MpiWorld::collectiveSync(
    int rank, double virtualNow, OpKind op,
    const std::function<double(const std::vector<double>&, int)>& completionFn) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (abort_) {
        throw support::Error("MPI aborted");
    }
    if (dropped_[static_cast<std::size_t>(rank)]) {
        // An evicted straggler (or explicitly dropped rank) showing up late:
        // the world has moved on without it.
        throw RankDroppedError(rank);
    }
    clocks_[static_cast<std::size_t>(rank)] = virtualNow;
    arrivedFlag_[static_cast<std::size_t>(rank)] = 1;
    ++arrived_;
    // Keep a copy of this generation's completion function: every rank
    // passes an equivalent one by contract, and completion may be triggered
    // by dropRank or a timed-out waiter rather than by the final arrival.
    pendingCompletionFn_ = completionFn;
    std::uint64_t myGeneration = generation_;
    if (generationCompleteLocked()) {
        completeGenerationLocked();
    } else if (policy_.timeoutNs == 0) {
        cv_.wait(lock, [&] { return generation_ != myGeneration || abort_; });
    } else {
        waitWithTimeoutLocked(lock, myGeneration);
    }
    if (abort_) {
        throw support::Error("MPI aborted");
    }
    (void)op;
    return completions_[static_cast<std::size_t>(rank)];
}

double MpiWorld::runOp(int rank, double virtualNow, OpKind op) {
    if (rank < 0 || rank >= worldSize_) {
        throw support::Error("MPI: bad rank");
    }
    // Locked read: another rank's concurrent Init write would otherwise race
    // on the shared vector<bool> word.
    if (op != OpKind::Init && !initialized(rank)) {
        throw support::Error(std::string("MPI: ") + opName(op) +
                             " called before MPI_Init on rank " +
                             std::to_string(rank));
    }

    if (support::fault::anyArmed()) {
        // Injection site: this rank dies at the MPI boundary (node failure,
        // OOM kill). It drops itself — completing any generation the world
        // was holding for it — and unwinds before the interceptor sees the
        // op, like a process that never reached the call.
        if (support::fault::shouldFail(support::fault::sites::kMpiRankDropout)) {
            dropRank(rank);
            throw RankDroppedError(rank);
        }
        // Injection site: this rank straggles — a real wall-clock stall
        // (magnitude = nanoseconds) before it joins the collective, which is
        // what the timeout/eviction path in waitWithTimeoutLocked is for.
        double stallNs = support::fault::inflationFactor(
            support::fault::sites::kMpiStraggler);
        if (stallNs > 1.0) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(static_cast<std::int64_t>(stallNs)));
        }
    }

    PmpiInterceptor* interceptor = interceptor_.load(std::memory_order_acquire);
    if (interceptor != nullptr) {
        interceptor->preOp(rank, op, virtualNow);
    }

    double latency = latency_.latencyOf(op);
    double completed;
    {
        // The span covers arrival through release (including any timeout
        // wait and eviction), one slice per rank on that rank's own ring.
        obs::ScopedSpan collectiveSpan(collectiveNameId(op),
                                       obs::SpanCategory::Collective);
        collectiveSpan.setArg(static_cast<std::uint64_t>(rank));
        if (op == OpKind::HaloExchange) {
            // Neighbour exchange on a ring: a rank can proceed once both
            // neighbours have posted their halves.
            completed = collectiveSync(
                rank, virtualNow, op,
                [this, latency](const std::vector<double>& clocks, int r) {
                    int left = (r + worldSize_ - 1) % worldSize_;
                    int right = (r + 1) % worldSize_;
                    double ready = std::max(
                        {clocks[static_cast<std::size_t>(r)],
                         clocks[static_cast<std::size_t>(left)],
                         clocks[static_cast<std::size_t>(right)]});
                    return ready + latency;
                });
        } else {
            // Fully synchronizing collective: completes at the global maximum.
            completed = collectiveSync(
                rank, virtualNow, op,
                [latency](const std::vector<double>& clocks, int) {
                    return *std::max_element(clocks.begin(), clocks.end()) +
                           latency;
                });
        }
    }

    double mpiNs = completed - virtualNow;
    {
        // collectiveSync released the lock; re-take it for the per-rank state
        // updates, which race with the locked query accessors (and, for the
        // vector<bool> flags, with other ranks' writes to the same word).
        // Interceptor callbacks stay outside: TALP locks its own mutex and
        // queries back into this world (fixed Talp-then-World lock order).
        std::lock_guard<std::mutex> lock(mutex_);
        mpiTimeNs_[static_cast<std::size_t>(rank)] += mpiNs;
        if (op == OpKind::Init) {
            initialized_[static_cast<std::size_t>(rank)] = true;
        }
        if (op == OpKind::Finalize) {
            finalized_[static_cast<std::size_t>(rank)] = true;
        }
    }
    if (op == OpKind::Init && interceptor != nullptr) {
        interceptor->onInit(rank);
    }
    if (op == OpKind::Finalize && interceptor != nullptr) {
        interceptor->onFinalize(rank);
    }
    if (interceptor != nullptr) {
        interceptor->postOp(rank, op, completed, mpiNs);
    }
    return completed;
}

double MpiWorld::init(int rank, double virtualNow) {
    if (initialized(rank)) {
        throw support::Error("MPI: MPI_Init called twice on rank " +
                             std::to_string(rank));
    }
    return runOp(rank, virtualNow, OpKind::Init);
}

double MpiWorld::finalize(int rank, double virtualNow) {
    return runOp(rank, virtualNow, OpKind::Finalize);
}

double MpiWorld::barrier(int rank, double virtualNow) {
    return runOp(rank, virtualNow, OpKind::Barrier);
}

double MpiWorld::allreduce(int rank, double virtualNow) {
    return runOp(rank, virtualNow, OpKind::Allreduce);
}

double MpiWorld::bcast(int rank, double virtualNow) {
    return runOp(rank, virtualNow, OpKind::Bcast);
}

double MpiWorld::haloExchange(int rank, double virtualNow) {
    return runOp(rank, virtualNow, OpKind::HaloExchange);
}

bool MpiWorld::initialized(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= worldSize_) {
        return false;  // Out-of-world ranks are never initialized; runOp
                       // reports the bad rank with a proper error.
    }
    return initialized_[static_cast<std::size_t>(rank)];
}

bool MpiWorld::finalized(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= worldSize_) {
        return false;
    }
    return finalized_[static_cast<std::size_t>(rank)];
}

void MpiWorld::setCollectivePolicy(CollectivePolicy policy) {
    std::lock_guard<std::mutex> lock(mutex_);
    policy_ = policy;
}

void MpiWorld::dropRank(int rank) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= worldSize_ ||
        dropped_[static_cast<std::size_t>(rank)]) {
        return;
    }
    dropped_[static_cast<std::size_t>(rank)] = 1;
    obs::MetricsRegistry::global().counter("capi_mpi_ranks_dropped_total").add(1);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
        static const std::uint32_t kDrop = recorder.internName("mpi.rank_drop");
        recorder.recordInstant(kDrop, obs::SpanCategory::Collective,
                               support::probeNowNs(),
                               static_cast<std::uint64_t>(rank));
    }
    // If a collective was blocked on exactly this rank, it can complete now.
    if (generationCompleteLocked()) {
        completeGenerationLocked();
    }
}

bool MpiWorld::rankDropped(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (rank < 0 || rank >= worldSize_) {
        return false;
    }
    return dropped_[static_cast<std::size_t>(rank)] != 0;
}

std::vector<int> MpiWorld::droppedRanks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> ranks;
    for (int r = 0; r < worldSize_; ++r) {
        if (dropped_[static_cast<std::size_t>(r)]) {
            ranks.push_back(r);
        }
    }
    return ranks;
}

int MpiWorld::liveRankCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    int live = 0;
    for (int r = 0; r < worldSize_; ++r) {
        live += dropped_[static_cast<std::size_t>(r)] ? 0 : 1;
    }
    return live;
}

void MpiWorld::abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    abort_ = true;
    cv_.notify_all();
}

bool MpiWorld::aborted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return abort_;
}

double MpiWorld::mpiTimeNs(int rank) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return mpiTimeNs_[static_cast<std::size_t>(rank)];
}

void runRanks(MpiWorld& world, const std::function<void(int)>& body) {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(world.worldSize()));
    threads.reserve(static_cast<std::size_t>(world.worldSize()));
    for (int rank = 0; rank < world.worldSize(); ++rank) {
        threads.emplace_back([&, rank] {
            try {
                body(rank);
            } catch (const RankDroppedError&) {
                // A dropped rank dying is the tolerated outcome, not a
                // failure: the surviving quorum completes without it, so the
                // world must NOT be aborted on its behalf.
            } catch (...) {
                errors[static_cast<std::size_t>(rank)] = std::current_exception();
                world.abort();
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    for (const std::exception_ptr& error : errors) {
        if (error) {
            std::rethrow_exception(error);
        }
    }
}

}  // namespace capi::mpi

// Tests for the MPI simulation: virtual-time collectives, halo exchange,
// PMPI interception, init/finalize rules, abort propagation, and the
// fault-tolerance policy (rank dropout, straggler eviction, quorum).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "mpisim/mpi_world.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace {

using namespace capi;
using mpi::MpiWorld;
using mpi::OpKind;

TEST(MpiWorld, BarrierCompletesAtMaxClockPlusLatency) {
    mpi::LatencyModel latency;
    latency.barrierNs = 100;
    latency.initNs = 0;
    MpiWorld world(3, latency);
    std::vector<double> after(3);
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        // Ranks arrive at different virtual times: 1000, 2000, 3000.
        clock += 1000.0 * (rank + 1);
        after[static_cast<std::size_t>(rank)] = world.barrier(rank, clock);
    });
    // All complete at max(3000) + 100 (init at clock 0 adds nothing here).
    for (int rank = 0; rank < 3; ++rank) {
        EXPECT_DOUBLE_EQ(after[static_cast<std::size_t>(rank)], 3100.0);
    }
    // Rank 0 waited longest: 2100ns of MPI time vs rank 2's 100ns (plus init).
    EXPECT_DOUBLE_EQ(world.mpiTimeNs(0) - world.mpiTimeNs(2), 2000.0);
}

TEST(MpiWorld, HaloExchangeSynchronizesNeighbours) {
    mpi::LatencyModel latency;
    latency.haloExchangeNs = 10;
    latency.initNs = 0;
    MpiWorld world(4, latency);
    std::vector<double> after(4);
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        clock += 100.0 * rank;  // clocks 0, 100, 200, 300
        after[static_cast<std::size_t>(rank)] = world.haloExchange(rank, clock);
    });
    // Ring neighbours: rank1 sees max(0,100,200)+10 = 210.
    EXPECT_DOUBLE_EQ(after[1], 210.0);
    // rank0 neighbours are 3 and 1: max(300,0,100)+10 = 310.
    EXPECT_DOUBLE_EQ(after[0], 310.0);
}

TEST(MpiWorld, OpsBeforeInitThrow) {
    MpiWorld world(1);
    EXPECT_THROW(world.barrier(0, 0.0), support::Error);
    EXPECT_THROW(world.allreduce(0, 0.0), support::Error);
}

TEST(MpiWorld, DoubleInitThrows) {
    MpiWorld world(1);
    world.init(0, 0.0);
    EXPECT_THROW(world.init(0, 0.0), support::Error);
}

TEST(MpiWorld, InitializedAndFinalizedFlags) {
    MpiWorld world(1);
    EXPECT_FALSE(world.initialized(0));
    double clock = world.init(0, 0.0);
    EXPECT_TRUE(world.initialized(0));
    EXPECT_FALSE(world.finalized(0));
    world.finalize(0, clock);
    EXPECT_TRUE(world.finalized(0));
}

TEST(MpiWorld, BadRankRejected) {
    MpiWorld world(2);
    EXPECT_THROW(world.init(2, 0.0), support::Error);
    EXPECT_THROW(world.init(-1, 0.0), support::Error);
    EXPECT_THROW(MpiWorld(0), support::Error);
}

struct CountingInterceptor final : mpi::PmpiInterceptor {
    std::atomic<int> pre{0};
    std::atomic<int> post{0};
    std::atomic<int> inits{0};
    std::atomic<int> finals{0};
    std::atomic<double> lastMpiNs{0.0};

    void preOp(int, OpKind, double) override { ++pre; }
    void postOp(int, OpKind, double, double mpiNs) override {
        ++post;
        lastMpiNs = mpiNs;
    }
    void onInit(int) override { ++inits; }
    void onFinalize(int) override { ++finals; }
};

TEST(MpiWorld, PmpiInterceptorSeesEveryOp) {
    MpiWorld world(2);
    CountingInterceptor interceptor;
    world.setInterceptor(&interceptor);
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        clock = world.allreduce(rank, clock);
        clock = world.barrier(rank, clock);
        world.finalize(rank, clock);
    });
    EXPECT_EQ(interceptor.pre.load(), 8);   // 4 ops x 2 ranks
    EXPECT_EQ(interceptor.post.load(), 8);
    EXPECT_EQ(interceptor.inits.load(), 2);
    EXPECT_EQ(interceptor.finals.load(), 2);
    EXPECT_GT(interceptor.lastMpiNs.load(), 0.0);
}

TEST(MpiWorld, MpiTimeIsCompletionMinusArrival) {
    mpi::LatencyModel latency;
    latency.allreduceNs = 50;
    latency.initNs = 0;
    MpiWorld world(2, latency);
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        clock += rank == 0 ? 0.0 : 500.0;
        world.allreduce(rank, clock);
    });
    // Completion at 550: rank0 spent 550, rank1 spent 50 (init adds 0).
    EXPECT_DOUBLE_EQ(world.mpiTimeNs(0), 550.0);
    EXPECT_DOUBLE_EQ(world.mpiTimeNs(1), 50.0);
}

TEST(MpiWorld, RankExceptionAbortsBlockedPeers) {
    MpiWorld world(2);
    EXPECT_THROW(
        mpi::runRanks(world,
                      [&](int rank) {
                          world.init(rank, 0.0);
                          if (rank == 1) {
                              throw support::Error("rank 1 died");
                          }
                          // Rank 0 blocks here; the abort must release it.
                          world.barrier(rank, 1.0);
                      }),
        support::Error);
    EXPECT_TRUE(world.aborted());
}

TEST(MpiWorld, SequentialCollectivesKeepOrder) {
    MpiWorld world(2);
    std::vector<double> clocks(2);
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        for (int i = 0; i < 100; ++i) {
            clock = world.allreduce(rank, clock);
            clock += 10.0;
        }
        clocks[static_cast<std::size_t>(rank)] = clock;
    });
    // Deterministic: both ranks end at identical virtual clocks.
    EXPECT_DOUBLE_EQ(clocks[0], clocks[1]);
}

// ------------------------------------------------------- fault tolerance --

TEST(MpiWorldFaults, DroppedRankThrowsAndSurvivorsCompleteTheCollective) {
    mpi::LatencyModel latency;
    latency.initNs = 0;
    latency.allreduceNs = 50;
    MpiWorld world(4, latency);
    std::vector<double> after(4, -1.0);
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        if (rank == 2) {
            // This rank dies before depositing anything; every later MPI
            // call it makes must keep throwing.
            world.dropRank(2);
            EXPECT_THROW(world.allreduce(2, clock), mpi::RankDroppedError);
            EXPECT_THROW(world.barrier(2, clock), mpi::RankDroppedError);
            throw mpi::RankDroppedError(2);  // tolerated by runRanks
        }
        after[static_cast<std::size_t>(rank)] = world.allreduce(rank, clock);
    });
    // No timeout policy needed: a *known-dead* rank never blocks the world.
    // The collective completed over the three survivors only.
    for (int rank : {0, 1, 3}) {
        EXPECT_DOUBLE_EQ(after[static_cast<std::size_t>(rank)], 50.0);
    }
    EXPECT_FALSE(world.aborted());
    EXPECT_TRUE(world.rankDropped(2));
    EXPECT_EQ(world.liveRankCount(), 3);
    EXPECT_EQ(world.droppedRanks(), std::vector<int>{2});
}

TEST(MpiWorldFaults, InjectedDropoutKillsExactlyOneRankAndTheRestConverge) {
    mpi::LatencyModel latency;
    latency.initNs = 0;
    MpiWorld world(4, latency);
    // Skip the four init hits, then the first rank to reach a collective
    // dies (which rank that is depends on thread scheduling — the
    // assertions below are rank-agnostic on purpose).
    support::fault::FaultSpec spec;
    spec.afterHits = 4;
    spec.maxFires = 1;
    support::fault::ScopedFaultInjection scoped(99);
    scoped.arm(support::fault::sites::kMpiRankDropout, spec);
    std::atomic<int> completed{0};
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        clock = world.allreduce(rank, clock);
        clock = world.barrier(rank, clock);
        ++completed;
    });
    EXPECT_EQ(support::fault::stats(support::fault::sites::kMpiRankDropout).fires,
              1u);
    EXPECT_FALSE(world.aborted());
    EXPECT_EQ(completed.load(), 3);
    EXPECT_EQ(world.liveRankCount(), 3);
    EXPECT_EQ(world.droppedRanks().size(), 1u);
}

TEST(MpiWorldFaults, StragglerIsEvictedOnTimeoutWhenQuorumHolds) {
    mpi::LatencyModel latency;
    latency.initNs = 0;
    MpiWorld world(4, latency);
    mpi::CollectivePolicy policy;
    // 50ms of wall-clock patience: wide enough that a healthy rank
    // descheduled on a loaded host still arrives in time.
    policy.timeoutNs = 50'000'000;
    policy.quorum = 3;
    world.setCollectivePolicy(policy);
    // One rank stalls 500ms (10x the timeout) at its first post-init op, so
    // the other three evict it and complete without it.
    support::fault::FaultSpec spec;
    spec.afterHits = 4;  // let the init hits through
    spec.maxFires = 1;
    spec.magnitude = 500'000'000.0;  // ns
    support::fault::ScopedFaultInjection scoped(7);
    scoped.arm(support::fault::sites::kMpiStraggler, spec);
    std::atomic<int> completed{0};
    std::atomic<int> evicted{0};
    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        try {
            world.allreduce(rank, clock);
            ++completed;
        } catch (const mpi::RankDroppedError&) {
            ++evicted;  // the straggler, arriving after its eviction
            throw;
        }
    });
    EXPECT_FALSE(world.aborted());
    EXPECT_EQ(completed.load(), 3);
    EXPECT_EQ(evicted.load(), 1);
    EXPECT_EQ(world.liveRankCount(), 3);
}

TEST(MpiWorldFaults, TimeoutBelowQuorumAbortsInsteadOfEvicting) {
    mpi::LatencyModel latency;
    latency.initNs = 0;
    MpiWorld world(3, latency);
    mpi::CollectivePolicy policy;
    policy.timeoutNs = 5'000'000;
    policy.quorum = 0;  // strict: the full world or nothing
    world.setCollectivePolicy(policy);
    // Rank 2 silently leaves; with a strict quorum the blocked survivors
    // must abort the world rather than complete a 2-of-3 "all"reduce.
    EXPECT_THROW(mpi::runRanks(world,
                               [&](int rank) {
                                   double clock = world.init(rank, 0.0);
                                   if (rank == 2) {
                                       return;
                                   }
                                   world.allreduce(rank, clock);
                               }),
                 support::Error);
    EXPECT_TRUE(world.aborted());
}

}  // namespace

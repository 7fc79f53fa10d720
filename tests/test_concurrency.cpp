// Concurrency stress tests for the per-event measurement path: contended
// Score-P enter/exit, mid-run counter aggregation, racing first sightings in
// the cyg-profile address table, generation-stamped thread caches across
// destroy/recreate at a reused address, and TALP ranks running concurrently
// with metric readers. These are the tests the CI TSan job is scoped to —
// ASan cannot see the races this file is about.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "binsim/compiler.hpp"
#include "binsim/process.hpp"
#include "mpisim/mpi_world.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "scorepsim/measurement.hpp"
#include "scorepsim/symbol_resolver.hpp"
#include "scorepsim/tracing.hpp"
#include "talpsim/talp.hpp"

namespace {

using namespace capi;
using namespace capi::scorep;

/// Persistent worker thread: runs closures on the same OS thread across
/// calls, which is what the generation-stamp regressions need (the bug was a
/// *surviving* thread's cache entry dangling across owner destroy/recreate).
class WorkerThread {
public:
    WorkerThread() : thread_([this] { loop(); }) {}
    ~WorkerThread() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void run(std::function<void()> task) {
        std::unique_lock<std::mutex> lock(mutex_);
        task_ = std::move(task);
        cv_.notify_all();
        cv_.wait(lock, [&] { return task_ == nullptr; });
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        while (true) {
            cv_.wait(lock, [&] { return stop_ || task_ != nullptr; });
            if (stop_) {
                return;
            }
            std::function<void()> task = std::move(task_);
            task_ = nullptr;
            lock.unlock();
            task();
            lock.lock();
            cv_.notify_all();
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::function<void()> task_;
    bool stop_ = false;
    std::thread thread_;
};

// --------------------------------------------------- Measurement contention --

TEST(Concurrency, EnterExitContendedAcrossThreads) {
    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 20000;
    Measurement m;
    RegionHandle outer = m.defineRegion("outer");
    RegionHandle inner = m.defineRegion("inner");

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                m.enter(outer);
                m.enter(inner);
                m.exit(inner);
                m.exit(outer);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    EXPECT_EQ(m.probeEvents(), kThreads * kIters * 4);
    EXPECT_EQ(m.filteredEvents(), 0u);
    ProfileTree merged = m.mergedProfile();
    EXPECT_EQ(merged.totalVisits(outer), kThreads * kIters);
    EXPECT_EQ(merged.totalVisits(inner), kThreads * kIters);
    EXPECT_EQ(merged.depth(), 2u);
}

TEST(Concurrency, SamplingGateContendedAcrossThreads) {
    // The gate fast path under contention: the sampling spec word is read
    // through an atomically published chunk on every enter while each
    // thread's countdown/lastSample state stays thread-private. 8 threads
    // hammer one Sampled region plus one Full region; the per-thread gates
    // must decimate independently (each thread times exactly iters/N visits)
    // and the suppressed-visit accounting must balance to the total.
    constexpr int kThreads = 8;
    constexpr std::uint64_t kIters = 16000;
    constexpr std::uint32_t kEveryN = 8;
    Measurement m;
    RegionHandle sampled = m.defineRegion("sampled");
    RegionHandle full = m.defineRegion("full");
    m.setRegionSampling(sampled, kEveryN);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                m.enter(full);
                m.enter(sampled);
                m.exit(sampled);
                m.exit(full);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    EXPECT_EQ(m.probeEvents(), kThreads * kIters * 4);
    ProfileTree merged = m.mergedProfile();
    EXPECT_EQ(merged.totalVisits(full), kThreads * kIters);
    EXPECT_EQ(merged.totalVisits(sampled), kThreads * (kIters / kEveryN));
    auto suppressed = m.suppressedVisits();
    EXPECT_EQ(suppressed[sampled],
              kThreads * (kIters - kIters / kEveryN));
    EXPECT_EQ(m.suppressedEvents(), 2 * suppressed[sampled]);
    // Recorded + suppressed covers every visit: extrapolation loses none.
    EXPECT_EQ(merged.totalVisits(sampled) + suppressed[sampled],
              kThreads * kIters);
}

TEST(Concurrency, SamplingSpecSwapDuringEvents) {
    // One thread flips a region's gate spec (Full <-> Sampled at varying N)
    // while workers stream events through it — the applyPolicyDelta-at-a-
    // quiescent-point pattern stretched to a torture shape. Counts cannot be
    // asserted exactly (the swap races the countdowns); the invariant is
    // recorded + suppressed == total visits, with no torn spec reads.
    constexpr int kThreads = 4;
    constexpr std::uint64_t kIters = 8000;
    Measurement m;
    RegionHandle region = m.defineRegion("swapped");

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                m.enter(region);
                m.exit(region);
            }
        });
    }
    for (int flip = 0; flip < 200; ++flip) {
        m.setRegionSampling(region, flip % 2 == 0 ? 4 : 1);
    }
    for (std::thread& t : workers) {
        t.join();
    }
    m.clearRegionSampling(region);

    ProfileTree merged = m.mergedProfile();
    std::uint64_t suppressed = 0;
    for (const auto& [handle, count] : m.suppressedVisits()) {
        ASSERT_EQ(handle, region);
        suppressed = count;
    }
    EXPECT_EQ(merged.totalVisits(region) + suppressed, kThreads * kIters);
}

TEST(Concurrency, CountersReadableMidRun) {
    MeasurementOptions options;
    options.runtimeFiltering = true;
    options.runtimeFilter.addRule(false, "noisy_*");
    Measurement m(options);
    RegionHandle keep = m.defineRegion("kernel");
    RegionHandle noisy = m.defineRegion("noisy_helper");

    constexpr int kThreads = 3;
    constexpr std::uint64_t kIters = 20000;
    std::atomic<int> writersDone{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                m.enter(keep);
                m.enter(noisy);  // filtered: probe cost retained, no record
                m.exit(noisy);
                m.exit(keep);
            }
            writersDone.fetch_add(1);
        });
    }
    // Aggregating getters must be callable while events are in flight.
    std::uint64_t lastProbe = 0;
    while (writersDone.load() < kThreads) {
        // filtered first: filtered(t1) <= probe(t1) <= probe(t2), so the
        // inequality holds across the two snapshots only in this order.
        std::uint64_t filtered = m.filteredEvents();
        std::uint64_t probe = m.probeEvents();
        EXPECT_GE(probe, lastProbe);
        EXPECT_LE(filtered, probe);
        lastProbe = probe;
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(m.probeEvents(), kThreads * kIters * 4);
    EXPECT_EQ(m.filteredEvents(), kThreads * kIters * 2);
    EXPECT_EQ(m.mergedProfile().totalVisits(keep), kThreads * kIters);
    EXPECT_EQ(m.mergedProfile().totalVisits(noisy), 0u);
}

TEST(Concurrency, RegionDefinitionDuringEvents) {
    Measurement m;
    RegionHandle warm = m.defineRegion("warm");
    std::atomic<bool> stop{false};
    std::thread definer([&] {
        for (int i = 0; i < 2000; ++i) {
            m.defineRegion("dynamic_" + std::to_string(i));
        }
        stop.store(true);
    });
    std::uint64_t visits = 0;
    while (!stop.load()) {
        m.enter(warm);
        m.exit(warm);
        ++visits;
    }
    definer.join();
    EXPECT_EQ(m.mergedProfile().totalVisits(warm), visits);
    EXPECT_EQ(m.regionCount(), 2001u);
}

// ------------------------------------------------- cyg-profile address table --

binsim::CompiledProgram wideProgram(int functionCount) {
    binsim::AppModel model;
    model.name = "stress";
    binsim::AppFunction mainFn;
    mainFn.name = "main";
    mainFn.unit = "u.cpp";
    mainFn.metrics.numInstructions = 100;
    mainFn.flags.hasBody = true;
    model.functions.push_back(mainFn);
    for (int i = 0; i < functionCount; ++i) {
        binsim::AppFunction fn;
        fn.name = "fn_" + std::to_string(i);
        fn.unit = "u.cpp";
        fn.metrics.numInstructions = 100;
        fn.flags.hasBody = true;
        model.functions.push_back(fn);
        model.functions[0].calls.push_back(
            {static_cast<std::uint32_t>(model.functions.size() - 1), 1});
    }
    model.entry = 0;
    binsim::CompileOptions options;
    options.xrayThreshold.instructionThreshold = 1;
    return binsim::compile(model, options);
}

TEST(Concurrency, CygAdapterRacingFirstSightings) {
    constexpr int kFunctions = 64;
    constexpr int kBogus = 2000;  // Forces at least one table growth (cap 1024).
    constexpr int kThreads = 4;
    constexpr int kRounds = 40;

    binsim::Process process(wideProgram(kFunctions));
    Measurement m;
    CygProfileAdapter adapter(
        m, SymbolResolver::withSymbolInjection(process));

    std::vector<std::uint64_t> resolvable;
    for (int i = 0; i < kFunctions; ++i) {
        std::uint32_t fn =
            process.program().model.indexOf("fn_" + std::to_string(i));
        resolvable.push_back(process.execInfo()[fn].entryAddress);
    }
    std::vector<std::uint64_t> bogus;
    for (int i = 0; i < kBogus; ++i) {
        // Far beyond any mapped image: unresolvable by construction.
        bogus.push_back(0xFFFF000000000000ull + static_cast<std::uint64_t>(i) * 64);
    }

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Every thread walks every address so first sightings race.
            for (int round = 0; round < kRounds; ++round) {
                for (std::size_t i = 0; i < resolvable.size(); ++i) {
                    std::uint64_t addr = resolvable[(i + t) % resolvable.size()];
                    adapter.funcEnter(addr, 0);
                    adapter.funcExit(addr, 0);
                }
            }
            for (std::size_t i = 0; i < bogus.size(); ++i) {
                std::uint64_t addr = bogus[(i + t * 13) % bogus.size()];
                adapter.funcEnter(addr, 0);
                adapter.funcExit(addr, 0);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }

    // Unresolved counts distinct addresses exactly once despite the races;
    // dropped counts every event on them.
    EXPECT_EQ(adapter.unresolvedAddresses(), static_cast<std::uint64_t>(kBogus));
    EXPECT_EQ(adapter.droppedEvents(),
              static_cast<std::uint64_t>(kThreads) * kBogus * 2);
    ProfileTree merged = m.mergedProfile();
    for (int i = 0; i < kFunctions; ++i) {
        EXPECT_EQ(merged.totalVisits(m.defineRegion("fn_" + std::to_string(i))),
                  static_cast<std::uint64_t>(kThreads) * kRounds);
    }
    EXPECT_EQ(m.probeEvents(),
              static_cast<std::uint64_t>(kThreads) * kRounds * kFunctions * 2);
}

// ------------------------------------- generation-stamped thread-state cache --

TEST(Concurrency, MeasurementDestroyRecreateReusedAddress) {
    WorkerThread worker;
    // std::optional guarantees the second Measurement reuses the first one's
    // address — exactly the aliasing scenario the generation stamp defuses.
    std::optional<Measurement> slot;
    slot.emplace();
    RegionHandle first = slot->defineRegion("first");
    worker.run([&] {
        slot->enter(first);
        slot->exit(first);
    });
    EXPECT_EQ(slot->mergedProfile().totalVisits(first), 1u);

    slot.reset();
    slot.emplace();
    RegionHandle second = slot->defineRegion("second");
    // Without the stamp the worker's cached ThreadState* for this address
    // would dangle into the destroyed instance's state.
    worker.run([&] {
        slot->enter(second);
        slot->exit(second);
    });
    ProfileTree merged = slot->mergedProfile();
    EXPECT_EQ(merged.totalVisits(second), 1u);
    EXPECT_EQ(slot->probeEvents(), 2u);
}

TEST(Concurrency, TraceBufferDestroyRecreateReusedAddress) {
    WorkerThread worker;
    std::optional<TraceBuffer> slot;
    slot.emplace(16);
    worker.run([&] { slot->record(1, TraceEventType::Enter, 10); });
    EXPECT_EQ(slot->stats().recorded, 1u);

    slot.reset();
    slot.emplace(16);
    worker.run([&] { slot->record(2, TraceEventType::Enter, 20); });
    TraceStats stats = slot->stats();
    EXPECT_EQ(stats.recorded, 1u);
    EXPECT_EQ(stats.threads, 1u);
    std::vector<TraceEvent> events = slot->collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].region, 2u);
}

// ------------------------------------------------------------------- TALP ----

TEST(Concurrency, TalpRanksConcurrentWithReaders) {
    constexpr int kRanks = 4;
    constexpr int kVisits = 200;
    mpi::LatencyModel latency;
    latency.allreduceNs = 100;
    latency.initNs = 0;
    latency.finalizeNs = 0;
    mpi::MpiWorld world(kRanks, latency);
    talp::TalpRuntime talp(world);

    std::atomic<bool> done{false};
    std::thread reader([&] {
        // The runtime query API must be safe while ranks are mid-event.
        while (!done.load()) {
            for (const talp::PopMetrics& m : talp.collectAll()) {
                EXPECT_GE(m.visits, 1u);
                EXPECT_GE(m.elapsedNs, 0.0);
            }
        }
    });

    mpi::runRanks(world, [&](int rank) {
        double clock = world.init(rank, 0.0);
        talp::MonitorHandle h = talp.regionRegister("solver", rank);
        ASSERT_TRUE(h.valid());
        for (int i = 0; i < kVisits; ++i) {
            ASSERT_TRUE(talp.regionStart(h, rank, clock));
            clock += 50.0;
            clock = world.allreduce(rank, clock);
            ASSERT_TRUE(talp.regionStop(h, rank, clock));
        }
    });
    done.store(true);
    reader.join();

    auto metrics = talp.metrics("solver");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_EQ(metrics->ranks, kRanks);
    EXPECT_EQ(metrics->visits, static_cast<std::uint64_t>(kRanks) * kVisits);
    EXPECT_GT(metrics->elapsedNs, 0.0);
    EXPECT_EQ(talp.failedStarts(), 0u);
    EXPECT_EQ(talp.failedStops(), 0u);
}

}  // namespace

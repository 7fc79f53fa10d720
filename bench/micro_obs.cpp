// Micro-benchmarks of the self-observability subsystem's cost contract.
//
// The trace recorder and metrics registry are compiled into the shipping
// control path (epoch/model/plan/patch spans in the controller, counters in
// the selector cache, CSR snapshot and XRay runtime), so two numbers gate the
// design:
//
//  * BM_ObsSpanDisabled — a ScopedSpan against a disabled recorder. This is
//    what every instrumented scope costs when nobody is tracing: one relaxed
//    load and a predicted branch. The acceptance bar is <=1 ns/event.
//  * BM_ObsSpanRecord — the enabled path: clock read, ring slot fill, release
//    store. This is what calibrateObsCostNs() measures at tool startup and
//    what OverheadModel::chargeSelfCost() bills back per epoch; the bench
//    keeps that calibration honest.
//
// The registry benches quantify the passive side: a counter add is a single
// relaxed fetch_add (safe inside hot loops), while snapshot() walks every
// owned cell and collector under a mutex and is priced for once-per-epoch
// use, not per-event.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace capi;

/// The disabled fast path in isolation: the span constructor loads the
/// enabled flag once; end() sees enabled_ == false and does nothing. This is
/// the cost every instrumented scope pays in production when tracing is off.
void BM_ObsSpanDisabled(benchmark::State& state) {
    obs::TraceRecorder recorder(1u << 10);
    recorder.setEnabled(false);
    const std::uint32_t name = recorder.internName("bench.disabled");
    for (auto _ : state) {
        obs::ScopedSpan span(recorder, name, obs::SpanCategory::Tool);
        benchmark::DoNotOptimize(&span);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

/// The enabled record path: two clock reads plus one SPSC ring publish. The
/// ring is drained between batches so the bench measures the record cost,
/// never the (counted, but cheap) overflow-drop path.
void BM_ObsSpanRecord(benchmark::State& state) {
    const std::size_t capacity = 1u << 14;
    obs::TraceRecorder recorder(capacity);
    recorder.setEnabled(true);
    const std::uint32_t name = recorder.internName("bench.record");
    std::size_t sinceDrain = 0;
    for (auto _ : state) {
        {
            obs::ScopedSpan span(recorder, name, obs::SpanCategory::Tool);
            benchmark::DoNotOptimize(&span);
        }
        if (++sinceDrain >= capacity / 2) {
            state.PauseTiming();
            recorder.drain();
            sinceDrain = 0;
            state.ResumeTiming();
        }
    }
    recorder.setEnabled(false);
    recorder.drain();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanRecord);

/// A fire-and-forget instant event (fault fires, drop notices): same ring
/// publish as a span but only one clock read and no scope bookkeeping.
void BM_ObsInstantRecord(benchmark::State& state) {
    const std::size_t capacity = 1u << 14;
    obs::TraceRecorder recorder(capacity);
    recorder.setEnabled(true);
    const std::uint32_t name = recorder.internName("bench.instant");
    std::size_t sinceDrain = 0;
    for (auto _ : state) {
        recorder.recordInstant(name, obs::SpanCategory::Fault, 0);
        if (++sinceDrain >= capacity / 2) {
            state.PauseTiming();
            recorder.drain();
            sinceDrain = 0;
            state.ResumeTiming();
        }
    }
    recorder.setEnabled(false);
    recorder.drain();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsInstantRecord);

/// One owned-counter increment: a relaxed fetch_add on a cell whose reference
/// the call site cached at registration. This is the per-event cost of every
/// registry-backed statistic in the hot paths.
void BM_ObsCounterAdd(benchmark::State& state) {
    obs::MetricsRegistry registry;
    obs::Counter& counter = registry.counter("bench_obs_counter_total");
    for (auto _ : state) {
        counter.add(1);
    }
    benchmark::DoNotOptimize(&counter);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

/// One histogram observation: bucket index from the bit width of the value,
/// then two relaxed adds. Used for per-epoch latency distributions.
void BM_ObsHistogramObserve(benchmark::State& state) {
    obs::MetricsRegistry registry;
    obs::Histogram& hist = registry.histogram("bench_obs_latency_ns");
    std::uint64_t value = 1;
    for (auto _ : state) {
        hist.observe(value);
        value = value * 2862933555777941757ull + 3037000493ull;  // cheap LCG
    }
    benchmark::DoNotOptimize(&hist);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

/// Full snapshot of a registry sized like the shipping one (~100 samples
/// across owned cells and collectors). Priced for once-per-epoch or
/// on-demand (`capi_tool metrics`) use.
void BM_ObsRegistrySnapshot(benchmark::State& state) {
    obs::MetricsRegistry registry;
    const int owned = static_cast<int>(state.range(0));
    for (int i = 0; i < owned; ++i) {
        registry.counter("bench_obs_c" + std::to_string(i) + "_total").add(i);
    }
    registry.histogram("bench_obs_h_ns").observe(1024);
    registry.addCollector([](std::vector<obs::Sample>& out) {
        for (int i = 0; i < 8; ++i) {
            obs::Sample s;
            s.name = "bench_obs_collected_" + std::to_string(i);
            s.kind = obs::MetricKind::Gauge;
            s.value = static_cast<double>(i);
            out.push_back(std::move(s));
        }
    });
    for (auto _ : state) {
        benchmark::DoNotOptimize(registry.snapshot());
    }
}
BENCHMARK(BM_ObsRegistrySnapshot)->Arg(16)->Arg(96);

/// The startup calibration itself: what `capi_tool trace` pays once to learn
/// the per-event self-cost it hands to OverheadModel::chargeSelfCost(). The
/// measured ns/event rides along as a counter so BENCH_results.json tracks
/// the calibrated cost across commits, not just the calibration runtime.
void BM_ObsCalibrate(benchmark::State& state) {
    double lastNs = 0.0;
    for (auto _ : state) {
        lastNs = obs::calibrateObsCostNs(1u << 12);
        benchmark::DoNotOptimize(lastNs);
    }
    state.counters["calibrated_ns_per_event"] =
        benchmark::Counter(lastNs);
}
BENCHMARK(BM_ObsCalibrate);

}  // namespace

BENCHMARK_MAIN();

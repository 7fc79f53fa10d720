// Process-wide shared thread pool for the selection engine.
//
// Constructing a ThreadPool per selection run pays thread spin-up and
// tear-down on every run — noticeable exactly where the paper's turnaround
// argument cares, in the re-run-selection-often loop. Executor owns one
// lazily-initialized pool sized to hardware concurrency that callers borrow
// instead. Selection results are thread-count-invariant (the parallel engine
// is bit-identical to serial at any width), so sharing one full-width pool
// never changes what a run computes, only how fast.
//
// A ThreadPool* is the only parallelism input of the selection engine
// (PipelineOptions::pool, SelectionOptions::pool, adapt::Config::pool, the
// RefinementSession constructor): null runs serially, &Executor::pool()
// runs on this shared pool, and embedders that must cap the width pass a
// pool of their own. cg::CsrView::snapshot borrows this pool for large
// full builds.
#pragma once

namespace capi::support {

class ThreadPool;

class Executor {
public:
    /// The shared pool; created with hardware concurrency on first use and
    /// reused for the rest of the process.
    static ThreadPool& pool();
};

}  // namespace capi::support

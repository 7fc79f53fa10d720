#include "select/pipeline.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "spec/deps.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace capi::select {

Pipeline::Pipeline(const spec::SpecAst& ast, const SelectorRegistry& registry) {
    SelectorBuilder builder(registry);
    std::size_t anonymousCount = 0;
    // Latest preceding definition per name: %refs bind to it, matching the
    // serial shadowing rule (a redefined name hides the earlier one).
    std::unordered_map<std::string, std::size_t> latestByName;
    std::unordered_map<std::string, std::uint64_t> hashByName;
    for (const spec::Definition& def : ast.definitions) {
        Stage stage;
        stage.isNamed = !def.name.empty();
        stage.name = stage.isNamed
                         ? def.name
                         : "<anonymous:" + std::to_string(anonymousCount++) + ">";
        stage.selector = builder.build(*def.expr);
        for (const std::string& ref : spec::collectRefs(*def.expr)) {
            auto it = latestByName.find(ref);
            if (it != latestByName.end()) {
                stage.deps.push_back(it->second);
            }
            // Unresolved refs keep their serial behavior: evaluate() throws
            // "used before definition" because the name is never bound.
        }
        stage.canonicalHash = spec::canonicalSelectorHash(*def.expr, hashByName);
        std::size_t index = stages_.size();
        for (std::size_t dep : stage.deps) {
            stages_[dep].dependents.push_back(index);
        }
        if (stage.isNamed) {
            latestByName[def.name] = index;
            hashByName[def.name] = stage.canonicalHash;
        }
        stages_.push_back(std::move(stage));
    }
}

PipelineRun Pipeline::run(const cg::CallGraph& graph,
                          const PipelineOptions& options) const {
    const std::size_t count = stages_.size();
    support::ThreadPool* pool = options.pool;
    SelectorCache* cache = options.cache;
    if (cache != nullptr) {
        // Reconcile the cache with the graph's current revision: entries
        // whose footprint the journal delta cannot have touched survive.
        cache->beginRun(graph);
    }
    const std::uint64_t generation = graph.generation();

    std::vector<FunctionSet> results(count);
    std::vector<std::uint64_t> ns(count, 0);
    std::vector<std::exception_ptr> errors(count);
    // Dirtiness propagation over the %ref DAG: a cached result is reused
    // only when the stage's own entry is live AND no dependency re-evaluated
    // to a different result. A re-evaluation that reproduces the cached bits
    // exactly does not dirty its dependents. Like `results`, a stage writes
    // its flag before it releases its dependents.
    std::vector<char> dirty(count, 0);
    std::atomic<std::size_t> cacheHits{0};
    // Lowest index of a failed stage. Stages after it are skipped; stages
    // before it still run, so the error rethrown below is the one a serial
    // run meets first.
    std::atomic<std::size_t> firstFailure{count};

    auto evaluate = [&](std::size_t index) {
        if (index > firstFailure.load(std::memory_order_acquire)) {
            return;
        }
        const Stage& stage = stages_[index];
        try {
            support::Timer timer;
            EvalContext ctx(graph);
            ctx.pool = pool;
            bool depsDirty = false;
            for (std::size_t dep : stage.deps) {
                ctx.named[stages_[dep].name] = results[dep];
                depsDirty = depsDirty || dirty[dep] != 0;
            }
            auto cached = cache != nullptr
                              ? cache->lookup(generation, stage.canonicalHash)
                              : nullptr;
            if (cached != nullptr && !depsDirty) {
                results[index] = *cached;
                cacheHits.fetch_add(1, std::memory_order_relaxed);
            } else {
                // Kind-sets allocate lazily on first touch, so an uncached run
                // (footprint never stored) costs nothing either way.
                Footprint footprint;
                ctx.footprint = cache != nullptr ? &footprint : nullptr;
                results[index] = stage.selector->evaluate(ctx);
                dirty[index] = 1;
                if (cache != nullptr) {
                    // Re-validate against the last stored bits (live or
                    // stale): reproducing them exactly keeps dependents clean.
                    auto previous = cache->previousResult(stage.canonicalHash);
                    dirty[index] = previous == nullptr || !(*previous == results[index]);
                    cache->store(generation, stage.canonicalHash, results[index],
                                 std::move(footprint));
                }
            }
            ns[index] = timer.elapsedNs();
        } catch (...) {
            errors[index] = std::current_exception();
            std::size_t lowest = firstFailure.load(std::memory_order_relaxed);
            while (index < lowest &&
                   !firstFailure.compare_exchange_weak(lowest, index,
                                                       std::memory_order_acq_rel)) {
            }
        }
    };

    if (support::shouldShard(pool, count, /*threshold=*/2)) {
        schedule(*pool, evaluate);
    } else {
        for (std::size_t i = 0; i < count; ++i) {
            evaluate(i);
        }
    }
    const std::size_t failed = firstFailure.load(std::memory_order_acquire);
    if (failed < count) {
        std::rethrow_exception(errors[failed]);
    }

    PipelineRun run;
    run.cacheHits = cacheHits.load(std::memory_order_relaxed);
    run.timingsNs.reserve(count);
    run.sizes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        run.timingsNs.emplace_back(stages_[i].name, ns[i]);
        run.sizes.emplace_back(stages_[i].name, results[i].count());
    }
    run.result = count == 0 ? FunctionSet(graph.size()) : std::move(results.back());
    return run;
}

void Pipeline::schedule(support::ThreadPool& pool,
                        const std::function<void(std::size_t)>& evaluate) const {
    const std::size_t count = stages_.size();
    std::unique_ptr<std::atomic<std::size_t>[]> pending(
        new std::atomic<std::size_t>[count]);
    for (std::size_t i = 0; i < count; ++i) {
        pending[i].store(stages_[i].deps.size(), std::memory_order_relaxed);
    }
    std::size_t remaining = count;  // Guarded by `mutex`.
    std::mutex mutex;
    std::condition_variable done;

    // A finished stage submits each dependent whose last dependency it was,
    // so a chain of any length runs without recursion. Its pending-counter
    // acq_rel pair orders the dependent's reads of its result. The stage
    // counts itself out under the mutex: this frame returns once `remaining`
    // hits zero, and no task may touch it afterwards.
    std::function<void(std::size_t)> task = [&](std::size_t index) {
        evaluate(index);
        for (std::size_t dependent : stages_[index].dependents) {
            if (pending[dependent].fetch_sub(1, std::memory_order_acq_rel) == 1) {
                pool.submit([&task, dependent] { task(dependent); });
            }
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (--remaining == 0) {
            done.notify_all();
        }
    };
    for (std::size_t i = 0; i < count; ++i) {
        if (stages_[i].deps.empty()) {
            pool.submit([&task, i] { task(i); });
        }
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace capi::select

#include "select/scc.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "support/thread_pool.hpp"

namespace capi::select {

namespace {
constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
}  // namespace

SccResult computeScc(const cg::CsrView& csr) {
    const std::size_t n = csr.size();
    SccResult result;
    result.component.assign(n, kUnvisited);

    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> lowlink(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<cg::FunctionId> stack;
    std::uint32_t nextIndex = 0;
    std::uint32_t nextComponent = 0;

    // Explicit DFS frame: node plus the next callee position to visit.
    struct Frame {
        cg::FunctionId node;
        std::size_t childPos;
    };
    std::vector<Frame> dfs;

    for (cg::FunctionId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited) {
            continue;
        }
        dfs.push_back({root, 0});
        index[root] = lowlink[root] = nextIndex++;
        stack.push_back(root);
        onStack[root] = true;

        while (!dfs.empty()) {
            Frame& frame = dfs.back();
            std::span<const cg::FunctionId> callees = csr.callees(frame.node);
            if (frame.childPos < callees.size()) {
                cg::FunctionId child = callees[frame.childPos++];
                if (index[child] == kUnvisited) {
                    index[child] = lowlink[child] = nextIndex++;
                    stack.push_back(child);
                    onStack[child] = true;
                    dfs.push_back({child, 0});
                } else if (onStack[child] && index[child] < lowlink[frame.node]) {
                    lowlink[frame.node] = index[child];
                }
                continue;
            }
            // All children explored: maybe emit a component, then propagate
            // the lowlink into the parent frame.
            cg::FunctionId node = frame.node;
            dfs.pop_back();
            if (lowlink[node] == index[node]) {
                while (true) {
                    cg::FunctionId member = stack.back();
                    stack.pop_back();
                    onStack[member] = false;
                    result.component[member] = nextComponent;
                    if (member == node) break;
                }
                ++nextComponent;
            }
            if (!dfs.empty() && lowlink[node] < lowlink[dfs.back().node]) {
                lowlink[dfs.back().node] = lowlink[node];
            }
        }
    }

    result.componentCount = nextComponent;
    return result;
}

SccResult computeScc(const cg::CallGraph& graph) {
    return computeScc(*cg::CsrView::snapshot(graph));
}

SccCondensation condenseScc(const cg::CsrView& csr, const SccResult& scc,
                            support::ThreadPool* pool) {
    const std::size_t n = csr.size();
    const std::size_t comps = scc.componentCount;
    SccCondensation out;
    out.callerOffsets.assign(comps + 1, 0);

    // Below the shard threshold the atomic bookkeeping of the sharded fill
    // costs more than the plain loops it splits.
    if (!support::shouldShard(pool, n)) {
        out.localStmts.assign(comps, 0);
        // Count cross-component caller edges per component, prefix-sum into
        // offsets, then fill. Duplicate (comp, callerComp) pairs are kept,
        // exactly as the pre-CSR implementation pushed them.
        std::vector<std::uint32_t> degree(comps, 0);
        for (cg::FunctionId id = 0; id < n; ++id) {
            std::uint32_t comp = scc.component[id];
            out.localStmts[comp] += csr.numStatements(id);
            for (cg::FunctionId caller : csr.callers(id)) {
                if (scc.component[caller] != comp) {
                    ++degree[comp];
                }
            }
        }
        for (std::size_t c = 0; c < comps; ++c) {
            out.callerOffsets[c + 1] = out.callerOffsets[c] + degree[c];
        }
        out.callerComps.resize(out.callerOffsets[comps]);
        std::vector<std::uint32_t> cursor(out.callerOffsets.begin(),
                                          out.callerOffsets.end() - 1);
        for (cg::FunctionId id = 0; id < n; ++id) {
            std::uint32_t comp = scc.component[id];
            for (cg::FunctionId caller : csr.callers(id)) {
                std::uint32_t callerComp = scc.component[caller];
                if (callerComp != comp) {
                    out.callerComps[cursor[comp]++] = callerComp;
                }
            }
        }
        return out;
    }

    // Parallel path: shard nodes; accumulate per-component sums and degrees
    // with relaxed atomics (addition commutes, so totals are exact regardless
    // of interleaving), then fill rows through per-component atomic cursors.
    // Row element ORDER is scheduling-dependent, but the row CONTENT is the
    // same multiset as the serial pass and the consumer folds it with max.
    std::vector<std::atomic<std::uint64_t>> stmts(comps);
    std::vector<std::atomic<std::uint32_t>> degree(comps);
    for (std::size_t c = 0; c < comps; ++c) {
        stmts[c].store(0, std::memory_order_relaxed);
        degree[c].store(0, std::memory_order_relaxed);
    }
    constexpr std::size_t kGrain = 1024;
    support::parallelFor(pool, n, kGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const auto id = static_cast<cg::FunctionId>(i);
            std::uint32_t comp = scc.component[id];
            stmts[comp].fetch_add(csr.numStatements(id),
                                  std::memory_order_relaxed);
            std::uint32_t local = 0;
            for (cg::FunctionId caller : csr.callers(id)) {
                if (scc.component[caller] != comp) {
                    ++local;
                }
            }
            if (local != 0) {
                degree[comp].fetch_add(local, std::memory_order_relaxed);
            }
        }
    });

    out.localStmts.resize(comps);
    for (std::size_t c = 0; c < comps; ++c) {
        out.localStmts[c] = stmts[c].load(std::memory_order_relaxed);
        out.callerOffsets[c + 1] =
            out.callerOffsets[c] + degree[c].load(std::memory_order_relaxed);
    }
    out.callerComps.resize(out.callerOffsets[comps]);

    std::vector<std::atomic<std::uint32_t>> cursor(comps);
    for (std::size_t c = 0; c < comps; ++c) {
        cursor[c].store(out.callerOffsets[c], std::memory_order_relaxed);
    }
    support::parallelFor(pool, n, kGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const auto id = static_cast<cg::FunctionId>(i);
            std::uint32_t comp = scc.component[id];
            for (cg::FunctionId caller : csr.callers(id)) {
                std::uint32_t callerComp = scc.component[caller];
                if (callerComp != comp) {
                    out.callerComps[cursor[comp].fetch_add(
                        1, std::memory_order_relaxed)] = callerComp;
                }
            }
        }
    });
    return out;
}

}  // namespace capi::select

// Reachability analyses over the whole-program call graph.
//
// These back the call-path selectors: `onCallPathTo(S)` is the set of
// functions f such that f is reachable from the entry point AND some member
// of S is reachable from f — i.e. f lies on at least one call path from main
// to S. Implemented as forward/backward BFS on word-packed bitsets.
//
// All traversals run against the flat cg::CsrView snapshot rather than the
// pointer-chasing CallGraph::Node vectors; the CallGraph overloads snapshot
// (or reuse the cached snapshot for) the graph's current generation and
// delegate.
//
// Every analysis takes an optional thread pool. When given one, the BFS runs
// level-synchronously with the current frontier sharded over 64-bit word
// ranges; per-shard partial frontiers are OR-merged, so the visited set is
// bit-identical to the serial traversal.
#pragma once

#include "cg/call_graph.hpp"
#include "cg/csr_view.hpp"
#include "support/bitset.hpp"

namespace capi::support {
class ThreadPool;
}

namespace capi::cg {

/// Which edge relation a traversal follows.
enum class EdgeDir { Callees, Callers };

/// One-hop neighbor expansion: the union of `dir` rows over every member of
/// `seeds` (seeds themselves NOT included unless they are neighbors). The
/// building block of the callers()/callees() k-hop selectors; sharded over
/// frontier word ranges when a pool is given, with bit-identical results
/// (set union is order-independent).
support::DynamicBitset neighborUnion(const CsrView& csr,
                                     const support::DynamicBitset& seeds,
                                     EdgeDir dir,
                                     support::ThreadPool* pool = nullptr);

/// Forward closure: everything reachable from `roots` via callee edges
/// (roots included).
support::DynamicBitset reachableFrom(const CsrView& csr,
                                     const support::DynamicBitset& roots,
                                     support::ThreadPool* pool = nullptr);
support::DynamicBitset reachableFrom(const CallGraph& graph,
                                     const support::DynamicBitset& roots,
                                     support::ThreadPool* pool = nullptr);

/// Backward closure: everything that can reach `targets` via callee edges
/// (targets included).
support::DynamicBitset reachesTo(const CsrView& csr,
                                 const support::DynamicBitset& targets,
                                 support::ThreadPool* pool = nullptr);
support::DynamicBitset reachesTo(const CallGraph& graph,
                                 const support::DynamicBitset& targets,
                                 support::ThreadPool* pool = nullptr);

/// Functions lying on a call path from the entry point (main) to any target;
/// empty without an entry point. The forward half is
/// CsrView::reachableFromEntry(), computed once per snapshot. When `touched`
/// is non-null it receives the union of BOTH traversals' visited sets
/// (forward from the entry, backward from `targets`) — the read footprint
/// incremental selection records for this analysis, a superset of the
/// returned intersection.
support::DynamicBitset onCallPath(const CsrView& csr,
                                  const support::DynamicBitset& targets,
                                  support::ThreadPool* pool = nullptr,
                                  support::DynamicBitset* touched = nullptr);
support::DynamicBitset onCallPath(const CallGraph& graph,
                                  const support::DynamicBitset& targets,
                                  support::ThreadPool* pool = nullptr);

/// Single-root convenience.
support::DynamicBitset reachableFrom(const CallGraph& graph, FunctionId root,
                                     support::ThreadPool* pool = nullptr);

}  // namespace capi::cg

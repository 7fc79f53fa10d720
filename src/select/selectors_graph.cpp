// Built-in selector types that need whole-graph analyses.
//
// Selector catalogue (graph half):
//   onCallPathTo(target)            functions on a call path main -> target
//   onCallPathFrom(source)          functions reachable from source
//   callers(a [, k])                callers of members of a, up to k hops
//   callees(a [, k])                callees of members of a, up to k hops
//   coarse(input [, critical])      drop sole-caller chain members (paper V-D)
//   statementAggregation(op, n [, input])
//                                   statements aggregated along the call
//                                   chain from main compare true [16]
//
// Every traversal here runs against the immutable cg::CsrView snapshot
// (flat offset+edge arrays) instead of the CallGraph's per-node vectors, and
// shards its hot loops over ctx.pool when one is set — bit-identical to the
// serial path in all cases.

#include <algorithm>

#include "cg/reachability.hpp"
#include "select/registry.hpp"
#include "select/scc.hpp"
#include "support/error.hpp"

namespace capi::select {
namespace {

using support::DynamicBitset;

class OnCallPathToSelector final : public Selector {
public:
    explicit OnCallPathToSelector(SelectorPtr target) : target_(std::move(target)) {}

    std::string describe() const override {
        return "onCallPathTo(" + target_->describe() + ")";
    }

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet targets = target_->evaluate(ctx);
        const cg::CsrView& csr = ctx.csr();
        DynamicBitset touched(csr.size());
        DynamicBitset result = cg::onCallPath(csr, targets.bits(), ctx.pool, &touched);
        // Reads the adjacency of every node either traversal visited; a
        // path newly reaching outside either closure must use a new edge
        // whose old endpoint lies inside it (entry-point changes purge the
        // whole cache, so the entry itself needs no record).
        ctx.touchEdgesSet(touched);
        return FunctionSet::fromBits(std::move(result));
    }
    bool tracksFootprint() const override { return true; }

private:
    SelectorPtr target_;
};

class OnCallPathFromSelector final : public Selector {
public:
    explicit OnCallPathFromSelector(SelectorPtr source) : source_(std::move(source)) {}

    std::string describe() const override {
        return "onCallPathFrom(" + source_->describe() + ")";
    }

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet sources = source_->evaluate(ctx);
        FunctionSet result = FunctionSet::fromBits(
            cg::reachableFrom(ctx.csr(), sources.bits(), ctx.pool));
        // The closure reads exactly the callee rows of the visited set (==
        // the result, which includes the sources).
        ctx.touchEdgesSet(result.bits());
        return result;
    }
    bool tracksFootprint() const override { return true; }

private:
    SelectorPtr source_;
};

/// callers(a, k) / callees(a, k): the union of 1..k-hop neighborhoods of the
/// input set (the input itself only if re-reached). k = 1 is the classic
/// CaPI direct-neighbor selector. Each hop is one sharded frontier expansion
/// over the CSR rows; hop results are set unions, so serial and parallel
/// evaluation agree bit for bit.
class NeighborSelector final : public Selector {
public:
    NeighborSelector(cg::EdgeDir dir, std::int64_t hops, SelectorPtr input)
        : dir_(dir), hops_(hops), input_(std::move(input)) {}

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet in = input_->evaluate(ctx);
        const cg::CsrView& csr = ctx.csr();
        DynamicBitset acc(csr.size());
        DynamicBitset frontier = in.bits();
        for (std::int64_t hop = 0; hop < hops_; ++hop) {
            DynamicBitset next = cg::neighborUnion(csr, frontier, dir_, ctx.pool);
            // BFS layering: only newly reached nodes stay on the frontier.
            // A node at minimal distance d <= k is reached at hop d either
            // way, so the union is identical to re-expanding everything —
            // but each edge is now traversed O(1) times instead of O(k),
            // and the loop terminates at the fixpoint even on cycles with
            // an astronomically large user-supplied k.
            next -= acc;
            if (!next.any()) {
                break;
            }
            acc |= next;
            frontier = std::move(next);
        }
        // Rows of the input set and of every expanded frontier were read;
        // in ∪ acc covers both (the last frontier's rows are unread, but a
        // superset footprint is always sound).
        ctx.touchEdgesSet(in.bits());
        ctx.touchEdgesSet(acc);
        return FunctionSet::fromBits(std::move(acc));
    }
    bool tracksFootprint() const override { return true; }

public:
    std::string describe() const override {
        std::string out =
            std::string(dir_ == cg::EdgeDir::Callers ? "callers(" : "callees(") +
            input_->describe();
        if (hops_ != 1) {
            out += ", " + std::to_string(hops_);
        }
        return out + ")";
    }

private:
    cg::EdgeDir dir_;
    std::int64_t hops_;
    SelectorPtr input_;
};

/// The coarse selector added for TALP region instrumentation (paper Sec. V-D).
///
/// Spec semantics (Listing 3): walk the graph from the entry point and, for
/// every callee v of a visited node, remove v when it is selected, has
/// exactly one caller in the whole-program graph, and is not protected by
/// the critical set; unreachable nodes are traversed afterwards so the rule
/// applies uniformly. Because that walk visits EVERY node, each function
/// with >= 1 caller is examined, the removal condition reads only v's own
/// whole-graph caller count (not the traversal state, and not whether its
/// caller survived), and a multi-caller v is never removed — the traversal
/// order cannot change the outcome. The selector therefore collapses to a
/// flat per-node filter:
///     remove v  iff  selected(v) && callerCount(v) == 1 && !critical(v)
/// which runs word-sharded over the CSR caller offsets (a degree is one
/// subtraction) instead of BFS-ing with a queue. Wrapper chains like
/// solve -> solveSegregated -> ... -> Amul still collapse wholesale: every
/// chain member is individually sole-caller.
class CoarseSelector final : public Selector {
public:
    CoarseSelector(SelectorPtr input, SelectorPtr critical)
        : input_(std::move(input)), critical_(std::move(critical)) {}

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet result = input_->evaluate(ctx);
        FunctionSet critical = critical_ != nullptr
                                   ? critical_->evaluate(ctx)
                                   : FunctionSet(ctx.graph.size());
        const cg::CsrView& csr = ctx.csr();
        // Reads the caller degree of every input member (recorded before the
        // in-place filter narrows the set).
        ctx.touchEdgesSet(result.bits());

        auto filterWords = [&](std::size_t wlo, std::size_t whi) {
            result.bits().forEachInWordRange(wlo, whi, [&](std::size_t i) {
                const auto id = static_cast<cg::FunctionId>(i);
                if (csr.callerCount(id) == 1 && !critical.contains(id)) {
                    result.remove(id);
                }
            });
        };
        // Each shard clears bits only inside its own words: remove(id) writes
        // the word containing id, and id came from that word.
        ctx.forEachWordShard(result.bits().wordCount(), filterWords);
        return result;
    }
    bool tracksFootprint() const override { return true; }

public:
    std::string describe() const override {
        std::string out = "coarse(" + input_->describe();
        if (critical_ != nullptr) {
            out += ", " + critical_->describe();
        }
        return out + ")";
    }

private:
    SelectorPtr input_;
    SelectorPtr critical_;  ///< May be null.
};

/// Statement aggregation selection [16]: local statement counts are
/// aggregated along the call chain from main; a function is selected when the
/// aggregate compares true against the threshold. Recursion cycles are
/// collapsed via SCC condensation (a cycle's members share one aggregate);
/// the condensation passes are sharded over node ranges and the final
/// threshold filter over word ranges.
class StatementAggregationSelector final : public Selector {
public:
    StatementAggregationSelector(CompareOp op, std::int64_t threshold,
                                 SelectorPtr input)
        : op_(op), threshold_(threshold), input_(std::move(input)) {}

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        // SCC condensation walks every edge and sums every node's statement
        // count: inherently whole-graph in both kinds.
        ctx.touchAllEdges();
        ctx.touchAllMetrics();
        if (input_ == nullptr) {
            ctx.touchUniverse();  // Defaults to %%.
        }
        const cg::CsrView& csr = ctx.csr();
        SccResult scc = computeScc(csr);
        SccCondensation cond = condenseScc(csr, scc, ctx.pool);

        // agg(C) = stmts(C) + max over caller components agg(C'), computed
        // top-down. Tarjan ids order callees before callers, so descending
        // component id visits callers first. Inherently sequential (each
        // component depends on its callers), but O(comps + cross edges) over
        // two flat arrays.
        std::vector<std::uint64_t> agg(scc.componentCount, 0);
        for (std::uint32_t comp = scc.componentCount; comp-- > 0;) {
            std::uint64_t best = 0;
            for (std::uint32_t ci = cond.callerOffsets[comp];
                 ci < cond.callerOffsets[comp + 1]; ++ci) {
                best = std::max(best, agg[cond.callerComps[ci]]);
            }
            agg[comp] = best + cond.localStmts[comp];
        }

        FunctionSet in = input_ != nullptr ? input_->evaluate(ctx)
                                           : FunctionSet::all(csr.size());
        FunctionSet out(csr.size());
        auto filterWords = [&](std::size_t wlo, std::size_t whi) {
            in.bits().forEachInWordRange(wlo, whi, [&](std::size_t i) {
                const auto id = static_cast<cg::FunctionId>(i);
                if (compareMetric(agg[scc.component[id]], op_, threshold_)) {
                    out.add(id);
                }
            });
        };
        ctx.forEachWordShard(in.bits().wordCount(), filterWords);
        return out;
    }
    bool tracksFootprint() const override { return true; }

public:
    std::string describe() const override {
        return std::string("statementAggregation(") + compareOpName(op_) + ", " +
               std::to_string(threshold_) +
               (input_ != nullptr ? ", " + input_->describe() : std::string()) + ")";
    }

private:
    CompareOp op_;
    std::int64_t threshold_;
    SelectorPtr input_;  ///< May be null (defaults to %%).
};

SelectorPtr makeNeighborSelector(cg::EdgeDir dir, const spec::Expr& call,
                                 SelectorBuilder& b) {
    b.checkArity(call, 1, 2);
    std::int64_t hops = call.args.size() == 2 ? b.numberArg(call, 1) : 1;
    if (hops < 1) {
        b.fail(call, "hop count must be >= 1");
    }
    return std::make_unique<NeighborSelector>(dir, hops, b.selectorArg(call, 0));
}

}  // namespace

namespace detail {

void registerGraphSelectors(SelectorRegistry& r) {
    r.registerType(
        "onCallPathTo",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 1, 1);
            return std::make_unique<OnCallPathToSelector>(b.selectorArg(call, 0));
        },
        "onCallPathTo(target): functions on a call path from main to target");
    r.registerType(
        "onCallPathFrom",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 1, 1);
            return std::make_unique<OnCallPathFromSelector>(b.selectorArg(call, 0));
        },
        "onCallPathFrom(source): functions reachable from source");
    r.registerType(
        "callers",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            return makeNeighborSelector(cg::EdgeDir::Callers, call, b);
        },
        "callers(a[, k]): callers of members of a, up to k hops (default 1)");
    r.registerType(
        "callees",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            return makeNeighborSelector(cg::EdgeDir::Callees, call, b);
        },
        "callees(a[, k]): callees of members of a, up to k hops (default 1)");
    r.registerType(
        "coarse",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 1, 2);
            SelectorPtr critical =
                call.args.size() == 2 ? b.selectorArg(call, 1) : nullptr;
            return std::make_unique<CoarseSelector>(b.selectorArg(call, 0),
                                                    std::move(critical));
        },
        "coarse(input[, critical]): remove sole-caller chain functions");
    r.registerType(
        "statementAggregation",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 2, 3);
            CompareOp op = parseCompareOp(b.stringArg(call, 0));
            std::int64_t threshold = b.numberArg(call, 1);
            SelectorPtr input =
                call.args.size() == 3 ? b.selectorArg(call, 2) : nullptr;
            return std::make_unique<StatementAggregationSelector>(op, threshold,
                                                                  std::move(input));
        },
        "statementAggregation(op, n[, input]): statements aggregated along call chains");
}

}  // namespace detail

}  // namespace capi::select

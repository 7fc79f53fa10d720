// Built-in flag, metric, name and set-combinator selector types.
//
// Selector catalogue (basic half):
//   %%                                   all functions
//   byName(pattern, input)               glob on mangled name
//   byPrettyName(pattern, input)         glob on demangled name
//   byPath(pattern, input)               glob on source file path
//   inSystemHeader(input)                defined in a system header
//   inlineSpecified(input)               marked `inline` in source
//   defined(input)                       has a body in the program
//   isVirtual(input)                     virtual member functions
//   addressTaken(input)                  used as a function pointer
//   mpiFunctions(input)                  MPI API entry points
//   flops(op, n, input)                  static flop count compares true
//   loopDepth(op, n, input)              max loop nesting compares true
//   statements(op, n, input)             statement count compares true
//   cyclomatic(op, n, input)             McCabe complexity compares true
//   callSites(op, n, input)              call expressions compare true
//   instructions(op, n, input)           approx. machine instructions
//   profiledVisits(op, n, input)         last-epoch runtime visit count
//   join(a, b, ...)                      set union
//   intersect(a, b, ...)                 set intersection
//   subtract(a, b)                       set difference
//   complement(a)                        universe minus a

#include <algorithm>

#include "select/registry.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace capi::select {

CompareOp parseCompareOp(const std::string& text) {
    if (text == "<") return CompareOp::Lt;
    if (text == "<=") return CompareOp::Le;
    if (text == ">") return CompareOp::Gt;
    if (text == ">=") return CompareOp::Ge;
    if (text == "==" || text == "=") return CompareOp::Eq;
    if (text == "!=") return CompareOp::Ne;
    throw support::Error("unknown comparison operator '" + text + "'");
}

const char* compareOpName(CompareOp op) {
    switch (op) {
        case CompareOp::Lt: return "<";
        case CompareOp::Le: return "<=";
        case CompareOp::Gt: return ">";
        case CompareOp::Ge: return ">=";
        case CompareOp::Eq: return "==";
        case CompareOp::Ne: return "!=";
    }
    return "?";
}

namespace {

class EverythingSelector final : public Selector {
public:
    std::string describe() const override { return "%%"; }

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        // Reads nothing per node, but the result IS the universe: it grows
        // with every added node.
        ctx.touchUniverse();
        return FunctionSet::all(ctx.graph.size());
    }
    bool tracksFootprint() const override { return true; }
};

/// `%name`: looks up a previously evaluated named instance.
class ReferenceSelector final : public Selector {
public:
    explicit ReferenceSelector(std::string name) : name_(std::move(name)) {}

    std::string describe() const override { return "%" + name_; }

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        auto it = ctx.named.find(name_);
        if (it == ctx.named.end()) {
            throw support::Error("selector reference '%" + name_ +
                                 "' used before definition");
        }
        // No graph reads of its own: changes to the referenced stage reach
        // dependents through the pipeline's %ref dirtiness propagation.
        return it->second;
    }
    bool tracksFootprint() const override { return true; }

private:
    std::string name_;
};

/// What a FilterSelector predicate reads of each candidate, for footprint
/// classification: name/flag predicates survive metric-only touches and
/// vice versa.
enum class FilterReads { Desc, Metrics };

/// Filters the input set by a per-function test keep(graph, csr, id). Flag
/// and metric tests read the snapshot's flat columns and mangled-name tests
/// its name arena; pretty-name and path tests read the FunctionDesc.
template <typename Keep>
class FilterSelector final : public Selector {
public:
    FilterSelector(std::string name, SelectorPtr input, Keep keep, FilterReads reads)
        : name_(std::move(name)), input_(std::move(input)), keep_(std::move(keep)),
          reads_(reads) {}

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet in = input_->evaluate(ctx);
        // The test runs on exactly the members of `in`.
        if (reads_ == FilterReads::Desc) {
            ctx.touchDescSet(in.bits());
        } else {
            ctx.touchMetricsSet(in.bits());
        }
        const cg::CsrView& csr = ctx.csr();  // Resolved before sharding.
        FunctionSet out(ctx.graph.size());
        auto filterWords = [&](std::size_t wordBegin, std::size_t wordEnd) {
            // A bit at index i lives in word i/64, so a worker filtering
            // words [wordBegin, wordEnd) only writes words in that range.
            in.bits().forEachInWordRange(wordBegin, wordEnd, [&](std::size_t id) {
                const auto fid = static_cast<cg::FunctionId>(id);
                if (keep_(ctx.graph, csr, fid)) {
                    out.add(fid);
                }
            });
        };
        ctx.forEachWordShard(in.bits().wordCount(), filterWords);
        return out;
    }
    bool tracksFootprint() const override { return true; }

public:
    std::string describe() const override {
        return name_ + "(" + input_->describe() + ")";
    }

private:
    std::string name_;
    SelectorPtr input_;
    Keep keep_;
    FilterReads reads_;
};

template <typename Keep>
SelectorPtr makeFilter(std::string name, SelectorPtr input, Keep keep,
                       FilterReads reads) {
    return std::make_unique<FilterSelector<Keep>>(std::move(name), std::move(input),
                                                  std::move(keep), reads);
}

enum class SetOp { Union, Intersection };

/// join(...) / intersect(...): variadic set combinators.
class CombineSelector final : public Selector {
public:
    CombineSelector(SetOp op, std::vector<SelectorPtr> inputs)
        : op_(op), inputs_(std::move(inputs)) {}

protected:
    // Pure set algebra over child results; the children report their own
    // reads into the shared footprint.
    bool tracksFootprint() const override { return true; }

    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet result = inputs_.front()->evaluate(ctx);
        std::vector<FunctionSet> rest;
        rest.reserve(inputs_.size() - 1);
        for (std::size_t i = 1; i < inputs_.size(); ++i) {
            rest.push_back(inputs_[i]->evaluate(ctx));
        }
        support::DynamicBitset& acc = result.bits();
        ctx.forEachWordShard(acc.wordCount(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t w = lo; w < hi; ++w) {
                std::uint64_t v = acc.word(w);
                for (const FunctionSet& s : rest) {
                    if (op_ == SetOp::Union) {
                        v |= s.bits().word(w);
                    } else {
                        v &= s.bits().word(w);
                    }
                }
                acc.setWord(w, v);
            }
        });
        return result;
    }

public:
    std::string describe() const override {
        std::string out = op_ == SetOp::Union ? "join(" : "intersect(";
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            if (i > 0) out += ", ";
            out += inputs_[i]->describe();
        }
        return out + ")";
    }

private:
    SetOp op_;
    std::vector<SelectorPtr> inputs_;
};

class SubtractSelector final : public Selector {
public:
    SubtractSelector(SelectorPtr left, SelectorPtr right)
        : left_(std::move(left)), right_(std::move(right)) {}

protected:
    bool tracksFootprint() const override { return true; }

    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet result = left_->evaluate(ctx);
        FunctionSet right = right_->evaluate(ctx);
        support::DynamicBitset& acc = result.bits();
        ctx.forEachWordShard(acc.wordCount(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t w = lo; w < hi; ++w) {
                acc.setWord(w, acc.word(w) & ~right.bits().word(w));
            }
        });
        return result;
    }

public:
    std::string describe() const override {
        return "subtract(" + left_->describe() + ", " + right_->describe() + ")";
    }

private:
    SelectorPtr left_;
    SelectorPtr right_;
};

class ComplementSelector final : public Selector {
public:
    explicit ComplementSelector(SelectorPtr input) : input_(std::move(input)) {}

    std::string describe() const override {
        return "complement(" + input_->describe() + ")";
    }

protected:
    FunctionSet evaluateImpl(EvalContext& ctx) const override {
        FunctionSet result = input_->evaluate(ctx);
        // The complement of an unchanged set still changes when the
        // universe grows (a new node joins the complement).
        ctx.touchUniverse();
        result.complement();
        return result;
    }
    bool tracksFootprint() const override { return true; }

private:
    SelectorPtr input_;
};

// --- factory helpers --------------------------------------------------------

SelectorFactory flagFactory(bool cg::FunctionFlags::*flag) {
    cg::FunctionFlags only;
    only.*flag = true;
    const std::uint8_t mask = cg::packFlags(only);
    return [mask](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
        b.checkArity(call, 1, 1);
        return makeFilter(
            call.value, b.selectorArg(call, 0),
            [mask](const cg::CallGraph&, const cg::CsrView& csr, cg::FunctionId id) {
                return (csr.flagBits(id) & mask) != 0;
            },
            FilterReads::Desc);
    };
}

SelectorFactory metricFactory(std::uint32_t cg::FunctionMetrics::*metric) {
    return [metric](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
        b.checkArity(call, 3, 3);
        CompareOp op = parseCompareOp(b.stringArg(call, 0));
        std::int64_t threshold = b.numberArg(call, 1);
        return makeFilter(
            call.value, b.selectorArg(call, 2),
            [metric, op, threshold](const cg::CallGraph&, const cg::CsrView& csr,
                                    cg::FunctionId id) {
                return compareMetric(csr.metrics(id).*metric, op, threshold);
            },
            FilterReads::Metrics);
    };
}

enum class NameField { Mangled, Pretty, Path };

SelectorFactory nameFactory(NameField field) {
    return [field](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
        b.checkArity(call, 2, 2);
        std::string pattern = b.stringArg(call, 0);
        return makeFilter(
            call.value, b.selectorArg(call, 1),
            [field, pattern](const cg::CallGraph& graph, const cg::CsrView& csr,
                             cg::FunctionId id) {
                if (field == NameField::Mangled) {
                    return support::globMatch(pattern, csr.name(id));
                }
                const cg::FunctionDesc& desc = graph.desc(id);
                return support::globMatch(pattern, field == NameField::Pretty
                                                       ? desc.prettyName
                                                       : desc.sourceFile);
            },
            FilterReads::Desc);
    };
}

}  // namespace

namespace detail {

SelectorPtr makeEverything() { return std::make_unique<EverythingSelector>(); }

SelectorPtr makeReference(std::string name) {
    return std::make_unique<ReferenceSelector>(std::move(name));
}

void registerBasicSelectors(SelectorRegistry& r) {
    r.registerType("byName", nameFactory(NameField::Mangled),
                   "byName(pattern, input): glob match on mangled names");
    r.registerType("byPrettyName", nameFactory(NameField::Pretty),
                   "byPrettyName(pattern, input): glob match on demangled names");
    r.registerType("byPath", nameFactory(NameField::Path),
                   "byPath(pattern, input): glob match on source file paths");

    r.registerType("inSystemHeader", flagFactory(&cg::FunctionFlags::inSystemHeader),
                   "inSystemHeader(input): functions defined in system headers");
    r.registerType("inlineSpecified", flagFactory(&cg::FunctionFlags::inlineSpecified),
                   "inlineSpecified(input): functions marked inline in source");
    r.registerType("defined", flagFactory(&cg::FunctionFlags::hasBody),
                   "defined(input): functions with a body in the program");
    r.registerType("isVirtual", flagFactory(&cg::FunctionFlags::isVirtual),
                   "isVirtual(input): virtual member functions");
    r.registerType("addressTaken", flagFactory(&cg::FunctionFlags::addressTaken),
                   "addressTaken(input): functions whose address is taken");
    r.registerType("mpiFunctions", flagFactory(&cg::FunctionFlags::isMpi),
                   "mpiFunctions(input): MPI API entry points");

    r.registerType("flops", metricFactory(&cg::FunctionMetrics::flops),
                   "flops(op, n, input): static floating-point operation count");
    r.registerType("loopDepth", metricFactory(&cg::FunctionMetrics::loopDepth),
                   "loopDepth(op, n, input): maximum loop nesting depth");
    r.registerType("statements", metricFactory(&cg::FunctionMetrics::numStatements),
                   "statements(op, n, input): source statement count");
    r.registerType("cyclomatic",
                   metricFactory(&cg::FunctionMetrics::cyclomaticComplexity),
                   "cyclomatic(op, n, input): McCabe cyclomatic complexity");
    r.registerType("callSites", metricFactory(&cg::FunctionMetrics::numCallSites),
                   "callSites(op, n, input): number of call expressions in the body");
    r.registerType("instructions", metricFactory(&cg::FunctionMetrics::numInstructions),
                   "instructions(op, n, input): approximate machine instruction count");
    r.registerType("profiledVisits", metricFactory(&cg::FunctionMetrics::profiledVisits),
                   "profiledVisits(op, n, input): visit count from the last measurement epoch");

    r.registerType(
        "join",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 1, SIZE_MAX);
            std::vector<SelectorPtr> inputs;
            for (std::size_t i = 0; i < call.args.size(); ++i) {
                inputs.push_back(b.selectorArg(call, i));
            }
            return std::make_unique<CombineSelector>(SetOp::Union, std::move(inputs));
        },
        "join(a, b, ...): set union");
    r.registerType(
        "intersect",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 1, SIZE_MAX);
            std::vector<SelectorPtr> inputs;
            for (std::size_t i = 0; i < call.args.size(); ++i) {
                inputs.push_back(b.selectorArg(call, i));
            }
            return std::make_unique<CombineSelector>(SetOp::Intersection,
                                                     std::move(inputs));
        },
        "intersect(a, b, ...): set intersection");
    r.registerType(
        "subtract",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 2, 2);
            return std::make_unique<SubtractSelector>(b.selectorArg(call, 0),
                                                      b.selectorArg(call, 1));
        },
        "subtract(a, b): set difference");
    r.registerType(
        "complement",
        [](const spec::Expr& call, SelectorBuilder& b) -> SelectorPtr {
            b.checkArity(call, 1, 1);
            return std::make_unique<ComplementSelector>(b.selectorArg(call, 0));
        },
        "complement(a): all functions not in a");
}

}  // namespace detail

}  // namespace capi::select

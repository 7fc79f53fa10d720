#include "select/registry.hpp"

#include "support/error.hpp"

namespace capi::select {

void SelectorRegistry::registerType(const std::string& name, SelectorFactory factory,
                                    std::string documentation) {
    types_[name] = Entry{std::move(factory), std::move(documentation)};
}

const SelectorFactory* SelectorRegistry::find(const std::string& name) const {
    auto it = types_.find(name);
    return it == types_.end() ? nullptr : &it->second.factory;
}

std::string SelectorRegistry::documentation(const std::string& name) const {
    auto it = types_.find(name);
    return it == types_.end() ? std::string() : it->second.documentation;
}

namespace detail {
// Implemented in selectors_basic.cpp / selectors_graph.cpp.
void registerBasicSelectors(SelectorRegistry& registry);
void registerGraphSelectors(SelectorRegistry& registry);

SelectorPtr makeEverything();
SelectorPtr makeReference(std::string name);
}  // namespace detail

const SelectorRegistry& SelectorRegistry::builtin() {
    static const SelectorRegistry registry = [] {
        SelectorRegistry r;
        detail::registerBasicSelectors(r);
        detail::registerGraphSelectors(r);
        return r;
    }();
    return registry;
}

void SelectorBuilder::fail(const spec::Expr& at, const std::string& message) const {
    throw support::ParseError("selector: " + message, at.line, at.column);
}

void SelectorBuilder::checkArity(const spec::Expr& call, std::size_t min,
                                 std::size_t max) const {
    if (call.args.size() < min || call.args.size() > max) {
        std::string expected = min == max ? std::to_string(min)
                                          : std::to_string(min) + ".." +
                                                (max == SIZE_MAX
                                                     ? std::string("n")
                                                     : std::to_string(max));
        fail(call, "'" + call.value + "' expects " + expected + " argument(s), got " +
                       std::to_string(call.args.size()));
    }
}

SelectorPtr SelectorBuilder::selectorArg(const spec::Expr& call, std::size_t index) {
    const spec::Expr& arg = *call.args[index];
    if (arg.kind == spec::Expr::Kind::String || arg.kind == spec::Expr::Kind::Number) {
        fail(arg, "'" + call.value + "' argument " + std::to_string(index + 1) +
                      " must be a selector");
    }
    return build(arg);
}

std::string SelectorBuilder::stringArg(const spec::Expr& call, std::size_t index) const {
    const spec::Expr& arg = *call.args[index];
    if (arg.kind != spec::Expr::Kind::String) {
        fail(arg, "'" + call.value + "' argument " + std::to_string(index + 1) +
                      " must be a string");
    }
    return arg.value;
}

std::int64_t SelectorBuilder::numberArg(const spec::Expr& call, std::size_t index) const {
    const spec::Expr& arg = *call.args[index];
    if (arg.kind != spec::Expr::Kind::Number) {
        fail(arg, "'" + call.value + "' argument " + std::to_string(index + 1) +
                      " must be a number");
    }
    return arg.number;
}

SelectorPtr SelectorBuilder::build(const spec::Expr& expr) {
    switch (expr.kind) {
        case spec::Expr::Kind::Everything: return detail::makeEverything();
        case spec::Expr::Kind::Ref: return detail::makeReference(expr.value);
        case spec::Expr::Kind::Call: {
            const SelectorFactory* factory = registry_.find(expr.value);
            if (factory == nullptr) {
                fail(expr, "unknown selector type '" + expr.value + "'");
            }
            return (*factory)(expr, *this);
        }
        default:
            fail(expr, "expression is not a selector");
    }
}

}  // namespace capi::select

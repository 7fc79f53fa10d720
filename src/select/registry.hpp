// Selector type registry and AST-to-selector builder.
//
// Every selector type available to spec files is registered here by name with
// a factory that validates its arguments. The registry ships with all
// built-in CaPI selector types; users can register custom types, mirroring
// CaPI's extensible selector pipeline.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spec/ast.hpp"
#include "select/selector.hpp"

namespace capi::select {

class SelectorBuilder;

/// Builds a selector from a Call expression; must validate arguments and
/// throw support::Error with a useful message when they are malformed.
using SelectorFactory =
    std::function<SelectorPtr(const spec::Expr&, SelectorBuilder&)>;

class SelectorRegistry {
public:
    void registerType(const std::string& name, SelectorFactory factory,
                      std::string documentation = {});

    const SelectorFactory* find(const std::string& name) const;
    std::string documentation(const std::string& name) const;

    /// Registry pre-populated with every built-in selector type.
    static const SelectorRegistry& builtin();

private:
    struct Entry {
        SelectorFactory factory;
        std::string documentation;
    };
    std::map<std::string, Entry> types_;
};

/// Turns spec AST expressions into selector trees using a registry.
class SelectorBuilder {
public:
    explicit SelectorBuilder(const SelectorRegistry& registry)
        : registry_(registry) {}

    /// Builds any selector-valued expression (Call, Ref or %%).
    SelectorPtr build(const spec::Expr& expr);

    // --- argument helpers for factories -----------------------------------
    [[noreturn]] void fail(const spec::Expr& at, const std::string& message) const;
    void checkArity(const spec::Expr& call, std::size_t min, std::size_t max) const;
    SelectorPtr selectorArg(const spec::Expr& call, std::size_t index);
    std::string stringArg(const spec::Expr& call, std::size_t index) const;
    std::int64_t numberArg(const spec::Expr& call, std::size_t index) const;

private:
    const SelectorRegistry& registry_;
};

}  // namespace capi::select

// Abstraction over "which function symbols exist in the final binary".
//
// The inlining-compensation step approximates the set of inlined functions by
// probing the symbol tables of the executable and all dependent shared
// objects (paper Sec. V-E). The selection library only needs this one
// predicate; src/binsim provides the implementation backed by compiled
// program images, and tests can use the simple set-based oracle below.
#pragma once

#include <cstddef>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_set>

namespace capi::select {

class SymbolOracle {
public:
    virtual ~SymbolOracle() = default;

    /// True when a symbol for `functionName` exists in the executable or any
    /// dependent shared object. Absence is interpreted as "inlined at all
    /// call sites". The view need only live for the call: callers pass
    /// names straight from a CsrView name arena, and an oracle keeps no
    /// reference to them.
    virtual bool hasSymbol(std::string_view functionName) const = 0;
};

/// Oracle backed by an explicit symbol-name set.
class SetSymbolOracle final : public SymbolOracle {
public:
    SetSymbolOracle() = default;
    explicit SetSymbolOracle(std::unordered_set<std::string> symbols)
        : symbols_(std::make_move_iterator(symbols.begin()),
                   std::make_move_iterator(symbols.end())) {}

    void add(const std::string& name) { symbols_.insert(name); }

    bool hasSymbol(std::string_view functionName) const override {
        return symbols_.contains(functionName);
    }

private:
    /// Hashes std::string and std::string_view alike, so hasSymbol looks a
    /// view up without building a std::string.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view name) const {
            return std::hash<std::string_view>{}(name);
        }
    };

    std::unordered_set<std::string, NameHash, std::equal_to<>> symbols_;
};

}  // namespace capi::select

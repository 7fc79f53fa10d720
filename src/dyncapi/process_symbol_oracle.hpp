// SymbolOracle backed by a compiled program's symbol tables.
//
// CaPI's inlining compensation asks "does a symbol for this function exist in
// the binary or any dependent shared object?" — answered here from the nm
// dumps of every object image (hidden symbols are invisible to nm and
// therefore count as absent, consistent with the runtime resolution path).
// The names sit in one flat NameIndex, copied once from the images.
#pragma once

#include "binsim/compiler.hpp"
#include "binsim/nm.hpp"
#include "select/symbol_oracle.hpp"
#include "support/name_index.hpp"

namespace capi::dyncapi {

class ProcessSymbolOracle final : public select::SymbolOracle {
public:
    explicit ProcessSymbolOracle(const binsim::CompiledProgram& program)
        : symbols_(visibleSymbols(program)) {
        addObject(program.executable);
        for (const binsim::ObjectImage& dso : program.dsos) {
            addObject(dso);
        }
    }

    bool hasSymbol(std::string_view functionName) const override {
        return symbols_.contains(functionName);
    }

    std::size_t size() const { return symbols_.size(); }

private:
    /// Bounds the distinct names: every symbol nm shows, all objects.
    static std::size_t visibleSymbols(const binsim::CompiledProgram& program) {
        std::size_t count = program.executable.symbols.size() -
                            binsim::hiddenSymbolCount(program.executable);
        for (const binsim::ObjectImage& dso : program.dsos) {
            count += dso.symbols.size() - binsim::hiddenSymbolCount(dso);
        }
        return count;
    }

    void addObject(const binsim::ObjectImage& image) {
        binsim::forEachNmSymbol(image, [&](const binsim::Symbol& symbol) {
            symbols_.insert(symbol.name, 0);
        });
    }

    support::NameIndex symbols_;
};

}  // namespace capi::dyncapi

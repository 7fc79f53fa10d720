// nm-like symbol dump of object images.
//
// DynCaPI resolves XRay function IDs to names by dumping each object's
// symbols with `nm` and translating the link-time addresses through the
// loader's memory map (the symbol-injection method from the original CaPI
// paper). Hidden-visibility symbols do not appear in the dump — those are
// exactly the functions that cannot be resolved at runtime (paper Sec. VI-B).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "binsim/object_image.hpp"

namespace capi::binsim {

struct NmEntry {
    std::string name;
    std::uint64_t address = 0;  ///< Link-time (object-local) address.
    std::uint64_t size = 0;
};

/// Calls fn(symbol) for every symbol nmDump lists, in address order,
/// without copying a name.
template <typename Fn>
void forEachNmSymbol(const ObjectImage& image, Fn&& fn) {
    for (const Symbol& symbol : image.symbols) {
        if (!symbol.hidden) {
            fn(symbol);
        }
    }
}

/// Visible text symbols of one object, sorted by address.
inline std::vector<NmEntry> nmDump(const ObjectImage& image) {
    std::vector<NmEntry> out;
    out.reserve(image.symbols.size());
    forEachNmSymbol(image, [&](const Symbol& symbol) {
        out.push_back({symbol.name, symbol.address, symbol.size});
    });
    return out;
}

/// nmDump's address lookup without copying a name: find(address) is the
/// symbol the dump lists first at that link-time address, or nullptr.
/// Lookups at ascending addresses (an object's XRay fids, which the
/// compiler assigns in layout order) resume where the previous one stopped,
/// so a sweep reads the address-sorted symbols once; a lookup below the
/// previous one restarts with a binary search.
class NmAddressCursor {
public:
    explicit NmAddressCursor(const ObjectImage& image) : symbols_(&image.symbols) {}

    const Symbol* find(std::uint64_t address) {
        const std::vector<Symbol>& symbols = *symbols_;
        if (next_ > 0 && symbols[next_ - 1].address >= address) {
            next_ = static_cast<std::size_t>(
                std::lower_bound(symbols.begin(), symbols.end(), address,
                                 [](const Symbol& symbol, std::uint64_t a) {
                                     return symbol.address < a;
                                 }) -
                symbols.begin());
        }
        while (next_ < symbols.size() && symbols[next_].address < address) {
            ++next_;
        }
        for (std::size_t i = next_; i < symbols.size() && symbols[i].address == address;
             ++i) {
            if (!symbols[i].hidden) {
                return &symbols[i];
            }
        }
        return nullptr;
    }

private:
    const std::vector<Symbol>* symbols_;
    std::size_t next_ = 0;  ///< First symbol at or above the last address.
};

/// Count of symbols the dump cannot show (hidden visibility).
inline std::size_t hiddenSymbolCount(const ObjectImage& image) {
    std::size_t count = 0;
    for (const Symbol& symbol : image.symbols) {
        if (symbol.hidden) {
            ++count;
        }
    }
    return count;
}

}  // namespace capi::binsim

// Address-to-name resolution, including the DSO limitation and its fix.
//
// Score-P's generic -finstrument-functions adapter receives only function
// addresses, so it builds a name map by examining the *executable* binary.
// Addresses inside shared objects cannot be resolved this way (paper
// Sec. V-C1) — those events are dropped and counted.
//
// The symbol-injection method from the original CaPI paper repairs this:
// the loader's memory map tells where each DSO is mapped, `nm` provides each
// object's local symbol addresses, and translating local addresses by the
// load base yields process-wide symbols that are injected into the resolver.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "binsim/nm.hpp"
#include "binsim/process.hpp"

namespace capi::scorep {

class SymbolResolver {
public:
    /// Score-P's default: symbols of the main executable only.
    static SymbolResolver fromExecutable(const binsim::ObjectImage& executable);

    /// Symbol injection: translate one DSO's nm dump by its load base and add
    /// the result. Returns the number of symbols injected.
    std::size_t injectObject(const binsim::ObjectImage& object);

    /// Injects every DSO found in the process memory map.
    static SymbolResolver withSymbolInjection(const binsim::Process& process);

    /// Resolves a runtime address to the containing function's name.
    std::optional<std::string> resolve(std::uint64_t runtimeAddress) const;

private:
    struct Entry {
        std::uint64_t begin;
        std::uint64_t end;
        std::string name;
    };

    void addEntry(Entry entry);
    void sortEntries();

    std::vector<Entry> entries_;  ///< Sorted by begin address.
    bool sorted_ = true;
};

}  // namespace capi::scorep

// Compiled object images: the simulated ELF artifacts of the toolchain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xraysim/sled.hpp"

namespace capi::binsim {

/// One symbol-table entry of a compiled object.
struct Symbol {
    std::string name;
    std::uint64_t address = 0;  ///< Link-time address.
    std::uint64_t size = 0;
    bool hidden = false;        ///< Hidden visibility: invisible to nm/dynsym,
                                ///< hence unresolvable at runtime (paper VI-B).
};

/// Layout record of one function inside an object image.
struct CompiledFunction {
    std::uint32_t modelIndex = 0;     ///< Index into AppModel::functions.
    xray::FunctionId localId = 0;     ///< XRay function ID within this object.
    std::uint64_t entryAddress = 0;   ///< Link-time address of the entry sled.
    std::uint64_t exitAddress = 0;    ///< Link-time address of the exit sled.
    bool hasSleds = false;            ///< False when below the XRay threshold.
};

/// A compiled executable or shared object.
struct ObjectImage {
    std::string name;
    bool isMainExecutable = false;
    std::uint64_t linkBase = 0;
    std::uint64_t loadBase = 0;   ///< Assigned by the loader.
    std::uint64_t sizeBytes = 0;
    bool xrayInstrumented = false;
    bool picTrampolines = false;  ///< True for DSOs built with xray-dso.

    std::vector<Symbol> symbols;               ///< Sorted by address.
    xray::SledTable sledTable;                 ///< Link-time addresses.
    std::vector<CompiledFunction> functions;   ///< Functions with code here.

    bool loaded() const { return loadBase != 0 || isMainExecutable; }
};

}  // namespace capi::binsim

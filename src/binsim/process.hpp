// Simulated process: loader + mapped code memory + XRay runtime.
//
// Loading mirrors the dynamic linker: the executable is mapped at its link
// base, every DSO is relocated to a fresh base address (which is why DSO
// trampolines must be position independent), and each instrumented DSO
// registers itself with the XRay runtime through the xray-dso library.
// dlopen/dlclose of individual DSOs is supported to exercise the
// registration/deregistration API.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "binsim/compiler.hpp"
#include "xraysim/xray_dso.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::binsim {

struct ProcessOptions {
    bool registerDsos = true;          ///< xray-dso auto-registration on load.
    std::uint64_t dsoGapBytes = 1 << 16;  ///< Guard gap between mappings.
};

/// One line of the simulated /proc/self/maps.
struct MapEntry {
    std::string object;
    std::uint64_t loadBase = 0;
    std::uint64_t sizeBytes = 0;
    bool isMainExecutable = false;
};

/// Per-model-function execution facts, precomputed for the hot call path.
struct ExecInfo {
    bool hasCode = false;     ///< Emitted into some object.
    bool inlined = false;     ///< Inlined away; calls execute inline, no events.
    bool hasSleds = false;    ///< Entry/exit sleds exist and object is live.
    std::uint64_t entryAddress = 0;  ///< Runtime address of the entry sled.
    std::uint64_t exitAddress = 0;   ///< Runtime address of the exit sled.
    xray::PackedId packedId = 0;
};

class Process {
public:
    explicit Process(CompiledProgram program, ProcessOptions options = {});

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    const CompiledProgram& program() const { return program_; }
    xray::CodeMemory& memory() { return *memory_; }
    xray::XRayRuntime& xray() { return *xray_; }

    std::vector<MapEntry> memoryMap() const;

    /// Object image by DSO index; -1 = executable.
    const ObjectImage& objectImage(int dsoIndex) const;

    /// XRay object id of a loaded object; nullopt when not registered.
    std::optional<xray::ObjectId> xrayObjectId(int dsoIndex) const;

    /// dlclose simulation: deregisters (unpatching its sleds) and unmaps.
    /// A fault in the unpatch throws the rolled-back xray::PatchError and
    /// leaves the DSO loaded, bit-identical to before the call.
    bool dlcloseDso(std::size_t dsoIndex);
    /// dlopen simulation: re-registers a previously closed DSO at the same
    /// base address (the mapping is kept reserved). A fault while seeding
    /// its sleds throws the rolled-back xray::PatchError and leaves it closed.
    bool dlopenDso(std::size_t dsoIndex);

    const std::vector<ExecInfo>& execInfo() const { return execInfo_; }

    /// Packed id for a model function, when it has live sleds.
    std::optional<xray::PackedId> packedIdOf(std::uint32_t modelIndex) const;
    /// Reverse lookup: packed id -> model function index.
    std::optional<std::uint32_t> modelIndexOf(xray::PackedId id) const;

private:
    void registerObjects();
    void rebuildExecInfo();
    xray::ObjectRegistration makeRegistration(const ObjectImage& image) const;

    CompiledProgram program_;
    ProcessOptions options_;
    std::unique_ptr<xray::CodeMemory> memory_;
    std::unique_ptr<xray::XRayRuntime> xray_;
    std::vector<std::optional<xray::ObjectId>> dsoObjectIds_;
    std::vector<bool> dsoLoaded_;
    std::vector<ExecInfo> execInfo_;
    /// objectId -> (localId -> model function index).
    std::vector<std::vector<std::uint32_t>> localToModel_;
};

}  // namespace capi::binsim

#include "binsim/process.hpp"

#include "support/error.hpp"

namespace capi::binsim {

Process::Process(CompiledProgram program, ProcessOptions options)
    : program_(std::move(program)), options_(options) {
    // Layout: executable at its link base, DSOs relocated behind it.
    std::uint64_t cursor =
        program_.executable.linkBase + program_.executable.sizeBytes;
    program_.executable.loadBase = program_.executable.linkBase;
    for (ObjectImage& dso : program_.dsos) {
        cursor += options_.dsoGapBytes;
        dso.loadBase = cursor;
        cursor += dso.sizeBytes;
    }

    memory_ = std::make_unique<xray::CodeMemory>(cursor);
    xray_ = std::make_unique<xray::XRayRuntime>(*memory_);
    dsoObjectIds_.assign(program_.dsos.size(), std::nullopt);
    dsoLoaded_.assign(program_.dsos.size(), true);

    registerObjects();
    rebuildExecInfo();
}

xray::ObjectRegistration Process::makeRegistration(const ObjectImage& image) const {
    xray::ObjectRegistration reg;
    reg.name = image.name;
    reg.linkBase = image.linkBase;
    reg.loadBase = image.loadBase;
    reg.trampolinesPositionIndependent = image.picTrampolines;
    reg.sledTable = image.sledTable;
    return reg;
}

void Process::registerObjects() {
    localToModel_.assign(xray::kMaxObjectId + 1, {});

    xray_->registerMainExecutable(makeRegistration(program_.executable));
    {
        std::vector<std::uint32_t>& table = localToModel_[0];
        table.resize(program_.executable.sledTable.functionCount());
        for (const CompiledFunction& fn : program_.executable.functions) {
            if (fn.hasSleds) {
                table[fn.localId] = fn.modelIndex;
            }
        }
    }

    if (!options_.registerDsos) {
        return;
    }
    for (std::size_t d = 0; d < program_.dsos.size(); ++d) {
        const ObjectImage& dso = program_.dsos[d];
        if (!dso.xrayInstrumented || dso.sledTable.empty()) {
            continue;
        }
        std::optional<xray::DsoHandle> handle =
            xray::dsoRegister(*xray_, makeRegistration(dso));
        if (!handle.has_value()) {
            throw support::Error("loader: XRay DSO registry exhausted for '" +
                                 dso.name + "'");
        }
        dsoObjectIds_[d] = handle->objectId;
        std::vector<std::uint32_t>& table = localToModel_[handle->objectId];
        table.resize(dso.sledTable.functionCount());
        for (const CompiledFunction& fn : dso.functions) {
            if (fn.hasSleds) {
                table[fn.localId] = fn.modelIndex;
            }
        }
    }
}

void Process::rebuildExecInfo() {
    execInfo_.assign(program_.model.functions.size(), ExecInfo{});
    for (std::uint32_t i = 0; i < program_.model.functions.size(); ++i) {
        ExecInfo& info = execInfo_[i];
        info.inlined = program_.inlinedAway[i];

        const ObjectImage* obj = program_.objectOf(i);
        const CompiledFunction* fn = program_.compiledOf(i);
        if (obj == nullptr || fn == nullptr) {
            continue;
        }
        info.hasCode = true;
        if (!fn->hasSleds || info.inlined) {
            // Inlined functions never execute their out-of-line copy, so
            // their sleds (if any) are unreachable from the engine.
            info.hasSleds = fn->hasSleds && !info.inlined;
        }
        if (!fn->hasSleds) {
            continue;
        }

        // Resolve the object id; DSOs may be unloaded (dlclose).
        std::optional<xray::ObjectId> objectId;
        if (obj->isMainExecutable) {
            objectId = xray::kMainExecutableObjectId;
        } else if (const std::size_t d = program_.placements[i].object - 1;
                   dsoLoaded_[d]) {
            objectId = dsoObjectIds_[d];
        }
        if (!objectId.has_value() || info.inlined) {
            continue;
        }
        info.hasSleds = true;
        std::uint64_t delta = obj->loadBase - obj->linkBase;
        info.entryAddress = fn->entryAddress + delta;
        info.exitAddress = fn->exitAddress + delta;
        info.packedId = xray::packId(*objectId, fn->localId);
    }
}

std::vector<MapEntry> Process::memoryMap() const {
    std::vector<MapEntry> map;
    map.push_back({program_.executable.name, program_.executable.loadBase,
                   program_.executable.sizeBytes, true});
    for (std::size_t d = 0; d < program_.dsos.size(); ++d) {
        if (dsoLoaded_[d]) {
            map.push_back({program_.dsos[d].name, program_.dsos[d].loadBase,
                           program_.dsos[d].sizeBytes, false});
        }
    }
    return map;
}

const ObjectImage& Process::objectImage(int dsoIndex) const {
    if (dsoIndex < 0) {
        return program_.executable;
    }
    if (static_cast<std::size_t>(dsoIndex) >= program_.dsos.size()) {
        throw support::Error("objectImage: bad DSO index");
    }
    return program_.dsos[static_cast<std::size_t>(dsoIndex)];
}

std::optional<xray::ObjectId> Process::xrayObjectId(int dsoIndex) const {
    if (dsoIndex < 0) {
        return xray::kMainExecutableObjectId;
    }
    if (static_cast<std::size_t>(dsoIndex) >= dsoObjectIds_.size()) {
        return std::nullopt;
    }
    return dsoObjectIds_[static_cast<std::size_t>(dsoIndex)];
}

bool Process::dlcloseDso(std::size_t dsoIndex) {
    if (dsoIndex >= program_.dsos.size() || !dsoLoaded_[dsoIndex]) {
        return false;
    }
    if (dsoObjectIds_[dsoIndex].has_value()) {
        xray::dsoUnregister(*xray_, xray::DsoHandle{*dsoObjectIds_[dsoIndex]});
        localToModel_[*dsoObjectIds_[dsoIndex]].clear();
        dsoObjectIds_[dsoIndex] = std::nullopt;
    }
    dsoLoaded_[dsoIndex] = false;
    rebuildExecInfo();
    return true;
}

bool Process::dlopenDso(std::size_t dsoIndex) {
    if (dsoIndex >= program_.dsos.size() || dsoLoaded_[dsoIndex]) {
        return false;
    }
    const ObjectImage& dso = program_.dsos[dsoIndex];
    // Registration throws the rolled-back PatchError on a fault; the DSO is
    // marked loaded only after it went through.
    if (options_.registerDsos && dso.xrayInstrumented && !dso.sledTable.empty()) {
        std::optional<xray::DsoHandle> handle =
            xray::dsoRegister(*xray_, makeRegistration(dso));
        if (handle.has_value()) {
            dsoObjectIds_[dsoIndex] = handle->objectId;
            std::vector<std::uint32_t>& table = localToModel_[handle->objectId];
            table.assign(dso.sledTable.functionCount(), 0);
            for (const CompiledFunction& fn : dso.functions) {
                if (fn.hasSleds) {
                    table[fn.localId] = fn.modelIndex;
                }
            }
        }
    }
    dsoLoaded_[dsoIndex] = true;
    rebuildExecInfo();
    return true;
}

std::optional<xray::PackedId> Process::packedIdOf(std::uint32_t modelIndex) const {
    if (modelIndex >= execInfo_.size() || !execInfo_[modelIndex].hasSleds) {
        return std::nullopt;
    }
    return execInfo_[modelIndex].packedId;
}

std::optional<std::uint32_t> Process::modelIndexOf(xray::PackedId id) const {
    xray::ObjectId objectId = xray::objectIdOf(id);
    xray::FunctionId localId = xray::functionIdOf(id);
    if (objectId >= localToModel_.size() ||
        localId >= localToModel_[objectId].size()) {
        return std::nullopt;
    }
    return localToModel_[objectId][localId];
}

}  // namespace capi::binsim

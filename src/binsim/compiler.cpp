#include "binsim/compiler.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "support/error.hpp"

namespace capi::binsim {

namespace {

/// Executables traditionally link at 0x400000; DSOs link at 0 and are
/// relocated by the loader.
constexpr std::uint64_t kExecutableLinkBase = 0x400000;

std::uint64_t roundUp(std::uint64_t value, std::uint64_t alignment) {
    return (value + alignment - 1) / alignment * alignment;
}

/// Lays out all functions assigned to one object and fills its image.
ObjectImage buildObject(const AppModel& model, const CompileOptions& options,
                        const std::vector<std::uint32_t>& members,
                        const std::vector<bool>& inlinedAway,
                        const std::vector<bool>& symbolRetained, std::string name,
                        bool isMainExecutable, std::uint32_t objectIndex,
                        std::vector<CompiledProgram::Placement>& placements) {
    ObjectImage image;
    image.name = std::move(name);
    image.isMainExecutable = isMainExecutable;
    image.linkBase = isMainExecutable ? kExecutableLinkBase : 0;
    image.xrayInstrumented = options.xrayInstrument;
    image.picTrampolines = !isMainExecutable;  // xray-dso links -fPIC trampolines.

    std::uint64_t cursor = image.linkBase;
    xray::FunctionId nextLocalId = 0;

    for (std::uint32_t modelIndex : members) {
        const AppFunction& fn = model.functions[modelIndex];
        bool emitted = !inlinedAway[modelIndex] ||
                       (inlinedAway[modelIndex] && symbolRetained[modelIndex]);
        if (!emitted) {
            continue;
        }

        // A function that was inlined everywhere but keeps an out-of-line
        // copy still gets sleds (the pass runs on whatever code is emitted);
        // it simply never executes, which is the Sec. V-E approximation gap.
        bool sleds = options.xrayInstrument &&
                     xray::shouldPrepareFunction(fn.metrics.numInstructions,
                                                 fn.metrics.loopDepth > 0,
                                                 /*alwaysInstrument=*/false,
                                                 options.xrayThreshold);

        CompiledFunction compiled;
        compiled.modelIndex = modelIndex;
        compiled.hasSleds = sleds;

        std::uint64_t start = cursor;
        if (sleds) {
            compiled.localId = nextLocalId++;
            compiled.entryAddress = cursor;
            cursor += xray::kSledBytes;
        }
        std::uint64_t bodyBytes = roundUp(
            std::max<std::uint64_t>(fn.metrics.numInstructions, 1) * 4,
            xray::kSledBytes);
        cursor += bodyBytes;
        if (sleds) {
            compiled.exitAddress = cursor;
            cursor += xray::kSledBytes;
            image.sledTable.sleds.push_back(
                {compiled.entryAddress, xray::SledKind::FunctionEnter,
                 compiled.localId});
            image.sledTable.sleds.push_back(
                {compiled.exitAddress, xray::SledKind::FunctionExit,
                 compiled.localId});
        }

        Symbol symbol;
        symbol.name = fn.name;
        symbol.address = start;
        symbol.size = cursor - start;
        symbol.hidden = fn.flags.hiddenVisibility;
        image.symbols.push_back(std::move(symbol));

        placements[modelIndex] = {objectIndex,
                                  static_cast<std::uint32_t>(image.functions.size())};
        image.functions.push_back(compiled);
    }

    image.sizeBytes = roundUp(cursor - image.linkBase, 4096);
    if (image.sizeBytes == 0) {
        image.sizeBytes = 4096;
    }
    std::sort(image.symbols.begin(), image.symbols.end(),
              [](const Symbol& a, const Symbol& b) { return a.address < b.address; });
    return image;
}

}  // namespace

const ObjectImage* CompiledProgram::objectOf(std::uint32_t modelIndex) const {
    const std::uint32_t object = placements[modelIndex].object;
    if (object == Placement::kNoObject) {
        return nullptr;
    }
    return object == 0 ? &executable : &dsos[object - 1];
}

const CompiledFunction* CompiledProgram::compiledOf(std::uint32_t modelIndex) const {
    const ObjectImage* obj = objectOf(modelIndex);
    return obj == nullptr ? nullptr : &obj->functions[placements[modelIndex].local];
}

CompiledProgram compile(const AppModel& model, const CompileOptions& options) {
    CompiledProgram program;
    program.model = model;
    program.options = options;

    const std::size_t n = model.functions.size();
    program.inlinedAway.assign(n, false);
    program.placements.assign(n, {});
    std::vector<bool> symbolRetained(n, false);

    // Inliner pass: inline-marked functions under the size limit vanish, and
    // so do tiny static functions the optimizer inlines on its own. The
    // entry point, virtual functions and address-taken functions always keep
    // an out-of-line definition.
    std::uint32_t inlinedCount = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const AppFunction& fn = model.functions[i];
        if (!fn.flags.hasBody) {
            continue;  // Declarations (e.g. the real MPI library) emit nothing.
        }
        if (i == model.entry || fn.flags.isVirtual || fn.flags.addressTaken) {
            continue;
        }
        bool keywordInline =
            fn.flags.inlineSpecified &&
            fn.metrics.numInstructions <= options.inlineInstructionLimit;
        bool autoInline =
            fn.metrics.numInstructions <= options.autoInlineInstructionLimit;
        if (keywordInline || autoInline) {
            program.inlinedAway[i] = true;
            ++inlinedCount;
            if (options.retainedInlineSymbolPeriod != 0 &&
                inlinedCount % options.retainedInlineSymbolPeriod == 0) {
                symbolRetained[i] = true;
            }
        }
    }

    // Partition by object.
    std::vector<std::uint32_t> exeMembers;
    std::vector<std::vector<std::uint32_t>> dsoMembers(model.dsos.size());
    for (std::uint32_t i = 0; i < n; ++i) {
        const AppFunction& fn = model.functions[i];
        if (!fn.flags.hasBody) {
            continue;
        }
        if (fn.dso < 0) {
            exeMembers.push_back(i);
        } else if (static_cast<std::size_t>(fn.dso) < model.dsos.size()) {
            dsoMembers[static_cast<std::size_t>(fn.dso)].push_back(i);
        } else {
            throw support::Error("compile: function '" + fn.name +
                                 "' references unknown DSO index " +
                                 std::to_string(fn.dso));
        }
    }

    program.executable =
        buildObject(model, options, exeMembers, program.inlinedAway, symbolRetained,
                    model.name.empty() ? "a.out" : model.name, true, 0,
                    program.placements);
    for (std::size_t d = 0; d < model.dsos.size(); ++d) {
        program.dsos.push_back(buildObject(
            model, options, dsoMembers[d], program.inlinedAway, symbolRetained,
            model.dsos[d].name, false, static_cast<std::uint32_t>(d + 1),
            program.placements));
    }

    // Rebuild cost model: one compile job per translation unit.
    std::set<std::string> units;
    for (const AppFunction& fn : model.functions) {
        if (fn.flags.hasBody) {
            units.insert(fn.unit);
        }
    }
    program.fullRebuildSeconds =
        static_cast<double>(units.size()) * options.secondsPerTranslationUnit;

    return program;
}

}  // namespace capi::binsim

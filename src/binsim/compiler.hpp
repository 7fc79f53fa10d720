// Simulated Clang toolchain: compiles an AppModel into object images.
//
// Reproduces the compile-time half of the XRay workflow (paper Sec. V-A):
//  * the inliner runs first — `inline`-marked functions under a size limit
//    disappear from the object (optionally leaving a symbol behind, since
//    symbols "may be retained after inlining");
//  * the XRay machine pass then prepares the *remaining* functions: anything
//    passing the instruction-count threshold (or containing a loop) gets an
//    entry and exit sled and a dense per-object function ID;
//  * symbols get link-time addresses; hidden-visibility symbols stay in the
//    object but are invisible to nm and the dynamic loader.
//
// The compiler also exposes the full-rebuild cost model used for the
// turnaround comparison (Sec. VII-A): OpenFOAM-scale codes take ~50 minutes
// to rebuild, which is what runtime-adaptable instrumentation eliminates.
#pragma once

#include <vector>

#include "binsim/app_model.hpp"
#include "binsim/object_image.hpp"
#include "xraysim/instruction_threshold.hpp"

namespace capi::binsim {

struct CompileOptions {
    bool xrayInstrument = true;
    xray::ThresholdPolicy xrayThreshold{/*instructionThreshold=*/1,
                                        /*ignoreLoops=*/false};
    std::uint32_t inlineInstructionLimit = 40;  ///< `inline`-keyword size cutoff.
    /// Functions at or below this size are inlined even without the keyword
    /// (the -O2 behaviour that makes source-level inline flags unreliable,
    /// which is exactly why CaPI needs inlining compensation).
    std::uint32_t autoInlineInstructionLimit = 12;
    /// Every Nth inlined function keeps an (out-of-line) symbol, modelling
    /// the approximation gap discussed in Sec. V-E. 0 disables retention.
    std::uint32_t retainedInlineSymbolPeriod = 16;
    double secondsPerTranslationUnit = 0.35;    ///< Rebuild cost model.
};

struct CompiledProgram {
    /// Where a model function's code lives: `object` 0 is the executable,
    /// 1 + d is dsos[d], kNoObject means no code; `local` indexes that
    /// object's `functions`.
    struct Placement {
        static constexpr std::uint32_t kNoObject = UINT32_MAX;
        std::uint32_t object = kNoObject;
        std::uint32_t local = 0;
    };

    AppModel model;
    CompileOptions options;
    ObjectImage executable;
    std::vector<ObjectImage> dsos;
    /// True when the function was inlined into its callers (no call executed).
    std::vector<bool> inlinedAway;
    /// Indexed by model function index.
    std::vector<Placement> placements;
    double fullRebuildSeconds = 0.0;

    /// Object image holding a model function's code; nullptr when inlined
    /// away without a retained out-of-line copy.
    const ObjectImage* objectOf(std::uint32_t modelIndex) const;
    const CompiledFunction* compiledOf(std::uint32_t modelIndex) const;
};

/// Runs the simulated toolchain over the model.
CompiledProgram compile(const AppModel& model, const CompileOptions& options = {});

}  // namespace capi::binsim

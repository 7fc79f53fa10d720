// DynCaPI: the runtime-adaptable instrumentation runtime (paper Sec. IV, V-C).
//
// DynCaPI sits between XRay and the measurement library. At program start it
//  1. determines the mapping between XRay function IDs and function names for
//     every registered object — nm symbol dumps are translated through the
//     loader's memory map and cross-checked against __xray_function_address;
//     hidden symbols cannot be resolved this way and are counted (Sec. VI-B);
//  2. patches exactly the sleds selected by the IC passed via the
//     environment (here: an InstrumentationConfig object or file);
//  3. installs an event handler forwarding entry/exit events to the chosen
//     backend: the generic __cyg_profile interface, Score-P, or TALP.
//
// Because patching is cheap, the IC can be swapped at any quiescent point —
// no recompilation, the headline capability of the paper. The static-ID
// extension (IC carries packed IDs) bypasses name resolution entirely and
// reaches hidden symbols, implementing the future-work idea from Sec. VI-B.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "binsim/process.hpp"
#include "select/ic.hpp"
#include "support/name_index.hpp"
#include "xraysim/xray_runtime.hpp"

namespace capi::scorep {
class CygProfileAdapter;
class Measurement;
}
namespace capi::talp {
class TalpRuntime;
}

namespace capi::dyncapi {

struct InitStats {
    double totalSeconds = 0.0;
    double symbolResolutionSeconds = 0.0;
    double patchSeconds = 0.0;
    std::size_t objectsScanned = 0;
    std::size_t sleddedFunctions = 0;        ///< Functions with sleds, all objects.
    std::size_t unresolvableFunctions = 0;   ///< Sledded but name unknown (hidden).
    std::size_t requestedFunctions = 0;      ///< IC entries.
    std::size_t patchedFunctions = 0;        ///< Patched when the apply ends.
    std::size_t requestedUnavailable = 0;    ///< In IC but no patchable sled
                                             ///< (inlined away or filtered).
    std::uint64_t pagesTouched = 0;          ///< Code pages made writable.
};

/// Result of an incremental IC/policy swap (applyIcDelta/applyPolicyDelta).
struct DeltaStats {
    double patchSeconds = 0.0;
    std::size_t requestedFunctions = 0;   ///< IC entries.
    std::size_t requestedUnavailable = 0; ///< No live, patchable sled.
    std::size_t functionsPatched = 0;     ///< Newly instrumented.
    std::size_t functionsUnpatched = 0;   ///< Dropped from the IC.
    std::size_t functionsUnchanged = 0;   ///< Already in the requested state.
    std::uint64_t pagesTouched = 0;       ///< Code pages made writable.
    std::size_t functionsPromoted = 0;    ///< Sampled -> Full, sleds untouched.
    std::size_t functionsDemoted = 0;     ///< Full -> Sampled, sleds untouched.
};

class DynCapi {
public:
    /// Builds the fid<->name mapping for every object registered with the
    /// process's XRay runtime (this is the symbol-resolution phase of Tinit).
    explicit DynCapi(binsim::Process& process);

    ~DynCapi();
    DynCapi(const DynCapi&) = delete;
    DynCapi& operator=(const DynCapi&) = delete;

    // --- patching ---------------------------------------------------------
    /// THE configuration entry point, at start and at every later quiescent
    /// point (the runtime-adaptable workflow): diffs the requested
    /// (function, tier) set against the runtime's *actual* sled + tier state
    /// and flips only the difference in one XRayRuntime::patchDeltaTiered
    /// transaction, then syncs the sampling gates of the attached
    /// measurement backend. Tier-only transitions (Full <-> Sampled) update
    /// the runtime tag and the gate without touching any code page. Sound
    /// across dlopen/dlclose because the current set is read from the
    /// runtime's patched set, which follows the sleds, not from a cached
    /// previous policy. Uses staticIds entries when present, names
    /// otherwise. Entries that resolve to the same packed id (a static ID
    /// aliasing a resolved name) collapse to one: the last entry in policy
    /// order sets its tier.
    ///
    /// Failure contract: the transaction is all-or-nothing. If it fails,
    /// the rolled-back xray::PatchError propagates out of this call *before*
    /// the sampling gates are updated — a failed apply commits nothing, and
    /// the gates still follow the live (last successfully applied) policy.
    /// A committed apply writes only the gates whose pid changed its Sampled
    /// state or spec, so an apply that changes nothing writes none.
    /// The adaptive controller relies on exactly this to retry or revert
    /// (see adapt::Controller).
    DeltaStats applyPolicyDelta(const select::InstrumentationPolicy& policy);

    /// applyPolicyDelta reported as start-up figures: the resolution stats
    /// plus the transaction's outcome, patched = newly patched + unchanged
    /// + retiered functions.
    InitStats applyPolicy(const select::InstrumentationPolicy& policy);

    /// Binary-set overload of applyPolicyDelta: the same diff against the
    /// live sleds, every entry at the Full tier. Copies no name list: it
    /// costs the IC's size plus the patched set, not the sledded functions.
    DeltaStats applyIcDelta(const select::InstrumentationConfig& ic);

    /// applyIcDelta reported as start-up figures, like applyPolicy.
    InitStats applyIc(const select::InstrumentationConfig& ic);

    /// Patches every sled (the `xray full` configuration): the apply
    /// transaction with every sledded function at the Full tier, so it also
    /// promotes Sampled functions and clears their gates.
    InitStats patchAll();

    // --- name resolution ----------------------------------------------------
    /// Packed id of a visible function; a name several objects define
    /// resolves to the first object's (the executable, then the DSOs in
    /// registration order).
    std::optional<xray::PackedId> resolveName(std::string_view name) const;
    /// Name for a packed id; nullopt for hidden symbols. The view lives as
    /// long as this DynCapi.
    std::optional<std::string_view> nameOf(xray::PackedId id) const;
    /// Runtime entry-sled address for a packed id (0 if unknown).
    std::uint64_t addressOf(xray::PackedId id) const;

    std::size_t unresolvableFunctionCount() const { return unresolvable_; }
    std::size_t sleddedFunctionCount() const { return sledded_; }
    double symbolResolutionSeconds() const { return resolutionSeconds_; }

    // --- measurement backends ----------------------------------------------
    /// GCC -finstrument-functions-compatible interface, which the Score-P
    /// backend uses too (pair it with a resolver built via symbol injection
    /// to cover DSOs). Leaves the adapter's measurement holding exactly the
    /// committed policy's sampling gates: any other armed gate (one an older
    /// policy left on a re-attached measurement) is cleared.
    void attachCygHandler(scorep::CygProfileAdapter& adapter);
    /// TALP backend: entry/exit drive monitoring-region start/stop.
    void attachTalpHandler(talp::TalpRuntime& talp);
    void detachHandler();

    /// TALP-backend failure counters (regions that could not register
    /// because MPI was not initialized yet; Sec. VI-B).
    std::uint64_t talpFailedRegistrations() const;

    binsim::Process& process() { return *process_; }

private:
    struct TalpBackend;
    struct CygBackend;

    using StaticIds = select::StaticIdMap;

    void resolveAllObjects();
    /// The resolution figures plus an apply transaction's outcome.
    InitStats startStats(const DeltaStats& delta) const;
    /// The static ID when the IC/policy carries one, else name resolution.
    std::optional<xray::PackedId> resolveEntry(const StaticIds& staticIds,
                                               std::string_view name) const;

    /// One packed id of an apply's target: its requested tier and, when
    /// Sampled, the gate spec of its policy entry (valid for the apply).
    struct Target {
        xray::XRayRuntime::TieredFlip flip;
        const select::SamplingSpec* sampling = nullptr;
    };
    /// A Sampled pid's gate spec; gates are armed under nameOf(pid), the
    /// region the cyg adapter files the function's events under.
    using Gate = std::pair<xray::PackedId, select::SamplingSpec>;

    /// Resolve, then applyTarget; `regions` null = all Full.
    DeltaStats applyDelta(const std::vector<std::string>& functions,
                          const std::vector<select::RegionPolicy>* regions,
                          const StaticIds& staticIds);
    /// The entries resolved to packed ids, ascending and one per pid: a pid
    /// named twice keeps its last entry. Counts the requested and the
    /// unresolvable entries into `stats`.
    std::vector<Target> resolveTarget(const std::vector<std::string>& functions,
                                      const std::vector<select::RegionPolicy>* regions,
                                      const StaticIds& staticIds,
                                      DeltaStats& stats) const;
    /// The one apply path: diffs the target against the live sled and tier
    /// state, runs the transaction, and only once it committed moves the
    /// gates to the target's Sampled entries. Leaves patchSeconds to the
    /// caller, which times the whole apply.
    DeltaStats applyTarget(const std::vector<Target>& target, DeltaStats stats);
    /// Writes, on the attached measurement, the gates that differ between
    /// two ascending gate lists (no-op without a cyg/Score-P backend; TALP
    /// regions carry no gate, their Sampled tier measures like Full).
    void syncGates(std::span<const Gate> from, std::span<const Gate> to);

    binsim::Process* process_;
    /// addressByObject_[objectId][localFid] = runtime entry address (0 = none).
    std::vector<std::vector<std::uint64_t>> addressByObject_;
    /// Every resolved name, once, valued with the packed id of the first
    /// object defining it: name -> fid lookups and the bytes nameOf views.
    support::NameIndex names_;
    /// entryByObject_[objectId][localFid] = the function's entry in names_;
    /// NameIndex::kNoEntry = no sled or unresolvable (hidden).
    std::vector<std::vector<support::NameIndex::Entry>> entryByObject_;
    std::size_t unresolvable_ = 0;
    std::size_t sledded_ = 0;
    std::size_t objectsScanned_ = 0;
    double resolutionSeconds_ = 0.0;

    std::unique_ptr<CygBackend> cygBackend_;
    std::unique_ptr<TalpBackend> talpBackend_;

    /// The gates of the last committed target's Sampled pids, ascending:
    /// what the attached measurement's gates hold, and all a freshly
    /// attached one needs armed. Patch state itself is always read back
    /// from the runtime, never cached here.
    std::vector<Gate> gates_;
};

}  // namespace capi::dyncapi

// The XRay runtime (xray-rt) extended with DSO support (paper Sec. V-B).
//
// Responsibilities, mirroring compiler-rt's XRay runtime:
//  * track every patchable object: the main executable (object 0) plus up to
//    255 dynamically registered shared objects, each with its sled table and
//    locally linked trampolines;
//  * patch/unpatch sleds — flip the protection of the page range containing
//    the sleds, rewrite NOP sleds into jumps carrying the *packed* function
//    ID, and seal the pages again;
//  * dispatch sled hits through the object's trampoline to the installed
//    event handler.
//
// DSO trampolines must be position independent: they are linked into a
// relocatable object, so absolute addressing of the handler pointer faults
// once the object is loaded away from its link base. The simulation enforces
// this exactly (see invokeSled), reproducing the @GOTPCREL fix described in
// the paper.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/bitset.hpp"
#include "xraysim/code_memory.hpp"
#include "xraysim/packed_id.hpp"
#include "xraysim/sled.hpp"

namespace capi::xray {

/// Event handler: the measurement tool's hook. Kept as a plain function
/// pointer plus context, like __xray_set_handler.
using Handler = void (*)(void* context, PackedId function, XRayEntryType type);

/// Everything the xray-dso runtime hands over when an object is registered.
struct ObjectRegistration {
    std::string name;
    std::uint64_t linkBase = 0;  ///< Address the sled table was linked for.
    std::uint64_t loadBase = 0;  ///< Address the object got mapped at.
    bool trampolinesPositionIndependent = false;
    SledTable sledTable;         ///< Link-time sled addresses.
};

struct PatchStats {
    std::size_t sledsPatched = 0;
    std::size_t sledsUnpatched = 0;
    std::size_t pagesMadeWritable = 0;
};

/// A delta patch transaction failed and was rolled back: every sled and
/// tier tag the transaction had already flipped was restored, so the
/// process is bit-identical to its pre-transaction state. Carries what the
/// rollback undid, for diagnostics and for the controller's retry policy.
class PatchError : public support::Error {
public:
    PatchError(const std::string& what, std::size_t sledsRolledBack,
               std::size_t tiersRolledBack)
        : Error(what),
          sledsRolledBack_(sledsRolledBack),
          tiersRolledBack_(tiersRolledBack) {}

    /// Sled cells restored to their pre-transaction bytes.
    std::size_t sledsRolledBack() const noexcept { return sledsRolledBack_; }
    /// Tier tags restored (retier pass included).
    std::size_t tiersRolledBack() const noexcept { return tiersRolledBack_; }

private:
    std::size_t sledsRolledBack_;
    std::size_t tiersRolledBack_;
};

class XRayRuntime {
public:
    /// The runtime patches the process's code memory; it does not own it.
    explicit XRayRuntime(CodeMemory& memory);
    ~XRayRuntime();

    XRayRuntime(const XRayRuntime&) = delete;
    XRayRuntime& operator=(const XRayRuntime&) = delete;

    // --- object registry ----------------------------------------------------

    /// Registers the main executable as object 0. Must be called first.
    /// Loading seeds every sled with its NOP bytes in one unpatch
    /// transaction; a fault there throws the rolled-back PatchError and
    /// leaves the object unregistered.
    ObjectId registerMainExecutable(ObjectRegistration registration);

    /// Registers a DSO; returns std::nullopt when all 255 DSO slots are in
    /// use. Throws support::Error if the object's function-ID space exceeds
    /// 2^24 or the main executable is not registered yet, and PatchError,
    /// with the slot still free, if seeding the sleds faults.
    std::optional<ObjectId> registerDso(ObjectRegistration registration);

    /// Unpatches and removes a DSO; its object ID becomes reusable.
    /// Returns false for unknown/not-in-use ids or object 0. The unpatch is
    /// one patchDeltaTiered transaction run under the registry lock, and
    /// the record is freed only once it committed: a fault throws the
    /// rolled-back PatchError with the DSO still registered and its sleds,
    /// tier tags and pages bit-identical to before the call.
    bool unregisterDso(ObjectId id);

    bool objectRegistered(ObjectId id) const;
    std::size_t registeredObjectCount() const;
    std::uint32_t functionCount(ObjectId id) const;
    const std::string& objectName(ObjectId id) const;

    // --- patching -----------------------------------------------------------

    /// Whole-object passes (the `xray full` configuration): one
    /// patchDeltaTiered transaction whose flip list holds every sledded
    /// function of the object(s), patched at kFullTier or unpatched. They
    /// share its page-run coalescing and its all-or-nothing PatchError.
    PatchStats patchAll();
    PatchStats unpatchAll();
    PatchStats patchObject(ObjectId id);
    PatchStats unpatchObject(ObjectId id);
    /// One-entry patchDeltaTiered transactions (patched at kFullTier);
    /// false when the function has no live sleds. A fault raises the
    /// rolled-back PatchError.
    bool patchFunction(PackedId function);
    bool unpatchFunction(PackedId function);

    /// Per-list skip counts on top of the page/function counts.
    struct DeltaPatchStats : PatchStats {
        std::size_t unavailablePatch = 0;    ///< Skipped toPatch entries.
        std::size_t unavailableUnpatch = 0;  ///< Skipped toUnpatch entries.
        std::size_t functionsRetiered = 0;   ///< Tier-tag-only transitions.
        std::size_t unavailableRetier = 0;   ///< Skipped toRetier entries.
    };

    /// A patch request carrying the measurement tier of the function
    /// (kFullTier or kSampledTier). The tier is runtime bookkeeping riding
    /// along with the sled state — the sled bytes are identical for both
    /// instrumented tiers; only the measurement gate differs — so a
    /// tier-only transition (`toRetier`) updates the tag without touching
    /// any code page, which is what keeps Full<->Sampled re-planning as
    /// cheap as a no-op repatch.
    struct TieredFlip {
        PackedId function = 0;
        std::uint8_t tierTag = 0;
    };
    static constexpr std::uint8_t kFullTier = 0;
    static constexpr std::uint8_t kSampledTier = 1;

    /// Flips exactly the sleds of the listed functions in one pass: both
    /// flip lists are sorted by packed id into per-object runs, the affected
    /// sled addresses coalesced into contiguous page runs, and each run's
    /// protection toggled once. Functions whose object is gone (dlclosed) or
    /// that have no sleds are skipped and counted per list. A function
    /// listed more than once ends in the state of its last request, with
    /// toUnpatch after toPatch. The page-touch count is what the adaptive
    /// controller's delta repatching optimizes.
    ///
    /// TRANSACTIONAL: every cell and tier tag is staged with an undo record
    /// before it is written, and a failure anywhere mid-transaction (an
    /// mprotect or sled write throwing MachineFault — see the injection
    /// sites in CodeMemory) rolls back all already-applied flips, re-seals
    /// the touched page runs, and rethrows as PatchError. Sled and tier
    /// state is therefore never torn: after the call the process is
    /// bit-identical to either its pre-transaction or its post-transaction
    /// state, nothing in between.
    DeltaPatchStats patchDeltaTiered(std::span<const TieredFlip> toPatch,
                                     std::span<const PackedId> toUnpatch,
                                     std::span<const TieredFlip> toRetier);

    /// The tier tag recorded with the function's last patch; kFullTier when
    /// unpatched or unknown (tags reset on unpatch and on dlclose).
    std::uint8_t functionTierTag(PackedId function) const;

    /// patchedFunctions() plus each function's tier tag — the ground truth
    /// a tiered delta is computed against.
    std::vector<std::pair<PackedId, std::uint8_t>> patchedFunctionTiers() const;

    /// Packed ids of every function whose sleds are currently patched, over
    /// all registered objects, in ascending id order. Read from the
    /// per-object patched set, which every sled write keeps equal to the
    /// entry cells (functionPatched), so this costs O(patched) plus one word
    /// per 64 functions, not a read of every sledded function's cell.
    std::vector<PackedId> patchedFunctions() const;

    /// Runtime address of a function's entry sled (__xray_function_address).
    /// 0 when unknown.
    std::uint64_t functionAddress(PackedId function) const;

    /// True if the function's entry sled is currently patched.
    bool functionPatched(PackedId function) const;

    // --- dispatch -----------------------------------------------------------

    void setHandler(Handler handler, void* context);
    void clearHandler() { setHandler(nullptr, nullptr); }

    /// Executes the sled at `runtimeAddress`: a NOP sled falls through
    /// (returns false); a patched sled jumps through its object's trampoline
    /// into the installed handler (returns true). Faults if the trampoline
    /// is not position independent but the object was relocated.
    bool invokeSled(std::uint64_t runtimeAddress);

    std::size_t patchedSledCount() const;

private:
    struct ObjectRecord {
        bool inUse = false;
        std::string name;
        std::uint64_t linkBase = 0;
        std::uint64_t loadBase = 0;
        bool trampolinesPic = false;
        SledTable sleds;
        /// Sled indices grouped per local function id.
        std::vector<std::vector<std::uint32_t>> sledsOfFunction;
        /// Per-function tier tag (kFullTier/kSampledTier), meaningful while
        /// the function is patched; reset to kFullTier on unpatch. Rebuilt
        /// zeroed on (re-)registration, so a recycled object id never
        /// inherits a predecessor's tiers.
        std::vector<std::uint8_t> tierOfFunction;
        /// Bit per local function id: its first sled's cell is patched.
        /// Written once the function's cells are, re-read from the cells on
        /// rollback; zeroed on (re-)registration like the tier tags.
        support::DynamicBitset patched;
    };

    std::uint64_t runtimeAddress(const ObjectRecord& obj, std::uint64_t linkAddr) const {
        return linkAddr - obj.linkBase + obj.loadBase;
    }

    void validateRegistration(const ObjectRegistration& registration) const;
    /// Installs the record in slot `id` and seeds its sleds with NOPs; on a
    /// fault the slot is freed again and the PatchError propagates.
    void installRecord(ObjectId id, ObjectRegistration&& registration);
    /// patchDeltaTiered's body; the caller holds mutex_.
    DeltaPatchStats patchDeltaLocked(std::span<const TieredFlip> toPatch,
                                     std::span<const PackedId> toUnpatch,
                                     std::span<const TieredFlip> toRetier);
    /// Patches (at kFullTier) or unpatches every sledded function of
    /// `object`, or of every registered object when it is nullopt, in one
    /// patchDeltaLocked transaction; the caller holds mutex_.
    PatchStats flipObjects(std::optional<ObjectId> object, bool patch);
    /// Re-reads the function's patched bit from its first sled's cell.
    void syncPatchedBit(ObjectRecord& obj, FunctionId function);
    template <typename Fn>
    void forEachPatched(Fn&& fn) const;
    const ObjectRecord* findObject(ObjectId id) const;
    /// The function's object if it is registered and the function has
    /// sleds; nullptr otherwise (the "unavailable" test of every flip).
    const ObjectRecord* sleddedObject(PackedId function) const;

    /// patchDeltaTiered's flip list and undo journal (xray_runtime.cpp).
    struct Journal;

    CodeMemory* memory_;
    std::vector<ObjectRecord> objects_ = std::vector<ObjectRecord>(kMaxObjectId + 1);
    bool mainRegistered_ = false;

    Handler handler_ = nullptr;
    void* handlerContext_ = nullptr;

    mutable std::mutex mutex_;
    /// Guarded by mutex_, like every member above.
    std::unique_ptr<Journal> journal_;
};

}  // namespace capi::xray

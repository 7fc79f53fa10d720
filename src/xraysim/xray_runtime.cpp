#include "xraysim/xray_runtime.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace capi::xray {

void XRayRuntime::validateRegistration(const ObjectRegistration& registration) const {
    std::uint32_t functions = registration.sledTable.functionCount();
    if (functions > kMaxFunctionsPerObject) {
        throw support::Error("XRay: object '" + registration.name + "' uses " +
                             std::to_string(functions) +
                             " function IDs, exceeding the 24-bit limit");
    }
    for (const SledEntry& sled : registration.sledTable.sleds) {
        std::uint64_t addr =
            sled.address - registration.linkBase + registration.loadBase;
        if (addr >= memory_->sizeBytes()) {
            throw support::Error("XRay: sled of '" + registration.name +
                                 "' outside mapped code memory");
        }
    }
}

void XRayRuntime::installRecord(ObjectId id, ObjectRegistration&& registration) {
    ObjectRecord& record = objects_[id];
    record.inUse = true;
    record.name = std::move(registration.name);
    record.linkBase = registration.linkBase;
    record.loadBase = registration.loadBase;
    record.trampolinesPic = registration.trampolinesPositionIndependent;
    record.sleds = std::move(registration.sledTable);
    record.sledsOfFunction.resize(record.sleds.functionCount());
    for (std::uint32_t i = 0; i < record.sleds.sleds.size(); ++i) {
        record.sledsOfFunction[record.sleds.sleds[i].function].push_back(i);
    }
    record.tierOfFunction.assign(record.sleds.functionCount(), kFullTier);
    record.patched = support::DynamicBitset(record.sleds.functionCount());
    // Loading maps the object's text segment, whose sled locations contain
    // the NOP sequences emitted at compile time. Model that by unpatching
    // every sled in one transaction, so a fault mid-load rolls back like
    // any other flip.
    try {
        flipObjects(id, /*patch=*/false);
    } catch (const PatchError&) {
        record = ObjectRecord{};
        throw;
    }
}

ObjectId XRayRuntime::registerMainExecutable(ObjectRegistration registration) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (mainRegistered_) {
        throw support::Error("XRay: main executable already registered");
    }
    validateRegistration(registration);
    installRecord(kMainExecutableObjectId, std::move(registration));
    mainRegistered_ = true;
    return kMainExecutableObjectId;
}

std::optional<ObjectId> XRayRuntime::registerDso(ObjectRegistration registration) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!mainRegistered_) {
        throw support::Error("XRay: register the main executable before DSOs");
    }
    validateRegistration(registration);
    for (ObjectId id = 1; id <= kMaxObjectId; ++id) {
        if (!objects_[id].inUse) {
            installRecord(id, std::move(registration));
            return id;
        }
    }
    return std::nullopt;  // All 255 DSO slots occupied.
}

bool XRayRuntime::unregisterDso(ObjectId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id == kMainExecutableObjectId || id > kMaxObjectId || !objects_[id].inUse) {
        return false;
    }
    flipObjects(id, /*patch=*/false);  // A fault throws before the record goes.
    objects_[id] = ObjectRecord{};
    return true;
}

bool XRayRuntime::objectRegistered(ObjectId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return id <= kMaxObjectId && objects_[id].inUse;
}

std::size_t XRayRuntime::registeredObjectCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const ObjectRecord& obj : objects_) {
        if (obj.inUse) ++count;
    }
    return count;
}

std::uint32_t XRayRuntime::functionCount(ObjectId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const ObjectRecord* obj = findObject(id);
    return obj != nullptr ? obj->sleds.functionCount() : 0;
}

const std::string& XRayRuntime::objectName(ObjectId id) const {
    static const std::string kEmpty;
    std::lock_guard<std::mutex> lock(mutex_);
    const ObjectRecord* obj = findObject(id);
    return obj != nullptr ? obj->name : kEmpty;
}

const XRayRuntime::ObjectRecord* XRayRuntime::findObject(ObjectId id) const {
    if (id > kMaxObjectId || !objects_[id].inUse) {
        return nullptr;
    }
    return &objects_[id];
}

const XRayRuntime::ObjectRecord* XRayRuntime::sleddedObject(PackedId function) const {
    const ObjectRecord* obj = findObject(objectIdOf(function));
    const FunctionId fnId = functionIdOf(function);
    if (obj == nullptr || fnId >= obj->sledsOfFunction.size() ||
        obj->sledsOfFunction[fnId].empty()) {
        return nullptr;
    }
    return obj;
}

namespace {

/// The cell a sled holds patched (a jump carrying the packed id) or
/// unpatched (the NOP sequence).
CodeCell sledCell(ObjectId id, const SledEntry& sled, bool patch) {
    if (!patch) {
        return {Instr::NopSled, 0};
    }
    CodeCell cell;
    switch (sled.kind) {
        case SledKind::FunctionEnter: cell.instr = Instr::JmpEntryTrampoline; break;
        case SledKind::FunctionExit: cell.instr = Instr::JmpExitTrampoline; break;
        case SledKind::TailCallExit: cell.instr = Instr::JmpTailTrampoline; break;
    }
    // The patched sled materializes the packed ID as an immediate, like
    // the real `mov r10d, <id>` sequence.
    cell.operand = packId(id, sled.function);
    return cell;
}

}  // namespace

void XRayRuntime::syncPatchedBit(ObjectRecord& obj, FunctionId function) {
    const SledEntry& first = obj.sleds.sleds[obj.sledsOfFunction[function].front()];
    if (memory_->read(runtimeAddress(obj, first.address)).instr != Instr::NopSled) {
        obj.patched.set(function);
    } else {
        obj.patched.reset(function);
    }
}

PatchStats XRayRuntime::flipObjects(std::optional<ObjectId> object, bool patch) {
    std::vector<TieredFlip> toPatch;
    std::vector<PackedId> toUnpatch;
    const ObjectId last = object.value_or(kMaxObjectId);
    for (ObjectId id = object.value_or(0); id <= last; ++id) {
        const ObjectRecord& obj = objects_[id];
        if (!obj.inUse) continue;
        for (FunctionId fnId = 0; fnId < obj.sledsOfFunction.size(); ++fnId) {
            if (obj.sledsOfFunction[fnId].empty()) continue;
            if (patch) {
                toPatch.push_back({packId(id, fnId), kFullTier});
            } else {
                toUnpatch.push_back(packId(id, fnId));
            }
        }
    }
    return patchDeltaLocked(toPatch, toUnpatch, {});
}

PatchStats XRayRuntime::patchAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    return flipObjects(std::nullopt, /*patch=*/true);
}

PatchStats XRayRuntime::unpatchAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    return flipObjects(std::nullopt, /*patch=*/false);
}

PatchStats XRayRuntime::patchObject(ObjectId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (findObject(id) == nullptr) {
        throw support::Error("XRay: patchObject on unregistered object " +
                             std::to_string(id));
    }
    return flipObjects(id, /*patch=*/true);
}

PatchStats XRayRuntime::unpatchObject(ObjectId id) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (findObject(id) == nullptr) {
        throw support::Error("XRay: unpatchObject on unregistered object " +
                             std::to_string(id));
    }
    return flipObjects(id, /*patch=*/false);
}

bool XRayRuntime::patchFunction(PackedId function) {
    const TieredFlip flip{function, kFullTier};
    return patchDeltaTiered({&flip, 1}, {}, {}).unavailablePatch == 0;
}

bool XRayRuntime::unpatchFunction(PackedId function) {
    return patchDeltaTiered({}, {&function, 1}, {}).unavailableUnpatch == 0;
}

/// Transaction journal: every cell and tier tag is recorded before it is
/// mutated, and every page run is recorded once opened, so a mid-flight
/// MachineFault (mprotect or sled write dying — the CodeMemory injection
/// sites model both) unwinds to the exact pre-transaction state. Kept with
/// the flip list and the page-run buffers between transactions (under
/// mutex_), so a small transaction allocates nothing.
struct XRayRuntime::Journal {
    struct Flip {
        PackedId function;
        bool patch;
        std::uint8_t tierTag;
    };
    struct CellUndo {
        std::uint64_t address;
        CodeCell previous;
    };
    struct TierUndo {
        ObjectId object;
        FunctionId function;
        std::uint8_t previous;
    };
    using PageRun = std::pair<std::uint64_t, std::uint64_t>;  ///< First, last page.

    std::vector<Flip> flips;
    std::vector<PageRun> spans;
    std::vector<PageRun> runs;
    std::vector<PageRun> touchedRuns;
    std::vector<CellUndo> cellUndo;
    std::vector<TierUndo> tierUndo;

    void clear() {
        flips.clear();
        touchedRuns.clear();
        cellUndo.clear();
        tierUndo.clear();
    }
};

XRayRuntime::XRayRuntime(CodeMemory& memory)
    : memory_(&memory), journal_(std::make_unique<Journal>()) {}

XRayRuntime::~XRayRuntime() = default;

XRayRuntime::DeltaPatchStats XRayRuntime::patchDeltaTiered(
    std::span<const TieredFlip> toPatch, std::span<const PackedId> toUnpatch,
    std::span<const TieredFlip> toRetier) {
    std::lock_guard<std::mutex> lock(mutex_);
    return patchDeltaLocked(toPatch, toUnpatch, toRetier);
}

XRayRuntime::DeltaPatchStats XRayRuntime::patchDeltaLocked(
    std::span<const TieredFlip> toPatch, std::span<const PackedId> toUnpatch,
    std::span<const TieredFlip> toRetier) {
    DeltaPatchStats stats;

    // The span covers the whole transaction and is recorded even when the
    // catch block below unwinds through it — rollbacks are part of the
    // patch-phase timeline, not a gap in it.
    static const std::uint32_t kPatchSpan =
        obs::TraceRecorder::global().internName("xray.patch_delta");
    obs::ScopedSpan patchSpan(kPatchSpan, obs::SpanCategory::Patch);

    auto& [flips, spans, runs, touchedRuns, cellUndo, tierUndo] = *journal_;
    journal_->clear();

    // The requested flips, sorted by packed id so each object's flips form
    // one run; the sort is stable, so a function listed twice keeps its
    // request order (toPatch before toUnpatch). A function whose object
    // vanished since the delta was computed (dlclose raced the planner) is
    // not an error, it is simply no longer patchable.
    using Flip = Journal::Flip;
    for (const TieredFlip& flip : toPatch) {
        if (sleddedObject(flip.function) != nullptr) {
            flips.push_back({flip.function, /*patch=*/true, flip.tierTag});
        } else {
            ++stats.unavailablePatch;
        }
    }
    for (PackedId pid : toUnpatch) {
        if (sleddedObject(pid) != nullptr) {
            flips.push_back({pid, /*patch=*/false, kFullTier});
        } else {
            ++stats.unavailableUnpatch;
        }
    }
    auto byFunction = [](const Flip& a, const Flip& b) { return a.function < b.function; };
    if (!std::is_sorted(flips.begin(), flips.end(), byFunction)) {
        std::stable_sort(flips.begin(), flips.end(), byFunction);
    }

    // Tier-only transitions: tag updates under the runtime lock, zero page
    // work — a Full<->Sampled re-plan costs exactly nothing here. Journaled
    // all the same: a later page-phase failure must take the retier pass
    // down with it, or tier tags and sleds would tear apart.
    for (const TieredFlip& retier : toRetier) {
        if (sleddedObject(retier.function) == nullptr) {
            ++stats.unavailableRetier;
            continue;
        }
        ObjectId objId = objectIdOf(retier.function);
        FunctionId fnId = functionIdOf(retier.function);
        tierUndo.push_back({objId, fnId, objects_[objId].tierOfFunction[fnId]});
        objects_[objId].tierOfFunction[fnId] = retier.tierTag;
        ++stats.functionsRetiered;
    }

    const std::uint64_t writableBefore = memory_->pagesMadeWritable();
    try {
        for (auto begin = flips.begin(); begin != flips.end();) {
            const ObjectId objId = objectIdOf(begin->function);
            const auto end = std::find_if(begin, flips.end(), [&](const Flip& flip) {
                return objectIdOf(flip.function) != objId;
            });
            const std::span<const Flip> objectFlips(begin, end);
            begin = end;
            ObjectRecord& obj = objects_[objId];

            // Coalesce the affected sleds' byte spans into contiguous page
            // runs, so a dense cluster of changed functions costs one
            // protection flip while distant stragglers do not drag whole
            // untouched ranges along; a whole-object pass gets the pages
            // holding a sled, never more than its lo..hi span.
            spans.clear();
            for (const Flip& flip : objectFlips) {
                for (std::uint32_t sledIndex :
                     obj.sledsOfFunction[functionIdOf(flip.function)]) {
                    std::uint64_t addr =
                        runtimeAddress(obj, obj.sleds.sleds[sledIndex].address);
                    spans.emplace_back(addr / kPageSize,
                                       (addr + kSledBytes - 1) / kPageSize);
                }
            }
            if (!std::is_sorted(spans.begin(), spans.end())) {
                std::sort(spans.begin(), spans.end());
            }
            runs.clear();
            for (const auto& [first, last] : spans) {
                if (!runs.empty() && first <= runs.back().second + 1) {
                    runs.back().second = std::max(runs.back().second, last);
                } else {
                    runs.emplace_back(first, last);
                }
            }

            for (const auto& [first, last] : runs) {
                memory_->mprotect(first * kPageSize, (last - first + 1) * kPageSize,
                                  /*writable=*/true);
                // A failed mprotect changes nothing, so only successfully
                // opened runs need re-sealing on rollback.
                touchedRuns.emplace_back(first, last);
            }
            for (const Flip& flip : objectFlips) {
                const FunctionId fnId = functionIdOf(flip.function);
                for (std::uint32_t sledIndex : obj.sledsOfFunction[fnId]) {
                    const SledEntry& sled = obj.sleds.sleds[sledIndex];
                    std::uint64_t addr = runtimeAddress(obj, sled.address);
                    cellUndo.push_back({addr, memory_->read(addr)});
                    memory_->write(addr, sledCell(objId, sled, flip.patch));
                }
                (flip.patch ? stats.sledsPatched : stats.sledsUnpatched) +=
                    obj.sledsOfFunction[fnId].size();
                // The first sled's cell speaks for the function
                // (functionPatched); the bit follows the cells once all of
                // them went through, and rollback re-reads it from them.
                if (flip.patch) {
                    obj.patched.set(fnId);
                } else {
                    obj.patched.reset(fnId);
                }
                tierUndo.push_back({objId, fnId, obj.tierOfFunction[fnId]});
                obj.tierOfFunction[fnId] = flip.patch ? flip.tierTag : kFullTier;
            }
            for (const auto& [first, last] : runs) {
                memory_->mprotect(first * kPageSize, (last - first + 1) * kPageSize,
                                  /*writable=*/false);
            }
        }
    } catch (const support::MachineFault& fault) {
        // Roll back in reverse: reopen everything the transaction touched,
        // restore cells and tier tags newest-first, seal again. The undo
        // path replays operations that just succeeded, so fault injection is
        // suppressed for its duration — otherwise no rollback could ever be
        // guaranteed to terminate in the pre-state.
        support::fault::SuppressFaults suppress;
        for (const auto& [first, last] : touchedRuns) {
            memory_->mprotect(first * kPageSize, (last - first + 1) * kPageSize,
                              /*writable=*/true);
        }
        for (auto it = cellUndo.rbegin(); it != cellUndo.rend(); ++it) {
            memory_->write(it->address, it->previous);
        }
        for (auto it = tierUndo.rbegin(); it != tierUndo.rend(); ++it) {
            objects_[it->object].tierOfFunction[it->function] = it->previous;
        }
        // The restored cells are the truth the patched set must match again.
        for (const Flip& flip : flips) {
            syncPatchedBit(objects_[objectIdOf(flip.function)],
                           functionIdOf(flip.function));
        }
        for (const auto& [first, last] : touchedRuns) {
            memory_->mprotect(first * kPageSize, (last - first + 1) * kPageSize,
                              /*writable=*/false);
        }
        obs::MetricsRegistry::global()
            .counter("capi_xray_rollbacks_total")
            .add(1);
        obs::TraceRecorder& recorder = obs::TraceRecorder::global();
        if (recorder.enabled()) {
            static const std::uint32_t kRollback =
                recorder.internName("xray.rollback");
            recorder.recordInstant(kRollback, obs::SpanCategory::Patch,
                                   support::probeNowNs(), cellUndo.size());
        }
        throw PatchError(std::string("XRay: delta patch rolled back: ") +
                             fault.what(),
                         cellUndo.size(), tierUndo.size());
    }
    stats.pagesMadeWritable = memory_->pagesMadeWritable() - writableBefore;
    patchSpan.setArg(stats.sledsPatched + stats.sledsUnpatched);
    {
        obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
        static obs::Counter& transactions =
            registry.counter("capi_xray_patch_transactions_total");
        static obs::Counter& sledsPatched =
            registry.counter("capi_xray_sleds_patched_total");
        static obs::Counter& sledsUnpatched =
            registry.counter("capi_xray_sleds_unpatched_total");
        static obs::Counter& pagesTouched =
            registry.counter("capi_xray_pages_made_writable_total");
        transactions.add(1);
        sledsPatched.add(stats.sledsPatched);
        sledsUnpatched.add(stats.sledsUnpatched);
        pagesTouched.add(stats.pagesMadeWritable);
    }
    return stats;
}

template <typename Fn>
void XRayRuntime::forEachPatched(Fn&& fn) const {
    for (ObjectId objId = 0; objId <= kMaxObjectId; ++objId) {
        const ObjectRecord& obj = objects_[objId];
        if (obj.inUse) {
            obj.patched.forEach([&](std::size_t fnId) {
                fn(obj, objId, static_cast<FunctionId>(fnId));
            });
        }
    }
}

std::vector<PackedId> XRayRuntime::patchedFunctions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<PackedId> patched;
    forEachPatched([&](const ObjectRecord&, ObjectId objId, FunctionId fnId) {
        patched.push_back(packId(objId, fnId));
    });
    return patched;
}

std::uint8_t XRayRuntime::functionTierTag(PackedId function) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const ObjectRecord* obj = findObject(objectIdOf(function));
    FunctionId fnId = functionIdOf(function);
    if (obj == nullptr || fnId >= obj->tierOfFunction.size()) {
        return kFullTier;
    }
    return obj->tierOfFunction[fnId];
}

std::vector<std::pair<PackedId, std::uint8_t>> XRayRuntime::patchedFunctionTiers()
    const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<PackedId, std::uint8_t>> patched;
    forEachPatched([&](const ObjectRecord& obj, ObjectId objId, FunctionId fnId) {
        patched.emplace_back(packId(objId, fnId), obj.tierOfFunction[fnId]);
    });
    return patched;
}

std::uint64_t XRayRuntime::functionAddress(PackedId function) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const ObjectRecord* obj = sleddedObject(function);
    if (obj == nullptr) {
        return 0;
    }
    const FunctionId fnId = functionIdOf(function);
    // The entry sled is the function's address for all practical purposes.
    for (std::uint32_t sledIndex : obj->sledsOfFunction[fnId]) {
        const SledEntry& sled = obj->sleds.sleds[sledIndex];
        if (sled.kind == SledKind::FunctionEnter) {
            return runtimeAddress(*obj, sled.address);
        }
    }
    return runtimeAddress(*obj, obj->sleds.sleds[obj->sledsOfFunction[fnId][0]].address);
}

bool XRayRuntime::functionPatched(PackedId function) const {
    // Resolved through the sled table rather than functionAddress(): that
    // API uses 0 as its "unknown" sentinel (as real __xray_function_address
    // does), which would misreport a function legitimately linked at the
    // object's base address.
    std::lock_guard<std::mutex> lock(mutex_);
    const ObjectRecord* obj = sleddedObject(function);
    if (obj == nullptr) {
        return false;
    }
    const SledEntry& sled =
        obj->sleds.sleds[obj->sledsOfFunction[functionIdOf(function)][0]];
    return memory_->read(runtimeAddress(*obj, sled.address)).instr !=
           Instr::NopSled;
}

void XRayRuntime::setHandler(Handler handler, void* context) {
    std::lock_guard<std::mutex> lock(mutex_);
    handler_ = handler;
    handlerContext_ = context;
}

bool XRayRuntime::invokeSled(std::uint64_t runtimeAddress) {
    const CodeCell& cell = memory_->read(runtimeAddress);
    XRayEntryType type;
    switch (cell.instr) {
        case Instr::NopSled:
            return false;  // Unpatched: execution falls through the NOPs.
        case Instr::JmpEntryTrampoline: type = XRayEntryType::Entry; break;
        case Instr::JmpExitTrampoline: type = XRayEntryType::Exit; break;
        case Instr::JmpTailTrampoline: type = XRayEntryType::TailExit; break;
        case Instr::Body:
            throw support::MachineFault("executed body bytes as a sled at address " +
                                        std::to_string(runtimeAddress));
        default: return false;
    }

    PackedId pid = cell.operand;
    const ObjectRecord& obj = objects_[objectIdOf(pid)];
    // Position-independence check: a non-PIC trampoline addresses the
    // handler pointer absolutely, which only works when the object was
    // loaded at its link base. DSOs are relocated, so they fault here —
    // the exact bug the @GOTPCREL change fixed (paper Sec. V-B2).
    if (!obj.trampolinesPic && obj.loadBase != obj.linkBase) {
        throw support::MachineFault(
            "non-position-independent trampoline executed in relocated object '" +
            obj.name + "'");
    }
    Handler handler = handler_;
    if (handler != nullptr) {
        handler(handlerContext_, pid, type);
    }
    return true;
}

std::size_t XRayRuntime::patchedSledCount() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const ObjectRecord& obj : objects_) {
        if (!obj.inUse) continue;
        for (const SledEntry& sled : obj.sleds.sleds) {
            if (memory_->read(runtimeAddress(obj, sled.address)).instr !=
                Instr::NopSled) {
                ++count;
            }
        }
    }
    return count;
}

}  // namespace capi::xray

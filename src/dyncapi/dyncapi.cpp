#include "dyncapi/dyncapi.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "binsim/execution_engine.hpp"
#include "binsim/nm.hpp"
#include "scorepsim/cyg_adapter.hpp"
#include "support/timer.hpp"
#include "talpsim/talp.hpp"

namespace capi::dyncapi {

// ---------------------------------------------------------------- backends --

/// Forwards XRay events to __cyg_profile_func_enter/exit with the function's
/// address — the generic interface Score-P uses under Clang (Sec. V-C1).
struct DynCapi::CygBackend {
    DynCapi* owner = nullptr;
    scorep::CygProfileAdapter* adapter = nullptr;

    static void handle(void* context, xray::PackedId id, xray::XRayEntryType type) {
        auto* self = static_cast<CygBackend*>(context);
        std::uint64_t address = self->owner->addressOf(id);
        switch (type) {
            case xray::XRayEntryType::Entry:
                self->adapter->funcEnter(address, 0);
                break;
            case xray::XRayEntryType::Exit:
            case xray::XRayEntryType::TailExit:
                self->adapter->funcExit(address, 0);
                break;
        }
    }
};

/// Forwards XRay events to TALP monitoring regions (Sec. V-C2): a region map
/// stores the handle per function; regions are registered lazily on first
/// entry and retried while unregistered (registration fails before MPI_Init).
struct DynCapi::TalpBackend {
    DynCapi* owner = nullptr;
    talp::TalpRuntime* talp = nullptr;

    struct RegionSlot {
        talp::MonitorHandle handle = talp::MonitorHandle::invalid();
    };
    std::mutex mutex;
    std::unordered_map<xray::PackedId, RegionSlot> regions;
    std::uint64_t failedRegistrations = 0;

    static void handle(void* context, xray::PackedId id, xray::XRayEntryType type) {
        auto* self = static_cast<TalpBackend*>(context);
        binsim::RankState* rank = binsim::currentRankState();
        if (rank == nullptr) {
            return;  // Event outside a simulated rank (e.g. startup code).
        }
        if (type == xray::XRayEntryType::Entry) {
            talp::MonitorHandle handle = self->handleFor(id, rank->rank);
            if (handle.valid()) {
                self->talp->regionStart(handle, rank->rank, rank->virtualNs);
            }
        } else {
            talp::MonitorHandle handle;
            {
                std::lock_guard<std::mutex> lock(self->mutex);
                auto it = self->regions.find(id);
                if (it == self->regions.end()) {
                    return;
                }
                handle = it->second.handle;
            }
            if (handle.valid()) {
                self->talp->regionStop(handle, rank->rank, rank->virtualNs);
            }
        }
    }

    talp::MonitorHandle handleFor(xray::PackedId id, int rank) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            auto it = regions.find(id);
            if (it != regions.end() && it->second.handle.valid()) {
                return it->second.handle;
            }
        }
        // Register (or retry) outside the map lock; TALP locks internally.
        std::optional<std::string_view> name = owner->nameOf(id);
        if (!name.has_value()) {
            return talp::MonitorHandle::invalid();
        }
        talp::MonitorHandle handle = talp->regionRegister(std::string(*name), rank);
        std::lock_guard<std::mutex> lock(mutex);
        RegionSlot& slot = regions[id];
        if (!handle.valid()) {
            if (!slot.handle.valid()) {
                ++failedRegistrations;
            }
            return slot.handle;
        }
        slot.handle = handle;
        return handle;
    }
};

// ------------------------------------------------------------------ DynCapi --

DynCapi::DynCapi(binsim::Process& process) : process_(&process) {
    resolveAllObjects();
}

DynCapi::~DynCapi() { detachHandler(); }

void DynCapi::resolveAllObjects() {
    support::Timer timer;
    addressByObject_.assign(xray::kMaxObjectId + 1, {});
    entryByObject_.assign(xray::kMaxObjectId + 1, {});
    unresolvable_ = 0;
    sledded_ = 0;
    objectsScanned_ = 0;

    xray::XRayRuntime& xr = process_->xray();
    const binsim::CompiledProgram& program = process_->program();

    // Candidate objects: the executable plus every DSO; find their XRay
    // object ids from the process (registration order).
    std::vector<std::pair<xray::ObjectId, const binsim::ObjectImage*>> objects;
    objects.emplace_back(xray::kMainExecutableObjectId, &program.executable);
    for (std::size_t d = 0; d < program.dsos.size(); ++d) {
        std::optional<xray::ObjectId> id =
            process_->xrayObjectId(static_cast<int>(d));
        if (id.has_value() && xr.objectRegistered(*id)) {
            objects.emplace_back(*id, &program.dsos[d]);
        }
    }

    // Every sledded function's runtime entry address (__xray_function_address).
    for (const auto& [objectId, image] : objects) {
        ++objectsScanned_;
        const std::uint32_t functions = xr.functionCount(objectId);
        std::vector<std::uint64_t>& addresses = addressByObject_[objectId];
        addresses.resize(functions);
        for (std::uint32_t fid = 0; fid < functions; ++fid) {
            addresses[fid] = xr.functionAddress(xray::packId(objectId, fid));
            sledded_ += addresses[fid] != 0;
        }
    }

    // Cross-check each address against the object's nm dump, translated back
    // by the load base; at most one name per sledded function. Objects scan
    // in registration order and fids ascend, so a name several objects
    // define keeps the first one's packed id.
    names_ = support::NameIndex(sledded_);
    for (const auto& [objectId, image] : objects) {
        const std::vector<std::uint64_t>& addresses = addressByObject_[objectId];
        std::vector<support::NameIndex::Entry>& entries = entryByObject_[objectId];
        entries.assign(addresses.size(), support::NameIndex::kNoEntry);
        binsim::NmAddressCursor nm(*image);
        const std::uint64_t delta = image->loadBase - image->linkBase;
        for (std::uint32_t fid = 0; fid < addresses.size(); ++fid) {
            if (addresses[fid] == 0) {
                continue;
            }
            const binsim::Symbol* symbol = nm.find(addresses[fid] - delta);
            if (symbol == nullptr) {
                ++unresolvable_;  // Hidden symbol: nm cannot see it.
                continue;
            }
            entries[fid] = names_.insert(symbol->name, xray::packId(objectId, fid));
        }
    }
    resolutionSeconds_ = timer.elapsedSec();
}

std::optional<xray::PackedId> DynCapi::resolveName(std::string_view name) const {
    return names_.find(name);
}

std::optional<std::string_view> DynCapi::nameOf(xray::PackedId id) const {
    xray::ObjectId objectId = xray::objectIdOf(id);
    xray::FunctionId fid = xray::functionIdOf(id);
    if (objectId >= entryByObject_.size() || fid >= entryByObject_[objectId].size() ||
        entryByObject_[objectId][fid] == support::NameIndex::kNoEntry) {
        return std::nullopt;
    }
    return names_.name(entryByObject_[objectId][fid]);
}

std::uint64_t DynCapi::addressOf(xray::PackedId id) const {
    xray::ObjectId objectId = xray::objectIdOf(id);
    xray::FunctionId fid = xray::functionIdOf(id);
    if (objectId >= addressByObject_.size() ||
        fid >= addressByObject_[objectId].size()) {
        return 0;
    }
    return addressByObject_[objectId][fid];
}

InitStats DynCapi::startStats(double patchSeconds) const {
    InitStats stats;
    stats.symbolResolutionSeconds = resolutionSeconds_;
    stats.objectsScanned = objectsScanned_;
    stats.sleddedFunctions = sledded_;
    stats.unresolvableFunctions = unresolvable_;
    stats.patchSeconds = patchSeconds;
    stats.totalSeconds = resolutionSeconds_ + patchSeconds;
    return stats;
}

InitStats DynCapi::startStats(const DeltaStats& delta) const {
    InitStats stats = startStats(delta.patchSeconds);
    stats.requestedFunctions = delta.requestedFunctions;
    stats.patchedFunctions = delta.functionsPatched + delta.functionsUnchanged +
                             delta.functionsPromoted + delta.functionsDemoted;
    stats.requestedUnavailable = delta.requestedUnavailable;
    stats.pagesTouched = delta.pagesTouched;
    return stats;
}

InitStats DynCapi::applyPolicy(const select::InstrumentationPolicy& policy) {
    return startStats(applyPolicyDelta(policy));
}

InitStats DynCapi::applyIc(const select::InstrumentationConfig& ic) {
    return startStats(applyIcDelta(ic));
}

std::optional<xray::PackedId> DynCapi::resolveEntry(const StaticIds& staticIds,
                                                    std::string_view name) const {
    auto staticIt = staticIds.find(name);
    if (staticIt != staticIds.end()) {
        return staticIt->second;  // Static-ID extension: no name resolution.
    }
    return resolveName(name);
}

DeltaStats DynCapi::applyPolicyDelta(const select::InstrumentationPolicy& policy) {
    DeltaStats stats = applyDelta(policy.functions, &policy.regions, policy.staticIds);
    commitGates(&policy);
    return stats;
}

DeltaStats DynCapi::applyIcDelta(const select::InstrumentationConfig& ic) {
    DeltaStats stats = applyDelta(ic.functions, nullptr, ic.staticIds);
    commitGates(nullptr);
    return stats;
}

DeltaStats DynCapi::applyDelta(const std::vector<std::string>& functions,
                               const std::vector<select::RegionPolicy>* regions,
                               const StaticIds& staticIds) {
    DeltaStats stats;
    stats.requestedFunctions = functions.size();

    support::Timer timer;
    xray::XRayRuntime& xr = process_->xray();

    // Requested (function, tier) set, resolved to packed ids and sorted by
    // id; a pid named twice keeps its last entry's tier. An entry that
    // resolves but has no live sled (its object was dlclosed) is never in
    // the patched set, so it lands in toPatch and the transaction counts it
    // unavailable below.
    using Flip = xray::XRayRuntime::TieredFlip;
    std::vector<Flip> target;
    target.reserve(functions.size());
    for (std::size_t i = 0; i < functions.size(); ++i) {
        std::optional<xray::PackedId> pid = resolveEntry(staticIds, functions[i]);
        if (pid.has_value()) {
            target.push_back({*pid, regions != nullptr &&
                                            (*regions)[i].tier == select::Tier::Sampled
                                        ? xray::XRayRuntime::kSampledTier
                                        : xray::XRayRuntime::kFullTier});
        } else {
            ++stats.requestedUnavailable;
        }
    }
    std::stable_sort(target.begin(), target.end(), [](const Flip& a, const Flip& b) {
        return a.function < b.function;
    });
    // Unique from the back keeps each run's last entry, at the vector's end.
    auto kept = std::unique(target.rbegin(), target.rend(), [](const Flip& a, const Flip& b) {
        return a.function == b.function;
    });
    target.erase(target.begin(), kept.base());

    // The currently-patched set and its tiers are read from the runtime
    // itself, so state the previous policy never saw — a re-registered DSO
    // whose sleds reset to NOP, or sleds another caller flipped — diffs
    // correctly. Both lists ascend by packed id, so one merge splits them:
    // live only -> unpatch, requested only -> patch, both -> unchanged or a
    // zero-page retier request.
    std::vector<xray::PackedId> toUnpatch;
    std::vector<Flip> toRetier;
    std::vector<Flip> toPatch;
    auto wanted = target.begin();
    for (const auto& [pid, liveTag] : xr.patchedFunctionTiers()) {
        for (; wanted != target.end() && wanted->function < pid; ++wanted) {
            toPatch.push_back(*wanted);
        }
        if (wanted == target.end() || wanted->function != pid) {
            toUnpatch.push_back(pid);
            continue;
        }
        if (wanted->tierTag != liveTag) {
            toRetier.push_back(*wanted);
            if (wanted->tierTag == xray::XRayRuntime::kFullTier) {
                ++stats.functionsPromoted;
            } else {
                ++stats.functionsDemoted;
            }
        } else {
            ++stats.functionsUnchanged;
        }
        ++wanted;
    }
    toPatch.insert(toPatch.end(), wanted, target.end());

    xray::XRayRuntime::DeltaPatchStats patch =
        xr.patchDeltaTiered(toPatch, toUnpatch, toRetier);
    // Per-list unavailability: a toPatch entry without a live sled is a
    // failed request; a stale toUnpatch entry (dlclose raced us) is simply
    // already effectively unpatched and not a policy request at all.
    stats.functionsPatched = toPatch.size() - patch.unavailablePatch;
    stats.functionsUnpatched = toUnpatch.size() - patch.unavailableUnpatch;
    stats.requestedUnavailable += patch.unavailablePatch;
    stats.pagesTouched = patch.pagesMadeWritable;
    stats.patchSeconds = timer.elapsedSec();
    return stats;
}

void DynCapi::commitGates(const select::InstrumentationPolicy* policy) {
    sampledGates_.clear();
    if (policy != nullptr) {
        for (std::size_t i = 0; i < policy->functions.size(); ++i) {
            const select::RegionPolicy& region = policy->regions[i];
            if (region.tier == select::Tier::Sampled) {
                sampledGates_.emplace_back(policy->functions[i], region.sampling);
            }
        }
    }
    syncGates();
}

void DynCapi::syncGates() {
    if (cygBackend_ == nullptr || cygBackend_->adapter == nullptr) {
        return;
    }
    scorep::Measurement& measurement = cygBackend_->adapter->measurement();
    measurement.clearAllSampling();
    for (const auto& [name, sampling] : sampledGates_) {
        // Defining by name yields the same handle the adapter's resolver
        // produces for events of this function, so the gate and the events
        // meet at one region.
        scorep::RegionHandle handle = measurement.defineRegion(name);
        measurement.setRegionSampling(handle, sampling.everyN, sampling.minIntervalNs);
    }
}

InitStats DynCapi::patchAll() {
    support::Timer timer;
    xray::PatchStats patched = process_->xray().patchAll();
    InitStats stats = startStats(timer.elapsedSec());
    stats.patchedFunctions = sledded_;
    stats.requestedFunctions = sledded_;
    stats.pagesTouched = patched.pagesMadeWritable;
    return stats;
}

void DynCapi::attachCygHandler(scorep::CygProfileAdapter& adapter) {
    detachHandler();
    cygBackend_ = std::make_unique<CygBackend>();
    cygBackend_->owner = this;
    cygBackend_->adapter = &adapter;
    process_->xray().setHandler(&CygBackend::handle, cygBackend_.get());
    // A freshly attached measurement starts with empty gates; re-sync them
    // from the live policy so Sampled regions stay sampled across per-epoch
    // Measurement swaps.
    syncGates();
}

void DynCapi::attachTalpHandler(talp::TalpRuntime& talp) {
    detachHandler();
    talpBackend_ = std::make_unique<TalpBackend>();
    talpBackend_->owner = this;
    talpBackend_->talp = &talp;
    process_->xray().setHandler(&TalpBackend::handle, talpBackend_.get());
}

void DynCapi::detachHandler() {
    process_->xray().clearHandler();
    cygBackend_.reset();
    talpBackend_.reset();
}

std::uint64_t DynCapi::talpFailedRegistrations() const {
    if (talpBackend_ == nullptr) {
        return 0;
    }
    std::lock_guard<std::mutex> lock(talpBackend_->mutex);
    return talpBackend_->failedRegistrations;
}

}  // namespace capi::dyncapi

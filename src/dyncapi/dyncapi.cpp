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

InitStats DynCapi::startStats(const DeltaStats& delta) const {
    InitStats stats;
    stats.symbolResolutionSeconds = resolutionSeconds_;
    stats.objectsScanned = objectsScanned_;
    stats.sleddedFunctions = sledded_;
    stats.unresolvableFunctions = unresolvable_;
    stats.patchSeconds = delta.patchSeconds;
    stats.totalSeconds = resolutionSeconds_ + delta.patchSeconds;
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
    return applyDelta(policy.functions, &policy.regions, policy.staticIds);
}

DeltaStats DynCapi::applyIcDelta(const select::InstrumentationConfig& ic) {
    return applyDelta(ic.functions, nullptr, ic.staticIds);
}

DeltaStats DynCapi::applyDelta(const std::vector<std::string>& functions,
                               const std::vector<select::RegionPolicy>* regions,
                               const StaticIds& staticIds) {
    support::Timer timer;
    DeltaStats stats;
    const std::vector<Target> target = resolveTarget(functions, regions, staticIds, stats);
    stats = applyTarget(target, stats);
    stats.patchSeconds = timer.elapsedSec();
    return stats;
}

std::vector<DynCapi::Target> DynCapi::resolveTarget(
    const std::vector<std::string>& functions,
    const std::vector<select::RegionPolicy>* regions, const StaticIds& staticIds,
    DeltaStats& stats) const {
    stats.requestedFunctions = functions.size();
    // An entry that resolves but has no live sled (its object was dlclosed)
    // is never in the patched set, so it lands in toPatch and the
    // transaction counts it unavailable.
    std::vector<Target> target;
    target.reserve(functions.size());
    for (std::size_t i = 0; i < functions.size(); ++i) {
        std::optional<xray::PackedId> pid = resolveEntry(staticIds, functions[i]);
        if (!pid.has_value()) {
            ++stats.requestedUnavailable;
        } else if (regions != nullptr && (*regions)[i].tier == select::Tier::Sampled) {
            target.push_back({{*pid, xray::XRayRuntime::kSampledTier}, &(*regions)[i].sampling});
        } else {
            target.push_back({{*pid, xray::XRayRuntime::kFullTier}});
        }
    }
    std::stable_sort(target.begin(), target.end(), [](const Target& a, const Target& b) {
        return a.flip.function < b.flip.function;
    });
    // Unique from the back keeps each run's last entry, at the vector's end.
    auto kept = std::unique(target.rbegin(), target.rend(), [](const Target& a, const Target& b) {
        return a.flip.function == b.flip.function;
    });
    target.erase(target.begin(), kept.base());
    return target;
}

DeltaStats DynCapi::applyTarget(const std::vector<Target>& target, DeltaStats stats) {
    xray::XRayRuntime& xr = process_->xray();

    // The currently-patched set and its tiers are read from the runtime
    // itself, so state the previous policy never saw — a re-registered DSO
    // whose sleds reset to NOP, or sleds another caller flipped — diffs
    // correctly. Both lists ascend by packed id, so one merge splits them:
    // live only -> unpatch, requested only -> patch, both -> unchanged or a
    // zero-page retier request.
    using Flip = xray::XRayRuntime::TieredFlip;
    std::vector<xray::PackedId> toUnpatch;
    std::vector<Flip> toRetier;
    std::vector<Flip> toPatch;
    auto wanted = target.begin();
    for (const auto& [pid, liveTag] : xr.patchedFunctionTiers()) {
        for (; wanted != target.end() && wanted->flip.function < pid; ++wanted) {
            toPatch.push_back(wanted->flip);
        }
        if (wanted == target.end() || wanted->flip.function != pid) {
            toUnpatch.push_back(pid);
            continue;
        }
        if (wanted->flip.tierTag != liveTag) {
            toRetier.push_back(wanted->flip);
            if (wanted->flip.tierTag == xray::XRayRuntime::kFullTier) {
                ++stats.functionsPromoted;
            } else {
                ++stats.functionsDemoted;
            }
        } else {
            ++stats.functionsUnchanged;
        }
        ++wanted;
    }
    for (; wanted != target.end(); ++wanted) {
        toPatch.push_back(wanted->flip);
    }

    xray::XRayRuntime::DeltaPatchStats patch =
        xr.patchDeltaTiered(toPatch, toUnpatch, toRetier);
    // Per-list unavailability: a toPatch entry without a live sled is a
    // failed request; a stale toUnpatch entry (dlclose raced us) is simply
    // already effectively unpatched and not a policy request at all.
    stats.functionsPatched = toPatch.size() - patch.unavailablePatch;
    stats.functionsUnpatched = toUnpatch.size() - patch.unavailableUnpatch;
    stats.requestedUnavailable += patch.unavailablePatch;
    stats.pagesTouched = patch.pagesMadeWritable;

    // Committed: the gates follow the target's Sampled pids.
    std::vector<Gate> gates;
    for (const Target& entry : target) {
        if (entry.flip.tierTag == xray::XRayRuntime::kSampledTier) {
            gates.emplace_back(entry.flip.function, *entry.sampling);
        }
    }
    syncGates(gates_, gates);
    gates_ = std::move(gates);
    return stats;
}

void DynCapi::syncGates(std::span<const Gate> from, std::span<const Gate> to) {
    if (cygBackend_ == nullptr || cygBackend_->adapter == nullptr) {
        return;
    }
    scorep::Measurement& measurement = cygBackend_->adapter->measurement();
    auto write = [&](xray::PackedId pid, const select::SamplingSpec& sampling) {
        // Defining by name yields the same handle the adapter's resolver
        // produces for events of this function, so the gate and the events
        // meet at one region. A hidden function's events reach no region.
        std::optional<std::string_view> name = nameOf(pid);
        if (name.has_value()) {
            measurement.setRegionSampling(measurement.defineRegion(std::string(*name)),
                                          sampling.everyN, sampling.minIntervalNs);
        }
    };
    // Both lists ascend by pid: clear what left, arm what came or changed.
    auto old = from.begin();
    for (const auto& [pid, sampling] : to) {
        for (; old != from.end() && old->first < pid; ++old) {
            write(old->first, {});
        }
        if (old != from.end() && old->first == pid) {
            if (old->second != sampling) {
                write(pid, sampling);
            }
            ++old;
        } else {
            write(pid, sampling);
        }
    }
    for (; old != from.end(); ++old) {
        write(old->first, {});
    }
}

InitStats DynCapi::patchAll() {
    support::Timer timer;
    DeltaStats stats;
    std::vector<Target> target;
    target.reserve(sledded_);
    for (xray::ObjectId objectId = 0; objectId < addressByObject_.size(); ++objectId) {
        const std::vector<std::uint64_t>& addresses = addressByObject_[objectId];
        for (xray::FunctionId fid = 0; fid < addresses.size(); ++fid) {
            if (addresses[fid] != 0) {
                target.push_back({{xray::packId(objectId, fid), xray::XRayRuntime::kFullTier}});
            }
        }
    }
    stats.requestedFunctions = target.size();
    stats = applyTarget(target, stats);
    stats.patchSeconds = timer.elapsedSec();
    return startStats(stats);
}

void DynCapi::attachCygHandler(scorep::CygProfileAdapter& adapter) {
    detachHandler();
    cygBackend_ = std::make_unique<CygBackend>();
    cygBackend_->owner = this;
    cygBackend_->adapter = &adapter;
    process_->xray().setHandler(&CygBackend::handle, cygBackend_.get());
    // A freshly attached measurement starts with empty gates; arm the live
    // policy's so Sampled regions stay sampled across per-epoch Measurement
    // swaps.
    syncGates({}, gates_);
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

// The xray-dso runtime library (paper Sec. V-B2).
//
// Linked into every instrumented shared object, this runtime collects the
// object's sled table when the DSO is loaded and passes it to the main XRay
// runtime through the registration API, together with the object's locally
// linked trampolines. The trampolines are position independent (symbols
// addressed relative to the GOT, i.e. compiled with -fPIC), which is what
// makes them callable after relocation.
#pragma once

#include <optional>

#include "xraysim/xray_runtime.hpp"

namespace capi::xray {

/// Handle returned from DSO registration, used for deregistration on unload.
struct DsoHandle {
    ObjectId objectId = 0;
};

/// Registers a loaded DSO with the main runtime. The xray-dso library always
/// links position-independent trampolines, so the flag is forced on here
/// regardless of what the caller assembled.
inline std::optional<DsoHandle> dsoRegister(XRayRuntime& runtime,
                                            ObjectRegistration registration) {
    registration.trampolinesPositionIndependent = true;
    std::optional<ObjectId> id = runtime.registerDso(std::move(registration));
    if (!id.has_value()) {
        return std::nullopt;
    }
    return DsoHandle{*id};
}

/// Deregisters a DSO on dlclose; its sleds are unpatched first, in one
/// transaction. A fault there throws the rolled-back PatchError and the DSO
/// stays registered, so dlclose fails as a whole or not at all.
inline bool dsoUnregister(XRayRuntime& runtime, DsoHandle handle) {
    return runtime.unregisterDso(handle.objectId);
}

}  // namespace capi::xray

// Instrumentation configuration (IC): the output of a CaPI selection.
//
// An IC is the list of functions to instrument. It can be written in two
// interchange formats:
//  * the Score-P region-name filter format (what CaPI feeds to Score-P's
//    instrumenter and to the static instrumentation plugin), and
//  * a JSON format that can additionally carry packed XRay function IDs
//    (the "static ID" extension the paper proposes in Sec. VI-B for hidden
//    symbols that cannot be resolved at runtime).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/hash.hpp"
#include "support/json.hpp"

namespace capi::select {

/// Static-ID extension map: function name -> packed XRay ID. Transparent,
/// so lookups take a std::string_view without building a key.
using StaticIdMap = std::map<std::string, std::uint32_t, std::less<>>;

struct InstrumentationConfig {
    /// Mangled names of the functions to instrument, sorted and unique.
    std::vector<std::string> functions;

    /// Optional packed XRay IDs keyed by function name (static-ID extension;
    /// lets the runtime patch hidden symbols without resolving names).
    StaticIdMap staticIds;

    /// Provenance for reports.
    std::string specName;
    std::string application;

    bool contains(const std::string& name) const;
    /// Inserts one name in order: O(size()) per call, for edits.
    void addFunction(std::string name);
    /// Replaces the list with `names`, sorted and de-duplicated in
    /// O(k log k); every bulk build of an IC goes through here. Views (into
    /// a CsrView name arena or a parsed document) sort without copying.
    template <typename Name>
    void setFunctions(std::vector<Name> names) {
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()), names.end());
        functions.assign(std::make_move_iterator(names.begin()),
                         std::make_move_iterator(names.end()));
    }
    std::size_t size() const { return functions.size(); }

    /// Score-P filter-file format:
    ///   SCOREP_REGION_NAMES_BEGIN
    ///     EXCLUDE *
    ///     INCLUDE MANGLED name
    ///     ...
    ///   SCOREP_REGION_NAMES_END
    std::string toScorePFilter() const;
    static InstrumentationConfig fromScorePFilter(const std::string& text);

    support::Json toJson() const;
    static InstrumentationConfig fromJson(const support::Json& doc);

    void writeFile(const std::string& path, bool scorePFormat = false) const;
    static InstrumentationConfig readFile(const std::string& path);
};

/// Set difference of two ICs (function names only; both lists are sorted, so
/// this is one linear merge pass). The adaptive controller logs this per
/// epoch — the patch/unpatch sets themselves are diffed against live sled
/// state by DynCapi's apply calls, not here.
struct IcDelta {
    std::vector<std::string> added;    ///< In `to` but not `from`.
    std::vector<std::string> removed;  ///< In `from` but not `to`.

    bool empty() const { return added.empty() && removed.empty(); }
};

IcDelta icDiff(const InstrumentationConfig& from, const InstrumentationConfig& to);

// --------------------------------------------------------------------------
// Tiered instrumentation policy.
//
// The binary IC above answers "is this region instrumented?". The policy
// refines that into three tiers per region:
//   Full    — every visit is measured (the classic patched state);
//   Sampled — the sleds stay patched but the measurement gate admits only
//             1-in-everyN visits, no closer together than minIntervalNs
//             (Mertz & Nunes' adaptive sampling; Arafa et al.'s redundancy
//             suppression), so a hot region keeps *some* visibility instead
//             of being evicted outright;
//   Off     — unpatched, exactly the old "not in the IC" state.
// The binary API remains the Full|Off degenerate case: fullOf() lifts an IC
// into an all-Full policy and patchSet() projects a policy back down.

enum class Tier : std::uint8_t { Off = 0, Sampled = 1, Full = 2 };

const char* tierName(Tier tier);

/// How a Sampled region's measurement gate decimates visits. Both checks
/// must pass for a visit to be recorded: the counter admits every Nth
/// visit, and the (calibrated-TSC) interval check drops admissions closer
/// than minIntervalNs to the previous recorded one.
struct SamplingSpec {
    std::uint32_t everyN = 1;       ///< Record 1 in N visits (1 = all).
    std::uint64_t minIntervalNs = 0;  ///< 0 = no interval gate.

    /// A spec that admits everything is no spec at all.
    bool unsampled() const { return everyN <= 1 && minIntervalNs == 0; }

    friend bool operator==(const SamplingSpec& a, const SamplingSpec& b) {
        return a.everyN == b.everyN && a.minIntervalNs == b.minIntervalNs;
    }
    friend bool operator!=(const SamplingSpec& a, const SamplingSpec& b) {
        return !(a == b);
    }
};

struct RegionPolicy {
    Tier tier = Tier::Off;
    SamplingSpec sampling;  ///< Meaningful when tier == Sampled.

    friend bool operator==(const RegionPolicy& a, const RegionPolicy& b) {
        return a.tier == b.tier &&
               (a.tier != Tier::Sampled || a.sampling == b.sampling);
    }
    friend bool operator!=(const RegionPolicy& a, const RegionPolicy& b) {
        return !(a == b);
    }
};

/// The tiered successor of InstrumentationConfig: a sorted function list
/// with a parallel per-function RegionPolicy. Regions absent from the list
/// are Off; setRegion(name, {Tier::Off, ...}) removes the entry, so the
/// list only ever names instrumented (Full or Sampled) regions and the
/// patchable projection is simply every listed function.
struct InstrumentationPolicy {
    /// Mangled names, sorted and unique — Full and Sampled regions only.
    std::vector<std::string> functions;
    /// Parallel to `functions`.
    std::vector<RegionPolicy> regions;

    /// Optional packed XRay IDs keyed by function name (as in the IC).
    StaticIdMap staticIds;

    std::string specName;
    std::string application;

    std::size_t size() const { return functions.size(); }
    bool contains(const std::string& name) const;
    Tier tierOf(const std::string& name) const;
    /// nullptr when the region is Off (absent).
    const RegionPolicy* policyOf(const std::string& name) const;
    void setRegion(const std::string& name, RegionPolicy policy);
    std::size_t countOf(Tier tier) const;

    /// Lifts a binary IC into the degenerate all-Full policy.
    static InstrumentationPolicy fullOf(const InstrumentationConfig& ic);
    /// Projects down to the set of patched functions (Full + Sampled —
    /// Sampled regions keep their sleds; only the measurement gate differs).
    InstrumentationConfig patchSet() const;

    /// Digest of the (name, tier, sampling) entries, chained in list order,
    /// then the static-ID map; ranks compare these to detect policy
    /// divergence without shipping whole policies around. The chain is
    /// order-sensitive, so equal policies digest equally only because the
    /// list is kept sorted and unique.
    std::uint64_t fingerprint() const;

    support::Json toJson() const;
    static InstrumentationPolicy fromJson(const support::Json& doc);
};

/// InstrumentationPolicy::fingerprint(), computed incrementally: add() each
/// entry in list order, then value() with the static IDs. For callers that
/// know a policy's entries before (or without) building it. An entry's
/// name enters only as support::fnv1a(name), so a caller that keeps those
/// hashes per entry can addHashed() instead of rehashing the name. chain()
/// is the running value after the entries added so far; a digest built
/// from a stored chain() resumes the list from that entry on.
class PolicyDigest {
public:
    PolicyDigest() = default;
    explicit PolicyDigest(std::uint64_t chain) : digest_(chain) {}

    std::uint64_t chain() const { return digest_; }
    void add(std::string_view name, const RegionPolicy& region) {
        addHashed(support::fnv1a(name), region);
    }
    void addHashed(std::uint64_t nameHash, const RegionPolicy& region) {
        std::uint64_t entry = support::hashCombine(
            nameHash, static_cast<std::uint64_t>(region.tier));
        if (region.tier == Tier::Sampled) {
            entry = support::hashCombine(entry, region.sampling.everyN);
            entry = support::hashCombine(entry, region.sampling.minIntervalNs);
        }
        digest_ = support::hashCombine(digest_, entry);
    }
    std::uint64_t value(const StaticIdMap& staticIds) const;

private:
    std::uint64_t digest_ = support::kFnvOffsetBasis;
};

/// Tier-transition diff between two policies. `added`/`removed` mirror
/// IcDelta (Off -> instrumented and back); the three new lists are the
/// transitions a binary diff cannot express.
struct PolicyDelta {
    std::vector<std::string> added;     ///< Off -> Full/Sampled.
    std::vector<std::string> removed;   ///< Full/Sampled -> Off.
    std::vector<std::string> promoted;  ///< Sampled -> Full.
    std::vector<std::string> demoted;   ///< Full -> Sampled.
    std::vector<std::string> regated;   ///< Sampled -> Sampled, spec changed.

    bool empty() const {
        return added.empty() && removed.empty() && promoted.empty() &&
               demoted.empty() && regated.empty();
    }
};

PolicyDelta policyDiff(const InstrumentationPolicy& from,
                       const InstrumentationPolicy& to);

}  // namespace capi::select

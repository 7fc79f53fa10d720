#include "dyncapi/refinement.hpp"

#include <map>
#include <string_view>
#include <unordered_set>

namespace capi::dyncapi {

RefinementSession::RefinementSession(const cg::CallGraph& graph,
                                     support::ThreadPool* pool)
    : graph_(&graph), pool_(pool) {}

RefinementSession::~RefinementSession() = default;

select::SelectionReport RefinementSession::select(
    const std::string& specText, const std::string& specName,
    select::SelectionOptions base) const {
    base.specText = specText;
    base.specName = specName;
    base.cache = &cache_;
    base.inlineCache = &inlineCache_;
    if (base.pool == nullptr) {
        base.pool = pool_;
    }
    return select::runSelection(*graph_, base);
}

RefinementResult refineIc(const select::InstrumentationConfig& ic,
                          const scorep::ProfileTree& profile,
                          const scorep::Measurement& measurement,
                          const RefinementOptions& options) {
    // Aggregate the profile per region name.
    using Accum = scorep::ProfileTree::RegionTotals;
    std::map<std::string, Accum> byName;
    for (const auto& [region, totals] : profile.regionTotals()) {
        Accum& accum = byName[measurement.region(region).name];
        accum.visits += totals.visits;
        accum.exclusiveNs += totals.exclusiveNs;
    }

    RefinementResult result;
    result.ic.specName = ic.specName + "+refined";
    result.ic.application = ic.application;

    // string_view keys borrow from options.keep, which outlives the loop.
    std::unordered_set<std::string_view> keepSet(options.keep.begin(),
                                                 options.keep.end());
    for (const std::string& name : ic.functions) {
        auto it = byName.find(name);
        if (it == byName.end()) {
            // Not measured this run: keep (the region may simply be on a
            // cold path for this input).
            ++result.unmeasured;
            result.ic.addFunction(name);
            continue;
        }
        const Accum& accum = it->second;
        bool keepListed = keepSet.count(name) != 0;
        double perVisit = accum.visits == 0
                              ? 0.0
                              : static_cast<double>(accum.exclusiveNs) /
                                    static_cast<double>(accum.visits);
        bool noisy = accum.visits > options.visitThreshold &&
                     perVisit < options.minExclusiveNsPerVisit;
        if (noisy && !keepListed) {
            result.excluded.push_back(name);
            result.excludedVisits += accum.visits;
        } else {
            result.ic.addFunction(name);
            // Preserve any static-ID annotations for surviving entries.
            auto staticIt = ic.staticIds.find(name);
            if (staticIt != ic.staticIds.end()) {
                result.ic.staticIds.insert(*staticIt);
            }
        }
    }
    return result;
}

}  // namespace capi::dyncapi

#include "select/ic.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace capi::select {

bool InstrumentationConfig::contains(const std::string& name) const {
    return std::binary_search(functions.begin(), functions.end(), name);
}

void InstrumentationConfig::addFunction(std::string name) {
    auto it = std::lower_bound(functions.begin(), functions.end(), name);
    if (it == functions.end() || *it != name) {
        functions.insert(it, std::move(name));
    }
}

std::string InstrumentationConfig::toScorePFilter() const {
    std::string out;
    out += "# CaPI instrumentation configuration";
    if (!specName.empty()) {
        out += " (spec: " + specName + ")";
    }
    out += "\nSCOREP_REGION_NAMES_BEGIN\n";
    out += "  EXCLUDE *\n";
    for (const std::string& fn : functions) {
        out += "  INCLUDE MANGLED " + fn + "\n";
    }
    out += "SCOREP_REGION_NAMES_END\n";
    return out;
}

InstrumentationConfig InstrumentationConfig::fromScorePFilter(const std::string& text) {
    InstrumentationConfig ic;
    std::vector<std::string> names;
    bool inBlock = false;
    bool sawBlock = false;
    int lineNo = 0;
    for (const std::string& rawLine : support::split(text, '\n')) {
        ++lineNo;
        std::string_view line = support::trim(rawLine);
        if (line.empty() || line.front() == '#') {
            continue;
        }
        if (line == "SCOREP_REGION_NAMES_BEGIN") {
            inBlock = true;
            sawBlock = true;
            continue;
        }
        if (line == "SCOREP_REGION_NAMES_END") {
            inBlock = false;
            continue;
        }
        if (!inBlock) {
            throw support::ParseError("filter: content outside region-names block",
                                      lineNo, 1);
        }
        std::vector<std::string> fields = support::splitWhitespace(line);
        if (fields.empty()) {
            continue;
        }
        if (fields[0] == "EXCLUDE") {
            continue;  // The CaPI convention is EXCLUDE * followed by INCLUDEs.
        }
        if (fields[0] != "INCLUDE") {
            throw support::ParseError("filter: expected INCLUDE/EXCLUDE", lineNo, 1);
        }
        std::size_t nameIndex = 1;
        if (fields.size() > 2 && fields[1] == "MANGLED") {
            nameIndex = 2;
        }
        if (fields.size() <= nameIndex) {
            throw support::ParseError("filter: INCLUDE without a name", lineNo, 1);
        }
        names.push_back(std::move(fields[nameIndex]));
    }
    if (!sawBlock) {
        throw support::Error("filter: missing SCOREP_REGION_NAMES_BEGIN block");
    }
    ic.setFunctions(std::move(names));
    return ic;
}

support::Json InstrumentationConfig::toJson() const {
    support::Json doc = support::Json::object();
    doc["format"] = support::Json("capi-ic/1");
    doc["spec"] = support::Json(specName);
    doc["application"] = support::Json(application);
    support::Json fns = support::Json::array();
    for (const std::string& fn : functions) {
        fns.push_back(support::Json(fn));
    }
    doc["functions"] = fns;
    if (!staticIds.empty()) {
        support::Json ids = support::Json::object();
        for (const auto& [name, id] : staticIds) {
            ids[name] = support::Json(static_cast<std::int64_t>(id));
        }
        doc["staticIds"] = ids;
    }
    return doc;
}

InstrumentationConfig InstrumentationConfig::fromJson(const support::Json& doc) {
    if (doc.getString("format", "") != "capi-ic/1") {
        throw support::Error("IC: unknown format tag");
    }
    InstrumentationConfig ic;
    ic.specName = doc.getString("spec", "");
    ic.application = doc.getString("application", "");
    if (const support::Json* fns = doc.find("functions")) {
        std::vector<std::string_view> names;
        names.reserve(fns->asArray().size());
        for (const support::Json& fn : fns->asArray()) {
            names.push_back(fn.asString());
        }
        ic.setFunctions(std::move(names));
    }
    if (const support::Json* ids = doc.find("staticIds")) {
        for (const auto& [name, id] : ids->asObject()) {
            ic.staticIds[name] = static_cast<std::uint32_t>(id.asInt());
        }
    }
    return ic;
}

void InstrumentationConfig::writeFile(const std::string& path, bool scorePFormat) const {
    std::ofstream out(path);
    if (!out) {
        throw support::Error("cannot open for writing: " + path);
    }
    out << (scorePFormat ? toScorePFilter() : toJson().dump(true));
}

InstrumentationConfig InstrumentationConfig::readFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw support::Error("cannot open for reading: " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    std::string_view trimmed = support::trim(text);
    if (!trimmed.empty() && trimmed.front() == '{') {
        return fromJson(support::Json::parse(text));
    }
    return fromScorePFilter(text);
}

const char* tierName(Tier tier) {
    switch (tier) {
        case Tier::Off: return "off";
        case Tier::Sampled: return "sampled";
        case Tier::Full: return "full";
    }
    return "off";
}

bool InstrumentationPolicy::contains(const std::string& name) const {
    return std::binary_search(functions.begin(), functions.end(), name);
}

Tier InstrumentationPolicy::tierOf(const std::string& name) const {
    const RegionPolicy* policy = policyOf(name);
    return policy == nullptr ? Tier::Off : policy->tier;
}

const RegionPolicy* InstrumentationPolicy::policyOf(const std::string& name) const {
    auto it = std::lower_bound(functions.begin(), functions.end(), name);
    if (it == functions.end() || *it != name) {
        return nullptr;
    }
    return &regions[static_cast<std::size_t>(it - functions.begin())];
}

void InstrumentationPolicy::setRegion(const std::string& name,
                                      RegionPolicy policy) {
    auto it = std::lower_bound(functions.begin(), functions.end(), name);
    std::size_t index = static_cast<std::size_t>(it - functions.begin());
    bool present = it != functions.end() && *it == name;
    if (policy.tier == Tier::Off) {
        if (present) {
            functions.erase(it);
            regions.erase(regions.begin() + static_cast<std::ptrdiff_t>(index));
        }
        return;
    }
    if (policy.tier == Tier::Full) {
        policy.sampling = SamplingSpec{};  // Full carries no gate spec.
    }
    if (present) {
        regions[index] = policy;
    } else {
        functions.insert(it, name);
        regions.insert(regions.begin() + static_cast<std::ptrdiff_t>(index), policy);
    }
}

std::size_t InstrumentationPolicy::countOf(Tier tier) const {
    if (tier == Tier::Off) {
        return 0;  // Off regions are not listed.
    }
    std::size_t count = 0;
    for (const RegionPolicy& region : regions) {
        if (region.tier == tier) {
            ++count;
        }
    }
    return count;
}

InstrumentationPolicy InstrumentationPolicy::fullOf(
    const InstrumentationConfig& ic) {
    InstrumentationPolicy policy;
    policy.functions = ic.functions;
    policy.regions.assign(ic.functions.size(), RegionPolicy{Tier::Full, {}});
    policy.staticIds = ic.staticIds;
    policy.specName = ic.specName;
    policy.application = ic.application;
    return policy;
}

InstrumentationConfig InstrumentationPolicy::patchSet() const {
    InstrumentationConfig ic;
    ic.functions = functions;  // Already sorted and unique.
    ic.staticIds = staticIds;
    ic.specName = specName;
    ic.application = application;
    return ic;
}

std::uint64_t InstrumentationPolicy::fingerprint() const {
    PolicyDigest digest;
    for (std::size_t i = 0; i < functions.size(); ++i) {
        digest.add(functions[i], regions[i]);
    }
    return digest.value(staticIds);
}

std::uint64_t PolicyDigest::value(const StaticIdMap& staticIds) const {
    std::uint64_t digest = digest_;
    for (const auto& [name, id] : staticIds) {
        digest = support::hashCombine(digest, support::fnv1a(name));
        digest = support::hashCombine(digest, id);
    }
    return digest;
}

support::Json InstrumentationPolicy::toJson() const {
    support::Json doc = support::Json::object();
    doc["format"] = support::Json("capi-policy/1");
    doc["spec"] = support::Json(specName);
    doc["application"] = support::Json(application);
    support::Json entries = support::Json::array();
    for (std::size_t i = 0; i < functions.size(); ++i) {
        support::Json entry = support::Json::object();
        entry["name"] = support::Json(functions[i]);
        entry["tier"] = support::Json(tierName(regions[i].tier));
        if (regions[i].tier == Tier::Sampled) {
            entry["everyN"] =
                support::Json(static_cast<std::int64_t>(regions[i].sampling.everyN));
            entry["minIntervalNs"] = support::Json(
                static_cast<std::int64_t>(regions[i].sampling.minIntervalNs));
        }
        entries.push_back(entry);
    }
    doc["regions"] = entries;
    if (!staticIds.empty()) {
        support::Json ids = support::Json::object();
        for (const auto& [name, id] : staticIds) {
            ids[name] = support::Json(static_cast<std::int64_t>(id));
        }
        doc["staticIds"] = ids;
    }
    return doc;
}

InstrumentationPolicy InstrumentationPolicy::fromJson(const support::Json& doc) {
    if (doc.getString("format", "") != "capi-policy/1") {
        throw support::Error("policy: unknown format tag");
    }
    InstrumentationPolicy policy;
    policy.specName = doc.getString("spec", "");
    policy.application = doc.getString("application", "");
    if (const support::Json* entries = doc.find("regions")) {
        for (const support::Json& entry : entries->asArray()) {
            RegionPolicy region;
            std::string tier = entry.getString("tier", "full");
            if (tier == "full") {
                region.tier = Tier::Full;
            } else if (tier == "sampled") {
                region.tier = Tier::Sampled;
                region.sampling.everyN = static_cast<std::uint32_t>(
                    entry.getInt("everyN", 1));
                region.sampling.minIntervalNs = static_cast<std::uint64_t>(
                    entry.getInt("minIntervalNs", 0));
            } else if (tier == "off") {
                region.tier = Tier::Off;
            } else {
                throw support::Error("policy: unknown tier '" + tier + "'");
            }
            policy.setRegion(entry.getString("name", ""), region);
        }
    }
    if (const support::Json* ids = doc.find("staticIds")) {
        for (const auto& [name, id] : ids->asObject()) {
            policy.staticIds[name] = static_cast<std::uint32_t>(id.asInt());
        }
    }
    return policy;
}

PolicyDelta policyDiff(const InstrumentationPolicy& from,
                       const InstrumentationPolicy& to) {
    PolicyDelta delta;
    // One linear merge pass over the two sorted lists, classifying each name
    // by its (fromTier, toTier) pair.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < from.functions.size() || j < to.functions.size()) {
        int order;
        if (i == from.functions.size()) {
            order = 1;
        } else if (j == to.functions.size()) {
            order = -1;
        } else {
            order = from.functions[i].compare(to.functions[j]);
            order = order < 0 ? -1 : (order > 0 ? 1 : 0);
        }
        if (order < 0) {
            delta.removed.push_back(from.functions[i]);
            ++i;
        } else if (order > 0) {
            delta.added.push_back(to.functions[j]);
            ++j;
        } else {
            const RegionPolicy& before = from.regions[i];
            const RegionPolicy& after = to.regions[j];
            if (before.tier == Tier::Sampled && after.tier == Tier::Full) {
                delta.promoted.push_back(to.functions[j]);
            } else if (before.tier == Tier::Full && after.tier == Tier::Sampled) {
                delta.demoted.push_back(to.functions[j]);
            } else if (before.tier == Tier::Sampled &&
                       after.tier == Tier::Sampled &&
                       before.sampling != after.sampling) {
                delta.regated.push_back(to.functions[j]);
            }
            ++i;
            ++j;
        }
    }
    return delta;
}

IcDelta icDiff(const InstrumentationConfig& from, const InstrumentationConfig& to) {
    IcDelta delta;
    std::set_difference(to.functions.begin(), to.functions.end(),
                        from.functions.begin(), from.functions.end(),
                        std::back_inserter(delta.added));
    std::set_difference(from.functions.begin(), from.functions.end(),
                        to.functions.begin(), to.functions.end(),
                        std::back_inserter(delta.removed));
    return delta;
}

}  // namespace capi::select

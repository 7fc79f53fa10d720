#include "obs/export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "scorepsim/profile.hpp"
#include "support/json.hpp"

namespace capi::obs {

namespace {

/// Nanoseconds rendered as a microsecond decimal with exactly 3 fractional
/// digits — deterministic bytes (no %g wobble), full ns resolution.
std::string microsFixed(std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                  ns % 1000);
    return buf;
}

/// A metric value: integers exact, non-integers with shortest %.17g.
std::string metricValue(double v) {
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Splits `capi_foo_total{site="x"}` into family and label-list text.
struct NameParts {
    std::string family;
    std::string labels;  ///< Without braces; empty when unlabeled.
};

NameParts splitName(const std::string& name) {
    std::size_t brace = name.find('{');
    if (brace == std::string::npos) {
        return {name, ""};
    }
    std::string labels = name.substr(brace + 1);
    if (!labels.empty() && labels.back() == '}') {
        labels.pop_back();
    }
    return {name.substr(0, brace), labels};
}

/// Rejoins a family with its labels plus an extra pair (for histogram `le`).
std::string withLabels(const std::string& family, const std::string& labels,
                       const std::string& extra = "") {
    std::string joined = labels;
    if (!extra.empty()) {
        if (!joined.empty()) {
            joined += ",";
        }
        joined += extra;
    }
    if (joined.empty()) {
        return family;
    }
    return family + "{" + joined + "}";
}

}  // namespace

std::string toChromeTraceJson(
    const std::vector<TraceEvent>& events,
    const std::function<std::string(std::uint32_t)>& nameOf) {
    std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : events) {
        if (!first) {
            out += ",";
        }
        first = false;
        out += "\n{\"name\":";
        support::appendJsonString(out, nameOf(e.nameId));
        out += ",\"cat\":\"";
        out += spanCategoryName(e.category);
        out += "\"";
        if (e.instant) {
            out += ",\"ph\":\"i\",\"s\":\"t\"";
        } else {
            out += ",\"ph\":\"X\"";
        }
        out += ",\"ts\":" + microsFixed(e.tsNs);
        if (!e.instant) {
            out += ",\"dur\":" + microsFixed(e.durNs);
        }
        out += ",\"pid\":0,\"tid\":" + std::to_string(e.tid);
        out += ",\"args\":{\"arg\":" + std::to_string(e.arg) + "}}";
    }
    out += "\n]}\n";
    return out;
}

std::string toPrometheusText(const std::vector<Sample>& samples) {
    std::string out;
    std::string lastFamily;
    for (const Sample& s : samples) {
        NameParts parts = splitName(s.name);
        if (parts.family != lastFamily) {
            out += "# TYPE " + parts.family + " ";
            switch (s.kind) {
            case MetricKind::Counter:
                out += "counter";
                break;
            case MetricKind::Gauge:
                out += "gauge";
                break;
            case MetricKind::Histogram:
                out += "histogram";
                break;
            }
            out += "\n";
            lastFamily = parts.family;
        }
        if (s.kind == MetricKind::Histogram) {
            for (const auto& [bound, cumulative] : s.buckets) {
                if (std::isinf(bound)) {
                    continue;  // Covered by the mandatory +Inf line below.
                }
                out += withLabels(parts.family + "_bucket", parts.labels,
                                  "le=\"" + metricValue(bound) + "\"") +
                       " " + std::to_string(cumulative) + "\n";
            }
            out += withLabels(parts.family + "_bucket", parts.labels,
                              "le=\"+Inf\"") +
                   " " + std::to_string(s.count) + "\n";
            out += withLabels(parts.family + "_sum", parts.labels) + " " +
                   metricValue(s.value) + "\n";
            out += withLabels(parts.family + "_count", parts.labels) + " " +
                   std::to_string(s.count) + "\n";
        } else {
            out += s.name + " " + metricValue(s.value) + "\n";
        }
    }
    return out;
}

std::string toCollapsedStacks(
    const scorep::ProfileTree& tree,
    const std::function<std::string(std::uint32_t)>& regionName) {
    std::vector<std::uint64_t> exclusive = tree.exclusiveAll();
    std::vector<std::string> lines;

    // Iterative DFS carrying the semicolon-joined path. The synthetic root
    // is named "root" so its own exclusive time (if any) still shows up.
    struct Frame {
        std::uint32_t node;
        std::string path;
    };
    std::vector<Frame> stack;
    stack.push_back({static_cast<std::uint32_t>(tree.root()), "root"});
    while (!stack.empty()) {
        Frame frame = std::move(stack.back());
        stack.pop_back();
        if (exclusive[frame.node] > 0) {
            lines.push_back(frame.path + " " +
                            std::to_string(exclusive[frame.node]));
        }
        for (std::uint32_t child = tree.firstChild(frame.node);
             child != scorep::ProfileTree::kInvalidNode;
             child = tree.nextSibling(child)) {
            stack.push_back(
                {child, frame.path + ";" + regionName(tree.regionOf(child))});
        }
    }
    // Deterministic output independent of sibling-chain insertion order.
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string& line : lines) {
        out += line;
        out += "\n";
    }
    return out;
}

}  // namespace capi::obs

// MetaCG-compatible JSON serialization of whole-program call graphs.
//
// The on-disk layout follows the MetaCG v2 file format: a `_MetaCG` header
// with version info and a `_CG` object mapping function names to their edges,
// override relations and `meta` blob. Static metrics live under
// `meta.capiMetrics`, where the real pipeline stores tool-specific metadata.
//
// readMetaCg and writeMetaCg hold the format rules: both stream between the
// text and the CallGraph without building a JSON tree. The Json overloads
// are adapters over them.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cg/call_graph.hpp"
#include "support/json.hpp"

namespace capi::cg {

/// Parses MetaCG v2 text into a call graph: one node per `_CG` member in
/// file order, then the call edges and override relations in the same
/// order. `_MetaCG` may come before or after `_CG`.
/// Throws support::Error on malformed JSON (support::ParseError), a missing
/// or unsupported header, a missing `_CG` section, a function listed twice,
/// or an edge to an unknown function.
CallGraph readMetaCg(std::string_view text);

/// Writes the call graph as pretty-printed MetaCG v2 text.
void writeMetaCg(const CallGraph& graph, std::ostream& out);
std::string writeMetaCg(const CallGraph& graph);

/// Tree adapters: Json::parse(writeMetaCg(graph)) and
/// readMetaCg(doc.dump()).
support::Json toMetaCgJson(const CallGraph& graph);
CallGraph fromMetaCgJson(const support::Json& doc);

/// File helpers.
void writeMetaCgFile(const CallGraph& graph, const std::string& path);
CallGraph readMetaCgFile(const std::string& path);

}  // namespace capi::cg

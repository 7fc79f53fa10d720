#include "cg/metacg_json.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <system_error>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace capi::cg {

using support::Json;
using support::JsonReader;

namespace {

// ------------------------------------------------------------------ read ---

using Kind = JsonReader::Kind;

/// A callee or base-method name of one `_CG` member, resolved once every
/// node exists.
struct PendingEdge {
    FunctionId from;
    bool isOverride;
    std::string_view name;
};

/// Streams MetaCG text into a CallGraph. It reads with the leniency of a
/// lookup in a parsed tree: a repeated member's last value wins, a member
/// of the wrong type reads as its default, and members the format does not
/// define are skipped (but still validated). The one exception is a
/// function listed twice, which is rejected.
class MetaCgReader {
public:
    explicit MetaCgReader(std::string_view text) : in_(text) {}

    CallGraph read() {
        if (in_.peek() != Kind::Object) {
            in_.skip();
            in_.finish();
            throw support::Error("MetaCG: missing _MetaCG header");
        }
        in_.beginObject();
        while (std::optional<std::string_view> key = in_.nextMember()) {
            if (*key == "_MetaCG") {
                readHeader();
            } else if (*key == "_CG") {
                readCg();
            } else {
                in_.skip();
            }
        }
        in_.finish();
        if (!version_) {
            throw support::Error("MetaCG: missing _MetaCG header");
        }
        if (*version_ != "2.0") {
            throw support::Error("MetaCG: unsupported version '" + *version_ + "'");
        }
        if (!cgIsObject_) {
            throw support::Error("MetaCG: missing _CG section");
        }
        if (cgError_) {
            throw support::Error(*cgError_);
        }
        resolveEdges();
        return std::move(graph_);
    }

private:
    void readHeader() {
        version_ = "<none>";
        if (in_.peek() != Kind::Object) {
            in_.skip();
            return;
        }
        in_.beginObject();
        while (std::optional<std::string_view> key = in_.nextMember()) {
            if (*key == "version") {
                version_ = readString("<none>");
            } else {
                in_.skip();
            }
        }
    }

    void readCg() {
        // A repeated `_CG` replaces the earlier one.
        graph_ = CallGraph();
        edges_.clear();
        cgError_.reset();
        cgIsObject_ = in_.peek() == Kind::Object;
        if (!cgIsObject_) {
            in_.skip();
            return;
        }
        in_.beginObject();
        while (std::optional<std::string_view> key = in_.nextMember()) {
            readFunction(std::string(*key));
        }
    }

    void readFunction(std::string name) {
        FunctionDesc desc;
        desc.name = std::move(name);
        bool calleesOk = true;
        bool overridesOk = true;
        callees_.clear();
        overrides_.clear();
        if (in_.peek() == Kind::Object) {
            in_.beginObject();
            while (std::optional<std::string_view> key = in_.nextMember()) {
                if (*key == "callees") {
                    calleesOk = readNames(callees_);
                } else if (*key == "overrides") {
                    overridesOk = readNames(overrides_);
                } else if (*key == "hasBody") {
                    desc.flags.hasBody = readBool();
                } else if (*key == "isVirtual") {
                    desc.flags.isVirtual = readBool();
                } else if (*key == "meta") {
                    readMeta(desc);
                } else {
                    in_.skip();
                }
            }
        } else {
            in_.skip();
        }
        if (desc.prettyName.empty()) {
            desc.prettyName = desc.name;
        }
        const std::size_t before = graph_.size();
        const FunctionId id = graph_.addFunction(std::move(desc));
        if (graph_.size() == before) {
            noteError("MetaCG: function '" + graph_.name(id) + "' listed twice");
        }
        if (!calleesOk) {
            noteError("MetaCG: callees of '" + graph_.name(id) +
                      "' are not an array of names");
        }
        if (!overridesOk) {
            noteError("MetaCG: overrides of '" + graph_.name(id) +
                      "' are not an array of names");
        }
        for (std::string_view callee : callees_) {
            edges_.push_back({id, false, callee});
        }
        for (std::string_view base : overrides_) {
            edges_.push_back({id, true, base});
        }
    }

    void readMeta(FunctionDesc& desc) {
        resetMetrics(desc);
        if (in_.peek() != Kind::Object) {
            in_.skip();
            return;
        }
        in_.beginObject();
        while (std::optional<std::string_view> key = in_.nextMember()) {
            if (*key == "capiMetrics") {
                readMetrics(desc);
            } else {
                in_.skip();
            }
        }
    }

    void readMetrics(FunctionDesc& desc) {
        resetMetrics(desc);
        if (in_.peek() != Kind::Object) {
            in_.skip();
            return;
        }
        FunctionMetrics& m = desc.metrics;
        FunctionFlags& f = desc.flags;
        in_.beginObject();
        while (std::optional<std::string_view> key = in_.nextMember()) {
            const std::string_view k = *key;
            if (k == "prettyName") desc.prettyName = readString();
            else if (k == "translationUnit") desc.translationUnit = readString();
            else if (k == "sourceFile") desc.sourceFile = readString();
            else if (k == "line") desc.line = readUint(0);
            else if (k == "signature") desc.signature = readString();
            else if (k == "numStatements") m.numStatements = readUint(0);
            else if (k == "flops") m.flops = readUint(0);
            else if (k == "loopDepth") m.loopDepth = readUint(0);
            else if (k == "cyclomaticComplexity") m.cyclomaticComplexity = readUint(1);
            else if (k == "numCallSites") m.numCallSites = readUint(0);
            else if (k == "numInstructions") m.numInstructions = readUint(0);
            else if (k == "inlineSpecified") f.inlineSpecified = readBool();
            else if (k == "inSystemHeader") f.inSystemHeader = readBool();
            else if (k == "isMpi") f.isMpi = readBool();
            else if (k == "addressTaken") f.addressTaken = readBool();
            else if (k == "hiddenVisibility") f.hiddenVisibility = readBool();
            else in_.skip();
        }
    }

    /// Back to "no capiMetrics": every field the metrics blob sets.
    static void resetMetrics(FunctionDesc& desc) {
        desc.prettyName.clear();
        desc.translationUnit.clear();
        desc.sourceFile.clear();
        desc.line = 0;
        desc.signature.clear();
        desc.metrics = FunctionMetrics{};
        const FunctionFlags flags = desc.flags;
        desc.flags = FunctionFlags{};
        desc.flags.hasBody = flags.hasBody;
        desc.flags.isVirtual = flags.isVirtual;
    }

    /// Replaces `names` with an array of names; false when the value is not
    /// an array of strings.
    bool readNames(std::vector<std::string_view>& names) {
        names.clear();
        if (in_.peek() != Kind::Array) {
            in_.skip();
            return false;
        }
        bool ok = true;
        in_.beginArray();
        while (in_.nextElement()) {
            if (in_.peek() != Kind::String) {
                in_.skip();
                ok = false;
                continue;
            }
            const std::string_view name = in_.string();
            if (in_.inText(name)) {
                names.push_back(name);
            } else {
                // Decoded escapes live in scratch space until the next
                // string; keep a copy that outlives the read.
                names.push_back(decoded_.emplace_back(name));
            }
        }
        return ok;
    }

    std::string readString(std::string_view fallback = {}) {
        if (in_.peek() != Kind::String) {
            in_.skip();
            return std::string(fallback);
        }
        return std::string(in_.string());
    }

    bool readBool() {
        if (in_.peek() != Kind::Bool) {
            in_.skip();
            return false;
        }
        return in_.boolean();
    }

    std::uint32_t readUint(std::uint32_t fallback) {
        if (in_.peek() != Kind::Number) {
            in_.skip();
            return fallback;
        }
        return static_cast<std::uint32_t>(in_.number().asInt());
    }

    /// Structural errors inside `_CG` wait for the end of the document: a
    /// later `_CG` replaces the section they were found in.
    void noteError(std::string message) {
        if (!cgError_) {
            cgError_ = std::move(message);
        }
    }

    void resolveEdges() {
        for (const PendingEdge& edge : edges_) {
            const FunctionId target = graph_.lookup(edge.name);
            if (!edge.isOverride) {
                if (target == kInvalidFunction) {
                    throw support::Error("MetaCG: edge to unknown function '" +
                                         std::string(edge.name) + "'");
                }
                graph_.addCallEdge(edge.from, target);
            } else if (target != kInvalidFunction) {
                graph_.addOverride(target, edge.from);
            }
        }
    }

    JsonReader in_;
    std::optional<std::string> version_;  ///< Unset until `_MetaCG` is read.
    bool cgIsObject_ = false;
    std::optional<std::string> cgError_;
    CallGraph graph_;
    std::vector<PendingEdge> edges_;
    std::vector<std::string_view> callees_;    ///< Of the member being read.
    std::vector<std::string_view> overrides_;  ///< Of the member being read.
    std::deque<std::string> decoded_;          ///< Stable: views point here.
};

// ----------------------------------------------------------------- write ---

/// Emits exactly what Json::dump(true) prints for the MetaCG tree, handing
/// the text to `flush` in chunks.
class MetaCgWriter {
public:
    static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;

    explicit MetaCgWriter(const CallGraph& graph) : graph_(graph) {}

    template <typename Flush>
    void write(Flush&& flush) {
        out_ +=
            "{\n"
            "  \"_MetaCG\": {\n"
            "    \"version\": \"2.0\",\n"
            "    \"generator\": {\n"
            "      \"name\": \"capi-repro\",\n"
            "      \"version\": \"1.0\"\n"
            "    }\n"
            "  },\n"
            "  \"_CG\": ";
        // Removed functions keep their id but lose their name. Like any
        // repeated object key, the empty name is written once: at its first
        // position, with the value of the last node that has it.
        FunctionId firstUnnamed = kInvalidFunction;
        FunctionId lastUnnamed = kInvalidFunction;
        for (FunctionId id = 0; id < graph_.size(); ++id) {
            if (graph_.name(id).empty()) {
                if (firstUnnamed == kInvalidFunction) firstUnnamed = id;
                lastUnnamed = id;
            }
        }
        if (graph_.size() == 0) {
            out_ += "{}";
        } else {
            out_ += '{';
            for (FunctionId id = 0; id < graph_.size(); ++id) {
                FunctionId value = id;
                if (graph_.name(id).empty()) {
                    if (id != firstUnnamed) continue;
                    value = lastUnnamed;
                }
                // Id 0 is always written: named, or the first unnamed.
                if (id > 0) out_ += ',';
                out_ += "\n    ";
                support::appendJsonString(out_, graph_.name(id));
                out_ += ": ";
                function(value);
                if (out_.size() >= kChunkBytes) {
                    flush(out_);
                    out_.clear();
                }
            }
            out_ += "\n  }";
        }
        out_ += "\n}";
        flush(out_);
        out_.clear();
    }

private:
    void function(FunctionId id) {
        const CallGraph::Node& node = graph_.node(id);
        const FunctionDesc& d = node.desc;
        out_ += "{\n      \"callees\": ";
        names(node.callees);
        out_ += ",\n      \"callers\": ";
        names(node.callers);
        out_ += ",\n      \"overrides\": ";
        names(node.overrides);
        out_ += ",\n      \"overriddenBy\": ";
        names(node.overriddenBy);
        member("hasBody", d.flags.hasBody);
        member("isVirtual", d.flags.isVirtual);
        member("doesOverride", !node.overrides.empty());
        out_ +=
            ",\n      \"meta\": {"
            "\n        \"capiMetrics\": {"
            "\n          \"prettyName\": ";
        support::appendJsonString(out_, d.prettyName);
        metric("translationUnit", d.translationUnit);
        metric("sourceFile", d.sourceFile);
        metric("line", d.line);
        metric("signature", d.signature);
        metric("numStatements", d.metrics.numStatements);
        metric("flops", d.metrics.flops);
        metric("loopDepth", d.metrics.loopDepth);
        metric("cyclomaticComplexity", d.metrics.cyclomaticComplexity);
        metric("numCallSites", d.metrics.numCallSites);
        metric("numInstructions", d.metrics.numInstructions);
        metric("inlineSpecified", d.flags.inlineSpecified);
        metric("inSystemHeader", d.flags.inSystemHeader);
        metric("isMpi", d.flags.isMpi);
        metric("addressTaken", d.flags.addressTaken);
        metric("hiddenVisibility", d.flags.hiddenVisibility);
        out_ += "\n        }\n      }\n    }";
    }

    void names(const std::vector<FunctionId>& ids) {
        if (ids.empty()) {
            out_ += "[]";
            return;
        }
        out_ += '[';
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (i > 0) out_ += ',';
            out_ += "\n        ";
            support::appendJsonString(out_, graph_.name(ids[i]));
        }
        out_ += "\n      ]";
    }

    /// `,\n<indent>"key": ` then the value.
    void key(std::string_view indent, std::string_view name) {
        out_ += ",\n";
        out_ += indent;
        out_ += '"';
        out_ += name;
        out_ += "\": ";
    }

    void value(bool v) { out_ += v ? "true" : "false"; }
    void value(std::uint32_t v) { out_ += std::to_string(v); }
    void value(const std::string& v) { support::appendJsonString(out_, v); }

    template <typename T>
    void member(std::string_view name, const T& v) {
        key("      ", name);
        value(v);
    }

    template <typename T>
    void metric(std::string_view name, const T& v) {
        key("          ", name);
        value(v);
    }

    const CallGraph& graph_;
    std::string out_;
};

}  // namespace

CallGraph readMetaCg(std::string_view text) { return MetaCgReader(text).read(); }

void writeMetaCg(const CallGraph& graph, std::ostream& out) {
    MetaCgWriter(graph).write([&out](const std::string& chunk) {
        out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    });
}

std::string writeMetaCg(const CallGraph& graph) {
    std::string text;
    MetaCgWriter(graph).write([&text](const std::string& chunk) { text += chunk; });
    return text;
}

Json toMetaCgJson(const CallGraph& graph) { return Json::parse(writeMetaCg(graph)); }

CallGraph fromMetaCgJson(const Json& doc) { return readMetaCg(doc.dump()); }

void writeMetaCgFile(const CallGraph& graph, const std::string& path) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw support::Error("cannot open for writing: " + path);
    }
    writeMetaCg(graph, out);
    out.flush();
    if (!out) {
        throw support::Error("cannot write: " + path);
    }
}

namespace {

/// Closes the descriptor on every way out of readMetaCgFile.
class FdCloser {
public:
    explicit FdCloser(int fd) : fd_(fd) {}
    ~FdCloser() { ::close(fd_); }
    FdCloser(const FdCloser&) = delete;
    FdCloser& operator=(const FdCloser&) = delete;

private:
    int fd_;
};

[[noreturn]] void throwFileError(const char* what, const std::string& path, int err) {
    throw support::Error(std::string(what) + path + ": " +
                         std::system_category().message(err));
}

}  // namespace

CallGraph readMetaCgFile(const std::string& path) {
    // One read() loop until EOF: a pipe or FIFO has no size to read up
    // front, a directory fails in read() with its own error, and a file
    // that grew since fstat() is still read whole. fstat()'s size only
    // sizes the first buffer, which is not zero-filled. No mmap: a file
    // truncated under a mapping raises SIGBUS instead of an error.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        throwFileError("cannot open for reading: ", path, errno);
    }
    const FdCloser closer(fd);
    struct stat info {};
    std::size_t capacity = std::size_t{1} << 16;
    if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
        // One spare byte, so the read that sees EOF needs no growth.
        capacity = static_cast<std::size_t>(info.st_size) + 1;
    }
    auto buffer = std::make_unique_for_overwrite<char[]>(capacity);
    std::size_t size = 0;
    while (true) {
        if (size == capacity) {
            auto grown = std::make_unique_for_overwrite<char[]>(2 * capacity);
            std::memcpy(grown.get(), buffer.get(), size);
            buffer = std::move(grown);
            capacity *= 2;
        }
        const ssize_t got = ::read(fd, buffer.get() + size, capacity - size);
        if (got == 0) {
            break;
        }
        if (got < 0) {
            if (errno == EINTR) {
                continue;
            }
            throwFileError("cannot read: ", path, errno);
        }
        size += static_cast<std::size_t>(got);
    }
    return readMetaCg(std::string_view(buffer.get(), size));
}

}  // namespace capi::cg

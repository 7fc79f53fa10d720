// Minimal JSON pull reader, value model and writer.
//
// Used for the MetaCG-style call-graph interchange format and for IC files.
// Supports the JSON subset needed there: null, bool, integers, doubles,
// strings with escapes, arrays and objects. Object member order is preserved
// so emitted files diff cleanly.
//
// JsonReader is the one lexer: Json::parse builds its value tree on top of
// it, and large documents (MetaCG call graphs) are read straight into their
// own data structures without a tree.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace capi::support {

class Json;

/// Pull reader over one JSON document held in caller-owned text.
///
/// The caller walks the document: peek() names the next value's kind, and
/// exactly one of the value calls (string/number/boolean/null/beginObject/
/// beginArray/skip) consumes it. Inside an object, nextMember() yields each
/// key and leaves the reader at its value; inside an array, nextElement()
/// does the same for each element. Both return false once they have
/// consumed the closing bracket. Everything the walk passes over — skipped
/// values included — is fully validated, so a reader that reaches finish()
/// has accepted exactly the documents Json::parse accepts.
///
/// Strings are returned as views into the text; only strings with escapes
/// are decoded, into scratch space that the next key (for keys) or the next
/// string value (for values) overwrites. inText() tells the two apart.
/// Malformed input throws ParseError with the line and column of the
/// offending byte, worked out from its offset only when reading fails.
class JsonReader {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /// A JSON number: integers are kept exact, anything else is a double.
    struct Number {
        bool isInt = true;
        std::int64_t intValue = 0;
        double doubleValue = 0.0;

        /// The value as an integer; doubles truncate toward zero and
        /// saturate at the int64 range (NaN reads as 0).
        std::int64_t asInt() const;
    };

    explicit JsonReader(std::string_view text) : text_(text) {}

    /// Kind of the next value; throws at the end of the input.
    Kind peek();

    void beginObject();
    /// Next member's key, or nullopt after consuming the closing '}'.
    std::optional<std::string_view> nextMember();
    void beginArray();
    /// True when another element follows; false after consuming ']'.
    bool nextElement();

    std::string_view string();
    Number number();
    bool boolean();
    void null();
    /// Consumes (and validates) the next value, however deeply nested.
    void skip();
    /// Requires that only whitespace remains after the document.
    void finish();

    /// True when `s` views the input text rather than scratch space, i.e.
    /// it stays valid as long as the text does.
    bool inText(std::string_view s) const;

private:
    [[noreturn]] void fail(const std::string& message) const;
    void skipWhitespace();
    char next();
    void expect(char c);
    void enter(char bracket);
    bool consumeKeyword(std::string_view keyword);
    std::string_view readString(std::string* scratch);

    std::string_view text_;
    std::size_t pos_ = 0;
    /// Open containers, innermost last ('{' or '['); bounded by the
    /// nesting limit.
    std::string open_;
    /// Set by begin*(): the container has yielded nothing yet.
    bool first_ = false;
    std::string keyScratch_;
    std::string valueScratch_;
};

/// Object representation: insertion-ordered key/value list with a side index
/// for O(log n) lookup.
class JsonObject {
public:
    using Member = std::pair<std::string, Json>;

    Json& operator[](const std::string& key);
    const Json* find(std::string_view key) const;
    bool contains(std::string_view key) const { return find(key) != nullptr; }
    std::size_t size() const noexcept { return members_.size(); }
    bool empty() const noexcept { return members_.empty(); }

    auto begin() const { return members_.begin(); }
    auto end() const { return members_.end(); }
    auto begin() { return members_.begin(); }
    auto end() { return members_.end(); }

private:
    std::vector<Member> members_;
    std::map<std::string, std::size_t, std::less<>> index_;
};

/// A JSON value. Integers and doubles are kept distinct so that function IDs
/// and counters round-trip exactly.
class Json {
public:
    enum class Type { Null, Bool, Int, Double, String, Array, Object };

    using Array = std::vector<Json>;

    Json() : type_(Type::Null) {}
    Json(std::nullptr_t) : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(unsigned v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
    Json(std::int64_t v) : type_(Type::Int), int_(v) {}
    Json(std::uint64_t v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
    Json(double v) : type_(Type::Double), double_(v) {}
    Json(const char* s) : type_(Type::String), string_(s) {}
    Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
    Json(std::string_view s) : type_(Type::String), string_(s) {}
    Json(Array a) : type_(Type::Array), array_(std::make_shared<Array>(std::move(a))) {}
    Json(JsonObject o)
        : type_(Type::Object), object_(std::make_shared<JsonObject>(std::move(o))) {}

    static Json array() { return Json(Array{}); }
    static Json object() { return Json(JsonObject{}); }

    Type type() const noexcept { return type_; }
    bool isNull() const noexcept { return type_ == Type::Null; }
    bool isBool() const noexcept { return type_ == Type::Bool; }
    bool isInt() const noexcept { return type_ == Type::Int; }
    bool isDouble() const noexcept { return type_ == Type::Double; }
    bool isNumber() const noexcept { return isInt() || isDouble(); }
    bool isString() const noexcept { return type_ == Type::String; }
    bool isArray() const noexcept { return type_ == Type::Array; }
    bool isObject() const noexcept { return type_ == Type::Object; }

    bool asBool() const;
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string& asString() const;
    const Array& asArray() const;
    Array& asArray();
    const JsonObject& asObject() const;
    JsonObject& asObject();

    /// Object member access; creates the member (as null) on mutable access.
    Json& operator[](const std::string& key);
    /// Lookup without creation; returns nullptr when absent or not an object.
    const Json* find(std::string_view key) const;

    /// Convenience typed getters with defaults for optional members.
    std::int64_t getInt(std::string_view key, std::int64_t def) const;
    bool getBool(std::string_view key, bool def) const;
    std::string getString(std::string_view key, const std::string& def) const;

    void push_back(Json v);

    /// Serialize. Pretty output uses two-space indentation.
    std::string dump(bool pretty = false) const;

    /// Parse a complete JSON document; trailing non-space input is an error.
    static Json parse(std::string_view text);

private:
    void writeTo(std::string& out, bool pretty, int indent) const;

    Type type_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::shared_ptr<Array> array_;
    std::shared_ptr<JsonObject> object_;
};

/// Appends `s` as a quoted, escaped JSON string (the writer's escaping).
void appendJsonString(std::string& out, std::string_view s);

}  // namespace capi::support

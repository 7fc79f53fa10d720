#include "support/json.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>

namespace capi::support {

Json& JsonObject::operator[](const std::string& key) {
    auto it = index_.find(key);
    if (it != index_.end()) {
        return members_[it->second].second;
    }
    index_.emplace(key, members_.size());
    members_.emplace_back(key, Json());
    return members_.back().second;
}

const Json* JsonObject::find(std::string_view key) const {
    auto it = index_.find(key);
    if (it == index_.end()) {
        return nullptr;
    }
    return &members_[it->second].second;
}

namespace {

[[noreturn]] void typeError(const char* expected) {
    throw Error(std::string("JSON value is not ") + expected);
}

}  // namespace

bool Json::asBool() const {
    if (!isBool()) typeError("a bool");
    return bool_;
}

std::int64_t Json::asInt() const {
    if (isInt()) return int_;
    if (isDouble()) return JsonReader::Number{false, 0, double_}.asInt();
    typeError("a number");
}

double Json::asDouble() const {
    if (isDouble()) return double_;
    if (isInt()) return static_cast<double>(int_);
    typeError("a number");
}

const std::string& Json::asString() const {
    if (!isString()) typeError("a string");
    return string_;
}

const Json::Array& Json::asArray() const {
    if (!isArray()) typeError("an array");
    return *array_;
}

Json::Array& Json::asArray() {
    if (!isArray()) typeError("an array");
    return *array_;
}

const JsonObject& Json::asObject() const {
    if (!isObject()) typeError("an object");
    return *object_;
}

JsonObject& Json::asObject() {
    if (!isObject()) typeError("an object");
    return *object_;
}

Json& Json::operator[](const std::string& key) {
    if (isNull()) {
        type_ = Type::Object;
        object_ = std::make_shared<JsonObject>();
    }
    return asObject()[key];
}

const Json* Json::find(std::string_view key) const {
    if (!isObject()) return nullptr;
    return object_->find(key);
}

std::int64_t Json::getInt(std::string_view key, std::int64_t def) const {
    const Json* v = find(key);
    return (v != nullptr && v->isNumber()) ? v->asInt() : def;
}

bool Json::getBool(std::string_view key, bool def) const {
    const Json* v = find(key);
    return (v != nullptr && v->isBool()) ? v->asBool() : def;
}

std::string Json::getString(std::string_view key, const std::string& def) const {
    const Json* v = find(key);
    return (v != nullptr && v->isString()) ? v->asString() : def;
}

void Json::push_back(Json v) {
    if (isNull()) {
        type_ = Type::Array;
        array_ = std::make_shared<Array>();
    }
    asArray().push_back(std::move(v));
}

void appendJsonString(std::string& out, std::string_view s) {
    out.push_back('"');
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

namespace {

void indentTo(std::string& out, int indent) {
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

}  // namespace

void Json::writeTo(std::string& out, bool pretty, int indent) const {
    switch (type_) {
        case Type::Null: out += "null"; break;
        case Type::Bool: out += bool_ ? "true" : "false"; break;
        case Type::Int: out += std::to_string(int_); break;
        case Type::Double: {
            if (std::isfinite(double_)) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.17g", double_);
                out += buf;
            } else {
                out += "null";  // JSON has no Inf/NaN; degrade gracefully.
            }
            break;
        }
        case Type::String: appendJsonString(out, string_); break;
        case Type::Array: {
            const Array& a = *array_;
            if (a.empty()) {
                out += "[]";
                break;
            }
            out.push_back('[');
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (i > 0) out.push_back(',');
                if (pretty) {
                    out.push_back('\n');
                    indentTo(out, indent + 1);
                }
                a[i].writeTo(out, pretty, indent + 1);
            }
            if (pretty) {
                out.push_back('\n');
                indentTo(out, indent);
            }
            out.push_back(']');
            break;
        }
        case Type::Object: {
            const JsonObject& o = *object_;
            if (o.empty()) {
                out += "{}";
                break;
            }
            out.push_back('{');
            bool first = true;
            for (const auto& [key, value] : o) {
                if (!first) out.push_back(',');
                first = false;
                if (pretty) {
                    out.push_back('\n');
                    indentTo(out, indent + 1);
                }
                appendJsonString(out, key);
                out.push_back(':');
                if (pretty) out.push_back(' ');
                value.writeTo(out, pretty, indent + 1);
            }
            if (pretty) {
                out.push_back('\n');
                indentTo(out, indent);
            }
            out.push_back('}');
            break;
        }
    }
}

std::string Json::dump(bool pretty) const {
    std::string out;
    writeTo(out, pretty, 0);
    return out;
}

namespace {

/// Deepest object/array nesting a document may use. The reader itself keeps
/// no recursion, but Json::parse builds its tree recursively, so hostile
/// input such as a multi-megabyte run of '[' fails with a ParseError here
/// instead of overflowing the stack. Real MetaCG documents nest a handful of
/// levels.
constexpr std::size_t kMaxNestingDepth = 512;

bool isJsonSpace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

/// How many of the 8 bytes at `p` lead with ' ' (8 when all do): pretty-
/// printed documents indent with runs of spaces, taken a word at a time.
std::size_t leadingSpaces(const char* p) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    const std::uint64_t diff = word ^ 0x2020202020202020ULL;
    if (diff == 0) return 8;
    if constexpr (std::endian::native == std::endian::little) {
        return static_cast<std::size_t>(std::countr_zero(diff)) / 8;
    } else {
        return static_cast<std::size_t>(std::countl_zero(diff)) / 8;
    }
}

}  // namespace

std::int64_t JsonReader::Number::asInt() const {
    if (isInt) return intValue;
    constexpr double kLimit = 9223372036854775808.0;  // 2^63
    if (std::isnan(doubleValue)) return 0;
    if (doubleValue >= kLimit) return std::numeric_limits<std::int64_t>::max();
    if (doubleValue < -kLimit) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(doubleValue);
}

void JsonReader::fail(const std::string& message) const {
    // Line and column of the current byte: counted here, on the error path,
    // rather than tracked on every character of a successful read.
    const std::string_view before = text_.substr(0, pos_);
    const std::size_t lastNewline = before.rfind('\n');
    const auto line = 1 + std::count(before.begin(), before.end(), '\n');
    const std::size_t column =
        lastNewline == std::string_view::npos ? pos_ + 1 : pos_ - lastNewline;
    throw ParseError("JSON: " + message, static_cast<int>(line),
                     static_cast<int>(column));
}

void JsonReader::skipWhitespace() {
    const std::size_t size = text_.size();
    while (pos_ < size && isJsonSpace(text_[pos_])) {
        ++pos_;
        while (size - pos_ >= 8) {
            const std::size_t spaces = leadingSpaces(text_.data() + pos_);
            pos_ += spaces;
            if (spaces < 8) break;
        }
    }
}

char JsonReader::next() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
}

void JsonReader::expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
        fail(std::string("expected '") + c + "'");
    }
    ++pos_;
}

void JsonReader::enter(char bracket) {
    skipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == bracket &&
        open_.size() == kMaxNestingDepth) {
        fail("nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels");
    }
    expect(bracket);
    open_.push_back(bracket);
    first_ = true;
}

bool JsonReader::consumeKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) return false;
    pos_ += keyword.size();
    return true;
}

JsonReader::Kind JsonReader::peek() {
    skipWhitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    switch (text_[pos_]) {
        case '{': return Kind::Object;
        case '[': return Kind::Array;
        case '"': return Kind::String;
        case 't':
        case 'f': return Kind::Bool;
        case 'n': return Kind::Null;
        default: return Kind::Number;
    }
}

void JsonReader::beginObject() { enter('{'); }

void JsonReader::beginArray() { enter('['); }

std::optional<std::string_view> JsonReader::nextMember() {
    skipWhitespace();
    const char c = next();
    if (c == '}') {
        open_.pop_back();
        first_ = false;
        return std::nullopt;
    }
    if (first_) {
        --pos_;  // The first member has no separator.
        first_ = false;
    } else if (c != ',') {
        fail("expected ',' or '}' in object");
    }
    skipWhitespace();
    std::string_view key = readString(&keyScratch_);
    skipWhitespace();
    expect(':');
    return key;
}

bool JsonReader::nextElement() {
    skipWhitespace();
    const char c = next();
    if (c == ']') {
        open_.pop_back();
        first_ = false;
        return false;
    }
    if (first_) {
        --pos_;
        first_ = false;
    } else if (c != ',') {
        fail("expected ',' or ']' in array");
    }
    return true;
}

std::string_view JsonReader::string() {
    skipWhitespace();
    return readString(&valueScratch_);
}

std::string_view JsonReader::readString(std::string* scratch) {
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected string");
    const std::size_t start = ++pos_;
    // Fast path: no backslash before the closing quote, so the text itself
    // is the value.
    const char* begin = text_.data() + start;
    const std::size_t rest = text_.size() - start;
    const auto* quote = static_cast<const char*>(std::memchr(begin, '"', rest));
    const std::size_t span = quote != nullptr ? static_cast<std::size_t>(quote - begin) : rest;
    const auto* backslash = static_cast<const char*>(std::memchr(begin, '\\', span));
    if (backslash == nullptr) {
        pos_ = start + span;
        if (quote == nullptr) fail("unexpected end of input");
        ++pos_;
        return text_.substr(start, span);
    }
    pos_ = start + static_cast<std::size_t>(backslash - begin);
    // Escapes: decode into scratch space (validate only, when skipping).
    if (scratch != nullptr) scratch->assign(text_.substr(start, pos_ - start));
    auto put = [scratch](char ch) {
        if (scratch != nullptr) scratch->push_back(ch);
    };
    while (true) {
        const char c = next();
        if (c == '"') break;
        if (c != '\\') {
            put(c);
            continue;
        }
        const char esc = next();
        switch (esc) {
            case '"': put('"'); break;
            case '\\': put('\\'); break;
            case '/': put('/'); break;
            case 'n': put('\n'); break;
            case 't': put('\t'); break;
            case 'r': put('\r'); break;
            case 'b': put('\b'); break;
            case 'f': put('\f'); break;
            case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = next();
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        fail("invalid \\u escape");
                    }
                }
                // Encode as UTF-8 (basic multilingual plane only).
                if (code < 0x80) {
                    put(static_cast<char>(code));
                } else if (code < 0x800) {
                    put(static_cast<char>(0xC0 | (code >> 6)));
                    put(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    put(static_cast<char>(0xE0 | (code >> 12)));
                    put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    put(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default: fail("invalid escape sequence");
        }
    }
    return scratch != nullptr ? std::string_view(*scratch) : std::string_view();
}

JsonReader::Number JsonReader::number() {
    skipWhitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool isDouble = false;
    while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '+') {
            ++pos_;
        } else if (c == '.' || c == 'e' || c == 'E') {
            isDouble = true;
            ++pos_;
        } else {
            break;
        }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty()) fail("expected number");
    const char* end = tok.data() + tok.size();
    Number value;
    if (!isDouble) {
        auto [ptr, ec] = std::from_chars(tok.data(), end, value.intValue);
        if (ec == std::errc() && ptr == end) return value;
    }
    value.isInt = false;
    auto [ptr, ec] = std::from_chars(tok.data(), end, value.doubleValue);
    if (ec != std::errc() || ptr != end) fail("malformed number");
    return value;
}

bool JsonReader::boolean() {
    skipWhitespace();
    if (consumeKeyword("true")) return true;
    if (consumeKeyword("false")) return false;
    fail("invalid keyword");
}

void JsonReader::null() {
    skipWhitespace();
    if (!consumeKeyword("null")) fail("invalid keyword");
}

void JsonReader::skip() {
    const std::size_t floor = open_.size();
    do {
        if (open_.size() > floor) {
            // Inside a container this call opened: step to its next value,
            // or close it.
            const bool more =
                open_.back() == '{' ? nextMember().has_value() : nextElement();
            if (!more) continue;
        }
        switch (peek()) {
            case Kind::Object: beginObject(); break;
            case Kind::Array: beginArray(); break;
            case Kind::String: readString(nullptr); break;
            case Kind::Number: number(); break;
            case Kind::Bool: boolean(); break;
            case Kind::Null: null(); break;
        }
    } while (open_.size() > floor);
}

void JsonReader::finish() {
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
}

bool JsonReader::inText(std::string_view s) const {
    const std::less_equal<const char*> le;
    return le(text_.data(), s.data()) &&
           le(s.data() + s.size(), text_.data() + text_.size());
}

namespace {

/// Json::parse's tree builder; recursion is bounded by the reader's nesting
/// limit.
Json buildValue(JsonReader& in) {
    switch (in.peek()) {
        case JsonReader::Kind::Object: {
            in.beginObject();
            JsonObject obj;
            while (std::optional<std::string_view> key = in.nextMember()) {
                // Copy the key first: nested keys reuse its scratch space.
                std::string name(*key);
                Json value = buildValue(in);
                obj[name] = std::move(value);
            }
            return Json(std::move(obj));
        }
        case JsonReader::Kind::Array: {
            in.beginArray();
            Json::Array arr;
            while (in.nextElement()) arr.push_back(buildValue(in));
            return Json(std::move(arr));
        }
        case JsonReader::Kind::String: return Json(in.string());
        case JsonReader::Kind::Number: {
            const JsonReader::Number n = in.number();
            return n.isInt ? Json(n.intValue) : Json(n.doubleValue);
        }
        case JsonReader::Kind::Bool: return Json(in.boolean());
        case JsonReader::Kind::Null: in.null(); return Json(nullptr);
    }
    return Json();
}

}  // namespace

Json Json::parse(std::string_view text) {
    JsonReader in(text);
    Json doc = buildValue(in);
    in.finish();
    return doc;
}

}  // namespace capi::support

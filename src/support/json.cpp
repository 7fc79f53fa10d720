#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

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
    if (isDouble()) return static_cast<std::int64_t>(double_);
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

double Json::getDouble(std::string_view key, double def) const {
    const Json* v = find(key);
    return (v != nullptr && v->isNumber()) ? v->asDouble() : def;
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

namespace {

void writeEscaped(std::string& out, const std::string& s) {
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
        case Type::String: writeEscaped(out, string_); break;
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
                writeEscaped(out, key);
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

/// Deepest object/array nesting a document may use. Each level costs two
/// stack frames (parseValue + parseObject/parseArray), so hostile input such
/// as a multi-megabyte run of '[' fails with a ParseError here instead of
/// overflowing the stack. Real MetaCG documents nest a handful of levels.
constexpr int kMaxNestingDepth = 512;

/// Hand-written recursive-descent JSON parser with line/column diagnostics.
class JsonParser {
public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    Json parseDocument() {
        Json v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw ParseError("JSON: " + message, line_, column_);
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char peek() const {
        if (atEnd()) fail("unexpected end of input");
        return text_[pos_];
    }

    char advance() {
        char c = peek();
        ++pos_;
        if (c == '\n') {
            ++line_;
            column_ = 1;
        } else {
            ++column_;
        }
        return c;
    }

    void expect(char c) {
        if (atEnd() || peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        advance();
    }

    void skipWhitespace() {
        while (!atEnd()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                advance();
            } else {
                break;
            }
        }
    }

    bool consumeKeyword(std::string_view kw) {
        if (text_.substr(pos_, kw.size()) == kw) {
            for (std::size_t i = 0; i < kw.size(); ++i) advance();
            return true;
        }
        return false;
    }

    Json parseValue() {
        skipWhitespace();
        char c = peek();
        switch (c) {
            case '{':
            case '[': {
                // An exception abandons the whole parse, so the level is
                // only released on the success path.
                if (depth_ == kMaxNestingDepth) {
                    fail("nesting deeper than " +
                         std::to_string(kMaxNestingDepth) + " levels");
                }
                ++depth_;
                Json nested = c == '{' ? parseObject() : parseArray();
                --depth_;
                return nested;
            }
            case '"': return Json(parseString());
            case 't':
                if (consumeKeyword("true")) return Json(true);
                fail("invalid keyword");
            case 'f':
                if (consumeKeyword("false")) return Json(false);
                fail("invalid keyword");
            case 'n':
                if (consumeKeyword("null")) return Json(nullptr);
                fail("invalid keyword");
            default: return parseNumber();
        }
    }

    Json parseObject() {
        expect('{');
        JsonObject obj;
        skipWhitespace();
        if (peek() == '}') {
            advance();
            return Json(std::move(obj));
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj[key] = parseValue();
            skipWhitespace();
            char c = advance();
            if (c == '}') break;
            if (c != ',') fail("expected ',' or '}' in object");
        }
        return Json(std::move(obj));
    }

    Json parseArray() {
        expect('[');
        Json::Array arr;
        skipWhitespace();
        if (peek() == ']') {
            advance();
            return Json(std::move(arr));
        }
        while (true) {
            arr.push_back(parseValue());
            skipWhitespace();
            char c = advance();
            if (c == ']') break;
            if (c != ',') fail("expected ',' or ']' in array");
        }
        return Json(std::move(arr));
    }

    std::string parseString() {
        if (peek() != '"') fail("expected string");
        advance();
        std::string out;
        while (true) {
            char c = advance();
            if (c == '"') break;
            if (c == '\\') {
                char esc = advance();
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'n': out.push_back('\n'); break;
                    case 't': out.push_back('\t'); break;
                    case 'r': out.push_back('\r'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'u': {
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            char h = advance();
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
                            out.push_back(static_cast<char>(code));
                        } else if (code < 0x800) {
                            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                        } else {
                            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                        }
                        break;
                    }
                    default: fail("invalid escape sequence");
                }
            } else {
                out.push_back(c);
            }
        }
        return out;
    }

    Json parseNumber() {
        std::size_t start = pos_;
        if (!atEnd() && (peek() == '-' || peek() == '+')) advance();
        bool isDouble = false;
        while (!atEnd()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
                advance();
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
                if (c == '.' || c == 'e' || c == 'E') isDouble = true;
                advance();
            } else {
                break;
            }
        }
        std::string_view tok = text_.substr(start, pos_ - start);
        if (tok.empty()) fail("expected number");
        if (!isDouble) {
            std::int64_t value = 0;
            auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
            if (ec == std::errc() && ptr == tok.data() + tok.size()) {
                return Json(value);
            }
        }
        double value = 0.0;
        auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
        if (ec != std::errc() || ptr != tok.data() + tok.size()) {
            fail("malformed number");
        }
        return Json(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int column_ = 1;
    int depth_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return JsonParser(text).parseDocument(); }

}  // namespace capi::support

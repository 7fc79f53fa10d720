#include "spec/parser.hpp"

#include <unordered_set>

#include "spec/lexer.hpp"
#include "support/error.hpp"

namespace capi::spec {

namespace {

/// Deepest selector-call nesting a spec may use. parseExpr/parseCall recurse
/// once per level, so without a bound a hostile spec of a few hundred
/// thousand nested calls overflows the stack; real specs nest a few levels.
constexpr int kMaxNestingDepth = 256;

/// State shared by one parseSpec call and every module it imports.
struct ParseState {
    SpecAst ast;
    std::unordered_set<std::string> importStack;
    std::unordered_set<std::string> importedModules;
    /// Names defined so far, imported modules included: a duplicate check
    /// costs one lookup, not a scan of every earlier definition.
    std::unordered_set<std::string> definedNames;
};

class Parser {
public:
    Parser(std::string_view text, const ModuleResolver* resolver)
        : tokens_(tokenize(text)), resolver_(resolver) {}

    void parseInto(ParseState& state, const std::string& moduleName) {
        while (!check(TokenKind::EndOfInput)) {
            if (check(TokenKind::Directive)) {
                parseDirective(state);
                continue;
            }
            parseDefinition(state, moduleName);
        }
    }

private:
    const Token& current() const { return tokens_[pos_]; }

    const Token& lookahead(std::size_t n) const {
        std::size_t idx = pos_ + n;
        return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
    }

    bool check(TokenKind kind) const { return current().kind == kind; }

    Token consume() { return tokens_[pos_++]; }

    [[noreturn]] void fail(const std::string& message, const Token& at) const {
        throw support::ParseError("spec: " + message + ", got " +
                                      tokenKindName(at.kind),
                                  at.line, at.column);
    }

    Token expect(TokenKind kind, const char* what) {
        if (!check(kind)) {
            fail(std::string("expected ") + what, current());
        }
        return consume();
    }

    void parseDirective(ParseState& state) {
        Token directive = consume();
        if (directive.text != "import") {
            fail("unknown directive '!" + directive.text + "'", directive);
        }
        expect(TokenKind::LParen, "'('");
        Token module = expect(TokenKind::String, "module name string");
        expect(TokenKind::RParen, "')'");

        if (state.importedModules.contains(module.text)) {
            return;  // Idempotent: a module is expanded once.
        }
        if (state.importStack.contains(module.text)) {
            throw support::ParseError("spec: import cycle through '" + module.text + "'",
                                      module.line, module.column);
        }
        if (resolver_ == nullptr) {
            throw support::ParseError("spec: imports not allowed here ('" +
                                          module.text + "')",
                                      module.line, module.column);
        }
        std::optional<std::string> text = resolver_->resolve(module.text);
        if (!text.has_value()) {
            throw support::ParseError("spec: cannot resolve module '" + module.text + "'",
                                      module.line, module.column);
        }
        state.importStack.insert(module.text);
        Parser nested(*text, resolver_);
        nested.parseInto(state, module.text);
        state.importStack.erase(module.text);
        state.importedModules.insert(module.text);
    }

    void parseDefinition(ParseState& state, const std::string& moduleName) {
        Definition def;
        def.sourceModule = moduleName;
        if (check(TokenKind::Identifier) && lookahead(1).kind == TokenKind::Equals) {
            def.name = consume().text;  // identifier
            consume();                  // '='
            if (!state.definedNames.insert(def.name).second) {
                fail("duplicate definition of '" + def.name + "'", current());
            }
        }
        def.expr = parseExpr();
        state.ast.definitions.push_back(std::move(def));
    }

    ExprPtr parseExpr() {
        const Token& tok = current();
        switch (tok.kind) {
            case TokenKind::Identifier: return parseCall();
            case TokenKind::Reference: {
                Token t = consume();
                auto e = std::make_unique<Expr>();
                e->kind = Expr::Kind::Ref;
                e->value = t.text;
                e->line = t.line;
                e->column = t.column;
                return e;
            }
            case TokenKind::Everything: {
                Token t = consume();
                auto e = std::make_unique<Expr>();
                e->kind = Expr::Kind::Everything;
                e->line = t.line;
                e->column = t.column;
                return e;
            }
            case TokenKind::String: {
                Token t = consume();
                auto e = std::make_unique<Expr>();
                e->kind = Expr::Kind::String;
                e->value = t.text;
                e->line = t.line;
                e->column = t.column;
                return e;
            }
            case TokenKind::Number: {
                Token t = consume();
                auto e = std::make_unique<Expr>();
                e->kind = Expr::Kind::Number;
                e->number = t.number;
                e->line = t.line;
                e->column = t.column;
                return e;
            }
            default: fail("expected expression", tok);
        }
    }

    ExprPtr parseCall() {
        if (depth_ == kMaxNestingDepth) {
            fail("selector calls nested deeper than " +
                     std::to_string(kMaxNestingDepth) + " levels",
                 current());
        }
        // An exception abandons the whole parse, so the level is only
        // released on the success path.
        ++depth_;
        Token name = consume();
        ExprPtr call = Expr::makeCall(name.text, name.line, name.column);
        expect(TokenKind::LParen, "'(' after selector name");
        if (!check(TokenKind::RParen)) {
            while (true) {
                call->args.push_back(parseExpr());
                if (check(TokenKind::Comma)) {
                    consume();
                    continue;
                }
                break;
            }
        }
        expect(TokenKind::RParen, "')'");
        --depth_;
        return call;
    }

    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    int depth_ = 0;  ///< Selector calls currently open in parseCall.
    const ModuleResolver* resolver_;
};

SpecAst parse(std::string_view text, const ModuleResolver* resolver) {
    ParseState state;
    Parser(text, resolver).parseInto(state, "");
    if (state.ast.definitions.empty()) {
        throw support::Error("spec: no selector definitions");
    }
    return std::move(state.ast);
}

}  // namespace

SpecAst parseSpec(std::string_view text, const ModuleResolver& resolver) {
    return parse(text, &resolver);
}

SpecAst parseSpec(std::string_view text) { return parse(text, nullptr); }

}  // namespace capi::spec

// Unit tests for the selection DSL: lexer, parser, imports, diagnostics.
#include <gtest/gtest.h>

#include <string>

#include "spec/lexer.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"

namespace {

using namespace capi;
using spec::Expr;
using spec::TokenKind;

// ------------------------------------------------------------------ lexer --

TEST(Lexer, TokenizesListing1Shapes) {
    auto tokens = spec::tokenize(
        "kernels = flops(\">=\", 10, loopDepth(\">=\", 1, %%))");
    std::vector<TokenKind> kinds;
    for (const auto& t : tokens) kinds.push_back(t.kind);
    EXPECT_EQ(kinds,
              (std::vector<TokenKind>{
                  TokenKind::Identifier, TokenKind::Equals, TokenKind::Identifier,
                  TokenKind::LParen, TokenKind::String, TokenKind::Comma,
                  TokenKind::Number, TokenKind::Comma, TokenKind::Identifier,
                  TokenKind::LParen, TokenKind::String, TokenKind::Comma,
                  TokenKind::Number, TokenKind::Comma, TokenKind::Everything,
                  TokenKind::RParen, TokenKind::RParen, TokenKind::EndOfInput}));
}

TEST(Lexer, References) {
    auto tokens = spec::tokenize("join(%kernels, %mpi_comm)");
    EXPECT_EQ(tokens[2].kind, TokenKind::Reference);
    EXPECT_EQ(tokens[2].text, "kernels");
    EXPECT_EQ(tokens[4].kind, TokenKind::Reference);
    EXPECT_EQ(tokens[4].text, "mpi_comm");
}

TEST(Lexer, DirectivesAndComments) {
    auto tokens = spec::tokenize("# a comment\n!import(\"mpi.capi\") # trailing\n");
    EXPECT_EQ(tokens[0].kind, TokenKind::Directive);
    EXPECT_EQ(tokens[0].text, "import");
    EXPECT_EQ(tokens[2].kind, TokenKind::String);
    EXPECT_EQ(tokens[2].text, "mpi.capi");
}

TEST(Lexer, NegativeNumbers) {
    auto tokens = spec::tokenize("flops(\">\", -5, %%)");
    EXPECT_EQ(tokens[4].kind, TokenKind::Number);
    EXPECT_EQ(tokens[4].number, -5);
}

TEST(Lexer, TracksLineAndColumn) {
    auto tokens = spec::tokenize("a = b()\nc = d()");
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[5].line, 2);   // 'c' starts the second line
    EXPECT_EQ(tokens[5].column, 1);
}

TEST(Lexer, RejectsBadInput) {
    EXPECT_THROW(spec::tokenize("a = $"), support::ParseError);
    EXPECT_THROW(spec::tokenize("\"unterminated"), support::ParseError);
    EXPECT_THROW(spec::tokenize("% 5"), support::ParseError);
    EXPECT_THROW(spec::tokenize("!5"), support::ParseError);
}

TEST(Lexer, StringEscapes) {
    auto tokens = spec::tokenize(R"(byName("a\\b\"c", %%))");
    EXPECT_EQ(tokens[2].text, "a\\b\"c");
}

// ----------------------------------------------------------------- parser --

TEST(Parser, ParsesNamedAndAnonymousDefinitions) {
    spec::SpecAst ast = spec::parseSpec(
        "excluded = inSystemHeader(%%)\n"
        "subtract(%%, %excluded)\n");
    ASSERT_EQ(ast.definitions.size(), 2u);
    EXPECT_EQ(ast.definitions[0].name, "excluded");
    EXPECT_TRUE(ast.definitions[1].name.empty());
    const spec::Definition* entry = ast.entryPoint();
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->expr->kind, Expr::Kind::Call);
    EXPECT_EQ(entry->expr->value, "subtract");
    ASSERT_EQ(entry->expr->args.size(), 2u);
    EXPECT_EQ(entry->expr->args[0]->kind, Expr::Kind::Everything);
    EXPECT_EQ(entry->expr->args[1]->kind, Expr::Kind::Ref);
    EXPECT_EQ(entry->expr->args[1]->value, "excluded");
}

TEST(Parser, ParsesNestedCallsWithMixedArgs) {
    spec::SpecAst ast =
        spec::parseSpec("flops(\">=\", 10, loopDepth(\">=\", 1, %%))");
    const Expr& call = *ast.definitions[0].expr;
    ASSERT_EQ(call.args.size(), 3u);
    EXPECT_EQ(call.args[0]->kind, Expr::Kind::String);
    EXPECT_EQ(call.args[0]->value, ">=");
    EXPECT_EQ(call.args[1]->kind, Expr::Kind::Number);
    EXPECT_EQ(call.args[1]->number, 10);
    EXPECT_EQ(call.args[2]->kind, Expr::Kind::Call);
    EXPECT_EQ(call.args[2]->value, "loopDepth");
}

TEST(Parser, EmptyArgumentListAllowed) {
    spec::SpecAst ast = spec::parseSpec("custom()");
    EXPECT_TRUE(ast.definitions[0].expr->args.empty());
}

TEST(Parser, RejectsSyntaxErrors) {
    EXPECT_THROW(spec::parseSpec("join(%%,"), support::ParseError);
    EXPECT_THROW(spec::parseSpec("= foo()"), support::ParseError);
    EXPECT_THROW(spec::parseSpec("join %%"), support::ParseError);
    EXPECT_THROW(spec::parseSpec(""), support::Error);
}

TEST(Parser, HostileNestingFailsTypedNotStackOverflow) {
    // 100k nested calls: an unbounded recursive descent would overflow the
    // stack here; the depth limit turns it into a typed parse error.
    std::string hostile;
    for (int i = 0; i < 100000; ++i) {
        hostile += "join(";
    }
    EXPECT_THROW(spec::parseSpec(hostile), support::ParseError);

    // Up to the limit, nesting still parses.
    auto nested = [](int depth) {
        std::string text;
        for (int i = 0; i < depth; ++i) {
            text += "join(";
        }
        text += "%%";
        return text + std::string(static_cast<std::size_t>(depth), ')');
    };
    EXPECT_NO_THROW(spec::parseSpec(nested(256)));
    EXPECT_THROW(spec::parseSpec(nested(257)), support::ParseError);
}

TEST(Parser, RejectsDuplicateNamedDefinitions) {
    EXPECT_THROW(spec::parseSpec("a = join(%%)\na = join(%%)\n"),
                 support::ParseError);
    // A name an imported module defines cannot be defined again.
    spec::ModuleResolver resolver;
    resolver.registerModule("m.capi", "a = join(%%)\n");
    EXPECT_THROW(spec::parseSpec("!import(\"m.capi\")\na = join(%%)\n", resolver),
                 support::ParseError);
}

TEST(Parser, ImportsRequireResolver) {
    EXPECT_THROW(spec::parseSpec("!import(\"mpi.capi\")\njoin(%%)"),
                 support::ParseError);
}

// ---------------------------------------------------------------- imports --

TEST(Imports, ExpandsModuleDefinitionsFirst) {
    spec::ModuleResolver resolver;
    resolver.registerModule("mpi.capi",
                            "mpi_calls = byName(\"MPI_*\", %%)\n"
                            "mpi_comm = onCallPathTo(%mpi_calls)\n");
    spec::SpecAst ast = spec::parseSpec(
        "!import(\"mpi.capi\")\n"
        "join(%mpi_comm)\n",
        resolver);
    ASSERT_EQ(ast.definitions.size(), 3u);
    EXPECT_EQ(ast.definitions[0].name, "mpi_calls");
    EXPECT_EQ(ast.definitions[0].sourceModule, "mpi.capi");
    EXPECT_EQ(ast.definitions[1].name, "mpi_comm");
    EXPECT_TRUE(ast.definitions[2].sourceModule.empty());
}

TEST(Imports, DuplicateImportIsIdempotent) {
    spec::ModuleResolver resolver;
    resolver.registerModule("m.capi", "x = join(%%)\n");
    spec::SpecAst ast = spec::parseSpec(
        "!import(\"m.capi\")\n!import(\"m.capi\")\njoin(%x)\n", resolver);
    EXPECT_EQ(ast.definitions.size(), 2u);
}

TEST(Imports, NestedImports) {
    spec::ModuleResolver resolver;
    resolver.registerModule("base.capi", "base = join(%%)\n");
    resolver.registerModule("mid.capi", "!import(\"base.capi\")\nmid = join(%base)\n");
    spec::SpecAst ast =
        spec::parseSpec("!import(\"mid.capi\")\njoin(%mid)\n", resolver);
    ASSERT_EQ(ast.definitions.size(), 3u);
    EXPECT_EQ(ast.definitions[0].name, "base");
    EXPECT_EQ(ast.definitions[1].name, "mid");
}

TEST(Imports, CycleIsRejected) {
    spec::ModuleResolver resolver;
    resolver.registerModule("a.capi", "!import(\"b.capi\")\nx = join(%%)\n");
    resolver.registerModule("b.capi", "!import(\"a.capi\")\ny = join(%%)\n");
    EXPECT_THROW(spec::parseSpec("!import(\"a.capi\")\njoin(%%)\n", resolver),
                 support::ParseError);
}

TEST(Imports, UnknownModuleIsRejected) {
    spec::ModuleResolver resolver;
    EXPECT_THROW(spec::parseSpec("!import(\"nope.capi\")\njoin(%%)\n", resolver),
                 support::ParseError);
}

TEST(Imports, ResolverPrefersInMemoryModules) {
    spec::ModuleResolver resolver;
    resolver.registerModule("m.capi", "x = join(%%)\n");
    auto text = resolver.resolve("m.capi");
    ASSERT_TRUE(text.has_value());
    EXPECT_NE(text->find("x = join"), std::string::npos);
    EXPECT_FALSE(resolver.resolve("missing.capi").has_value());
}

}  // namespace

// Unit tests for the support library: JSON, strings/glob, bitset, RNG,
// name index.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/bitset.hpp"
#include "support/json.hpp"
#include "support/name_index.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace {

using capi::support::DynamicBitset;
using capi::support::Json;
using capi::support::JsonReader;
using capi::support::NameIndex;
using capi::support::ParseError;
using capi::support::SplitMix64;

// ---------------------------------------------------------------- JSON -----

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(Json::parse("null").isNull());
    EXPECT_EQ(Json::parse("true").asBool(), true);
    EXPECT_EQ(Json::parse("false").asBool(), false);
    EXPECT_EQ(Json::parse("42").asInt(), 42);
    EXPECT_EQ(Json::parse("-17").asInt(), -17);
    EXPECT_DOUBLE_EQ(Json::parse("2.5").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").asDouble(), 1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").asString(), "hi");
}

TEST(Json, IntegersStayIntegers) {
    Json v = Json::parse("123456789012345");
    EXPECT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), 123456789012345LL);
    EXPECT_EQ(v.dump(), "123456789012345");
}

TEST(Json, ParsesNestedStructures) {
    Json doc = Json::parse(R"({"a": [1, 2, {"b": "x"}], "c": {"d": null}})");
    ASSERT_TRUE(doc.isObject());
    const Json* a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->asArray().size(), 3u);
    EXPECT_EQ(a->asArray()[2].find("b")->asString(), "x");
    EXPECT_TRUE(doc.find("c")->find("d")->isNull());
}

TEST(Json, StringEscapesRoundTrip) {
    Json v(std::string("line\nquote\"back\\slash\ttab"));
    Json round = Json::parse(v.dump());
    EXPECT_EQ(round.asString(), "line\nquote\"back\\slash\ttab");
}

TEST(Json, UnicodeEscapeDecodes) {
    EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
    EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");  // é in UTF-8
}

TEST(Json, ObjectPreservesInsertionOrder) {
    Json doc = Json::object();
    doc["zebra"] = Json(1);
    doc["alpha"] = Json(2);
    doc["mid"] = Json(3);
    EXPECT_EQ(doc.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
}

TEST(Json, DumpParseRoundTripPretty) {
    Json doc = Json::object();
    doc["list"] = Json::array();
    doc["list"].push_back(Json(1));
    doc["list"].push_back(Json("two"));
    doc["nested"]["flag"] = Json(true);
    Json round = Json::parse(doc.dump(true));
    EXPECT_EQ(round.dump(), doc.dump());
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_THROW(Json::parse("{"), ParseError);
    EXPECT_THROW(Json::parse("[1,]"), ParseError);
    EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
    EXPECT_THROW(Json::parse("tru"), ParseError);
    EXPECT_THROW(Json::parse("1 2"), ParseError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
}

TEST(Json, HostileNestingFailsTypedNotStackOverflow) {
    // A 2M-deep run of '[' used to recurse once per level and overflow the
    // stack; the depth limit turns it into a typed parse error.
    EXPECT_THROW(Json::parse(std::string(2'000'000, '[')), ParseError);

    // Up to the limit, arrays and objects still parse.
    auto arrays = [](std::size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_NO_THROW(Json::parse(arrays(512)));
    EXPECT_THROW(Json::parse(arrays(513)), ParseError);
    auto objects = [](std::size_t depth) {
        std::string text;
        for (std::size_t i = 0; i < depth; ++i) {
            text += "{\"a\":";
        }
        return text + "1" + std::string(depth, '}');
    };
    EXPECT_NO_THROW(Json::parse(objects(512)));
    EXPECT_THROW(Json::parse(objects(513)), ParseError);
}

TEST(Json, ParseErrorCarriesLocation) {
    try {
        Json::parse("{\n  \"a\": ]\n}");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2);
        EXPECT_GT(e.column(), 1);
    }
}

TEST(Json, TypedGettersUseDefaults) {
    Json doc = Json::parse(R"({"n": 7, "s": "x", "b": true})");
    EXPECT_EQ(doc.getInt("n", -1), 7);
    EXPECT_EQ(doc.getInt("missing", -1), -1);
    EXPECT_EQ(doc.getString("s", "d"), "x");
    EXPECT_EQ(doc.getString("n", "d"), "d");  // wrong type -> default
    EXPECT_TRUE(doc.getBool("b", false));
}

TEST(JsonReader, WalksMembersAndElementsInOrder) {
    JsonReader in(R"( {"a": [1, -2.5, "x"], "b": {"c": true, "d": null}, "e": []} )");
    in.beginObject();
    EXPECT_EQ(in.nextMember(), "a");
    in.beginArray();
    ASSERT_TRUE(in.nextElement());
    const JsonReader::Number one = in.number();
    EXPECT_TRUE(one.isInt);
    EXPECT_EQ(one.intValue, 1);
    ASSERT_TRUE(in.nextElement());
    EXPECT_EQ(in.peek(), JsonReader::Kind::Number);
    EXPECT_DOUBLE_EQ(in.number().doubleValue, -2.5);
    ASSERT_TRUE(in.nextElement());
    EXPECT_EQ(in.string(), "x");
    EXPECT_FALSE(in.nextElement());
    EXPECT_EQ(in.nextMember(), "b");
    EXPECT_EQ(in.peek(), JsonReader::Kind::Object);
    in.skip();
    EXPECT_EQ(in.nextMember(), "e");
    in.beginArray();
    EXPECT_FALSE(in.nextElement());
    EXPECT_EQ(in.nextMember(), std::nullopt);
    in.finish();
}

TEST(JsonReader, StringsViewTheTextUnlessEscaped) {
    const std::string text = R"(["plain", "esc\u0061ped", "tab\t"])";
    JsonReader in(text);
    in.beginArray();
    ASSERT_TRUE(in.nextElement());
    const std::string_view plain = in.string();
    EXPECT_EQ(plain, "plain");
    EXPECT_TRUE(in.inText(plain));
    ASSERT_TRUE(in.nextElement());
    const std::string_view decoded = in.string();
    EXPECT_EQ(decoded, "escaped");
    EXPECT_FALSE(in.inText(decoded));
    ASSERT_TRUE(in.nextElement());
    EXPECT_EQ(in.string(), "tab\t");
    EXPECT_FALSE(in.nextElement());
}

TEST(JsonReader, SkipValidatesWhatItSkips) {
    auto skipAll = [](const std::string& text) {
        JsonReader in(text);
        in.skip();
        in.finish();
    };
    EXPECT_NO_THROW(skipAll(R"({"a": [1, {"b": "\u00e9"}], "c": null})"));
    EXPECT_THROW(skipAll(R"({"a": [1, 2x]})"), ParseError);
    EXPECT_THROW(skipAll(R"({"a": "\q"})"), ParseError);
    EXPECT_THROW(skipAll(R"({"a": tru})"), ParseError);
    EXPECT_THROW(skipAll(R"({"a": 1,})"), ParseError);
    EXPECT_NO_THROW(skipAll(std::string(512, '[') + std::string(512, ']')));
    EXPECT_THROW(skipAll(std::string(513, '[') + std::string(513, ']')), ParseError);
}

TEST(JsonReader, FailureReportsLineAndColumnOfTheOffendingByte) {
    JsonReader in("{\n  \"a\": 1,\n  \"b\" 2\n}");
    in.beginObject();
    ASSERT_TRUE(in.nextMember());
    in.number();
    try {
        in.nextMember();
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_EQ(e.column(), 7);
    }
}

/// Line and column of the ParseError that walking `text` as one array of
/// numbers throws.
std::pair<int, int> arrayFailure(const std::string& text) {
    try {
        JsonReader in(text);
        in.beginArray();
        while (in.nextElement()) in.number();
        in.finish();
    } catch (const ParseError& e) {
        return {e.line(), e.column()};
    }
    ADD_FAILURE() << "expected ParseError";
    return {0, 0};
}

TEST(JsonReader, ErrorsAfterLongIndentationKeepTheirPosition) {
    // Runs of spaces of every length around the 8-byte word steps, then a
    // bad byte: its column is one past the run.
    for (std::size_t n = 0; n <= 40; ++n) {
        const std::string text = "[1,\n" + std::string(n, ' ') + "x]";
        EXPECT_EQ(arrayFailure(text), std::make_pair(2, static_cast<int>(n) + 1)) << n;
    }
    // Tabs and CRs inside and between runs: CR does not start a line.
    EXPECT_EQ(arrayFailure("[1,\t \r\n \t\t        \r\n" + std::string(8, ' ') + "x]"),
              std::make_pair(3, 9));
    EXPECT_EQ(arrayFailure("[1, " + std::string(11, ' ') + "\t" + std::string(9, ' ') +
                           "\r" + std::string(17, ' ') + "\t x]"),
              std::make_pair(1, 46));
    // A run that ends at a tab, then more spaces: the scan resumes.
    const std::string runs = "[" + std::string(12, ' ') + "\t" + std::string(20, ' ') +
                             "7" + std::string(30, ' ') + "]" + std::string(9, ' ');
    JsonReader in(runs);
    in.beginArray();
    ASSERT_TRUE(in.nextElement());
    EXPECT_EQ(in.number().intValue, 7);
    EXPECT_FALSE(in.nextElement());
    in.finish();
}

TEST(JsonReader, TruncationInsideAWhitespaceRunFailsAtTheEnd) {
    for (std::size_t n = 0; n <= 40; ++n) {
        for (const char* head : {"[1,", "{\"a\":", "{\"a\": 1", "["}) {
            const std::string text = head + std::string(n, ' ');
            try {
                Json::parse(text);
                ADD_FAILURE() << "accepted " << text;
            } catch (const ParseError& e) {
                EXPECT_EQ(e.line(), 1) << text;
                EXPECT_EQ(e.column(), static_cast<int>(text.size()) + 1) << text;
                EXPECT_NE(std::string(e.what()).find("unexpected end of input"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(JsonReader, EscapesAnywhereInLongStringsDecode) {
    // A backslash before, at and after the 8- and 16-byte marks, with and
    // without text before the closing quote.
    for (std::size_t k = 0; k <= 40; ++k) {
        const std::string head(k, 'a');
        const std::string text = "[\"" + head + "\\n" + "tail\", \"" + head + "\\\"\", \"" +
                                 head + head + "\"]";
        JsonReader in(text);
        in.beginArray();
        ASSERT_TRUE(in.nextElement());
        const std::string_view escaped = in.string();
        EXPECT_EQ(escaped, head + "\ntail") << k;
        EXPECT_FALSE(in.inText(escaped));
        ASSERT_TRUE(in.nextElement());
        EXPECT_EQ(in.string(), head + "\"") << k;
        ASSERT_TRUE(in.nextElement());
        const std::string_view plain = in.string();
        EXPECT_EQ(plain, head + head) << k;
        EXPECT_TRUE(in.inText(plain));
        EXPECT_FALSE(in.nextElement());
        in.finish();

        // An unterminated string, with or without a backslash in it, fails
        // at the end; a bad escape fails just past it.
        try {
            Json::parse("\"" + head);
            ADD_FAILURE() << "accepted unterminated string " << k;
        } catch (const ParseError& e) {
            EXPECT_EQ(e.column(), static_cast<int>(k) + 2) << k;
        }
        try {
            Json::parse("\"" + head + "\\q" + head + "\"");
            ADD_FAILURE() << "accepted bad escape " << k;
        } catch (const ParseError& e) {
            EXPECT_EQ(e.column(), static_cast<int>(k) + 4) << k;
            EXPECT_NE(std::string(e.what()).find("invalid escape"), std::string::npos);
        }
    }
}

TEST(JsonReader, NumbersAsIntTruncateAndSaturate) {
    EXPECT_EQ(Json::parse("2.9").asInt(), 2);
    EXPECT_EQ(Json::parse("-2.9").asInt(), -2);
    EXPECT_EQ(Json::parse("1e300").asInt(), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(Json::parse("-1e300").asInt(), std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(Json::parse("1e999"), ParseError);
}

// -------------------------------------------------------------- strings ----

TEST(Strings, SplitKeepsEmptyFields) {
    auto parts = capi::support::split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
    auto parts = capi::support::splitWhitespace("  INCLUDE   MANGLED  foo \t bar ");
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "INCLUDE");
    EXPECT_EQ(parts[3], "bar");
}

TEST(Strings, Trim) {
    EXPECT_EQ(capi::support::trim("  x y  "), "x y");
    EXPECT_EQ(capi::support::trim("\t\n"), "");
    EXPECT_EQ(capi::support::trim(""), "");
}

struct GlobCase {
    const char* pattern;
    const char* text;
    bool expected;
};

// gtest_discover_tests names each case after its printed parameter; without
// this printer the default byte dump embeds the string addresses, so the
// test names would change with every address-space layout.
void PrintTo(const GlobCase& c, std::ostream* os) {
    *os << "'" << c.pattern << "' " << (c.expected ? "matches" : "rejects")
        << " '" << c.text << "'";
}

class GlobTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTest, Matches) {
    const GlobCase& c = GetParam();
    EXPECT_EQ(capi::support::globMatch(c.pattern, c.text), c.expected)
        << "pattern=" << c.pattern << " text=" << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobTest,
    ::testing::Values(
        GlobCase{"MPI_*", "MPI_Allreduce", true},
        GlobCase{"MPI_*", "PMPI_Allreduce", false},
        GlobCase{"*", "", true},
        GlobCase{"*", "anything", true},
        GlobCase{"", "", true},
        GlobCase{"", "x", false},
        GlobCase{"a?c", "abc", true},
        GlobCase{"a?c", "ac", false},
        GlobCase{"*Foam*", "icoFoamSolver", true},
        GlobCase{"*::solve*", "Foam::fvMatrix::solve", true},
        GlobCase{"a*b*c", "aXXbYYc", true},
        GlobCase{"a*b*c", "aXXcYYb", false},
        GlobCase{"**", "x", true},
        GlobCase{"a*a*a*a*b", "aaaaaaaaaaaaaaaaaaaa", false}));

TEST(Strings, IsGlobPattern) {
    EXPECT_TRUE(capi::support::isGlobPattern("MPI_*"));
    EXPECT_TRUE(capi::support::isGlobPattern("a?c"));
    EXPECT_FALSE(capi::support::isGlobPattern("plain_name"));
}

TEST(Strings, FixedAndPadding) {
    EXPECT_EQ(capi::support::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(capi::support::padLeft("7", 4), "   7");
    EXPECT_EQ(capi::support::padRight("ab", 4), "ab  ");
    EXPECT_EQ(capi::support::padLeft("long-text", 4), "long-text");
}

// --------------------------------------------------------------- bitset ----

TEST(Bitset, SetTestCount) {
    DynamicBitset b(130);
    EXPECT_EQ(b.count(), 0u);
    b.set(0);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_FALSE(b.test(1));
    EXPECT_EQ(b.count(), 3u);
    b.reset(64);
    EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, SetAllRespectsSize) {
    DynamicBitset b(70);
    b.setAll();
    EXPECT_EQ(b.count(), 70u);
}

TEST(Bitset, FlipAllIsComplement) {
    DynamicBitset b(100);
    for (std::size_t i = 0; i < 100; i += 3) b.set(i);
    std::size_t setCount = b.count();
    b.flipAll();
    EXPECT_EQ(b.count(), 100u - setCount);
}

TEST(Bitset, SetAlgebra) {
    DynamicBitset a(64), b(64);
    a.set(1);
    a.set(2);
    b.set(2);
    b.set(3);

    DynamicBitset u = a;
    u |= b;
    EXPECT_EQ(u.count(), 3u);

    DynamicBitset i = a;
    i &= b;
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(2));

    DynamicBitset d = a;
    d -= b;
    EXPECT_EQ(d.count(), 1u);
    EXPECT_TRUE(d.test(1));
}

TEST(Bitset, ForEachVisitsInOrder) {
    DynamicBitset b(200);
    b.set(5);
    b.set(63);
    b.set(64);
    b.set(199);
    std::vector<std::size_t> seen;
    b.forEach([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{5, 63, 64, 199}));
}

// ---------------------------------------------------------- NameIndex -----

TEST(NameIndex, FirstValueWinsOnADuplicate) {
    NameIndex index(4);
    const NameIndex::Entry first = index.insert("solve", 7);
    EXPECT_EQ(index.insert("solve", 9), first);
    EXPECT_EQ(index.size(), 1u);
    EXPECT_EQ(index.find("solve"), std::optional<std::uint32_t>(7));
    EXPECT_EQ(index.name(first), "solve");
}

TEST(NameIndex, AbsentNamesAreNotFound) {
    NameIndex index(3);
    index.insert("Amul", 1);
    index.insert("solve", 2);
    EXPECT_FALSE(index.find("amul").has_value());
    EXPECT_FALSE(index.find("solv").has_value());
    EXPECT_FALSE(index.find("solvee").has_value());
    EXPECT_FALSE(index.contains(""));
    EXPECT_FALSE(NameIndex().contains("anything"));
}

TEST(NameIndex, EmptyNameIsAName) {
    NameIndex index(2);
    const NameIndex::Entry empty = index.insert("", 3);
    index.insert("x", 4);
    EXPECT_EQ(index.find(""), std::optional<std::uint32_t>(3));
    EXPECT_EQ(index.name(empty), "");
    EXPECT_EQ(index.find("x"), std::optional<std::uint32_t>(4));
}

TEST(NameIndex, ProbeChainsWrapAroundTheTable) {
    // Every name below hashes to the table's last slot, so the chain starts
    // there and wraps to slot 0 for all but the first.
    NameIndex index(8);
    const std::size_t mask = index.capacity() - 1;
    std::vector<std::string> names;
    for (std::uint32_t i = 0; names.size() < index.capacity() / 2; ++i) {
        std::string name = "fn" + std::to_string(i);
        if ((std::hash<std::string_view>{}(name) & mask) == mask) {
            names.push_back(std::move(name));
        }
    }
    std::vector<NameIndex::Entry> entries;
    for (std::uint32_t i = 0; i < names.size(); ++i) {
        entries.push_back(index.insert(names[i], i));
    }
    EXPECT_EQ(entries.front(), mask);
    EXPECT_EQ(entries[1], 0u);
    for (std::uint32_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(index.find(names[i]), std::optional<std::uint32_t>(i)) << names[i];
    }
    EXPECT_FALSE(index.find("fn-absent").has_value());
    // The bound is the constructor's: half the slots stay free.
    EXPECT_THROW(index.insert("one-too-many", 0), std::length_error);
    EXPECT_EQ(index.insert(names.back(), 99), entries.back());  // Still found.
}

TEST(NameIndex, EveryEntryRoundTripsItsName) {
    constexpr std::uint32_t kNames = 5000;
    NameIndex index(kNames);
    std::vector<NameIndex::Entry> entries;
    for (std::uint32_t i = 0; i < kNames; ++i) {
        entries.push_back(index.insert("_ZN4Foam" + std::to_string(i * 7919) + "E", i));
    }
    ASSERT_EQ(index.size(), kNames);
    EXPECT_LE(2 * index.size(), index.capacity());
    for (std::uint32_t i = 0; i < kNames; ++i) {
        const std::string name = "_ZN4Foam" + std::to_string(i * 7919) + "E";
        EXPECT_EQ(index.name(entries[i]), name);
        EXPECT_EQ(index.find(name), std::optional<std::uint32_t>(i));
    }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicStream) {
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    SplitMix64 a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, RangesRespected) {
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.nextInRange(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

}  // namespace

/**
 * @file
 * Tests of the model layer's minimal JSON reader/builder — the
 * parser must accept everything the benches emit and reject the
 * malformed files a user will inevitably hand `t3d-model fit`.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/json.hh"
#include "sim/json_writer.hh"

namespace t3dsim::model
{
namespace
{

TEST(Json, ParsesScalars)
{
    std::string error;
    EXPECT_TRUE(Json::parse("null", &error).isNull());
    EXPECT_TRUE(Json::parse("true").boolean());
    EXPECT_FALSE(Json::parse("false").boolean());
    EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").number(), -1250.0);
    EXPECT_EQ(Json::parse("\"a\\n\\\"b\\\"\"").str(), "a\n\"b\"");
    // \u escapes decode to UTF-8, a surrogate pair to one code point.
    EXPECT_EQ(Json::parse(R"("\u0041\u00e9")").str(), "A\xc3\xa9");
    EXPECT_EQ(Json::parse(R"("\u4e2d")").str(), "\xe4\xb8\xad");
    EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").str(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, ParsesNestedStructure)
{
    const Json doc = Json::parse(
        R"({"a": [1, 2, {"b": "x"}], "c": {"d": 4.5}, "e": true})");
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc["a"].isArray());
    EXPECT_EQ(doc["a"].array().size(), 3u);
    EXPECT_DOUBLE_EQ(doc["a"].array()[1].number(), 2);
    EXPECT_EQ(doc["a"].array()[2]["b"].str(), "x");
    EXPECT_DOUBLE_EQ(doc["c"].numberOr("d", -1), 4.5);
    EXPECT_DOUBLE_EQ(doc["c"].numberOr("missing", -1), -1);
    EXPECT_TRUE(doc["e"].boolean());
    EXPECT_FALSE(doc.has("zz"));
    EXPECT_TRUE(doc["zz"].isNull());
}

TEST(Json, RejectsMalformedInput)
{
    // The last case nests past the parser's depth limit; unbounded
    // recursion would overflow the stack instead of failing.
    for (const std::string &bad : std::vector<std::string>{
             "{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
             "{\"a\": 1,}", "[1 2]", "01x",
             // Numbers outside RFC 8259's grammar that strtod takes.
             "-nan", "nan", "Infinity", "-Infinity", "inf", "0x10",
             "{\"pes\":0x10}", "+1", "01", "-01", ".5", "1.", "1.e5",
             "1e", "1e+", "-", "[-]",
             // \u needs four hex digits, and a surrogate its partner.
             R"("\uzzzz")", R"("\u12")", R"("\u00g1")", R"("\u+123")",
             R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\u0041")",
             R"("\ude00")", std::string(200000, '[')}) {
        std::string error;
        const Json doc = Json::parse(bad, &error);
        EXPECT_TRUE(doc.isNull()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, ParsesEveryNumberJsonWriterEmits)
{
    const std::uint64_t u64max = std::numeric_limits<std::uint64_t>::max();
    const std::int64_t i64min = std::numeric_limits<std::int64_t>::min();
    std::ostringstream os;
    sim::JsonWriter w(os, sim::JsonWriter::Style::Compact);
    w.beginArray();
    for (const double d : {0.0, -0.0, 1e-5, 1e17, 1.5e300, -2.5e-310})
        w.value(d);
    w.value(u64max).value(i64min);
    w.value(std::numeric_limits<double>::infinity()).value(std::nan(""));
    w.endArray();

    std::string error;
    const Json doc = Json::parse(os.str(), &error);
    ASSERT_TRUE(error.empty()) << error << ": " << os.str();
    const std::vector<Json> &xs = doc.array();
    ASSERT_EQ(xs.size(), 10u) << os.str();
    EXPECT_EQ(xs[0].number(), 0.0);
    EXPECT_TRUE(std::signbit(xs[1].number()));
    EXPECT_EQ(xs[2].number(), 1e-5);
    EXPECT_EQ(xs[3].number(), 1e17);
    EXPECT_EQ(xs[4].number(), 1.5e300);
    EXPECT_EQ(xs[5].number(), -2.5e-310);
    EXPECT_EQ(xs[6].number(), static_cast<double>(u64max));
    EXPECT_EQ(xs[7].number(), static_cast<double>(i64min));
    EXPECT_TRUE(xs[8].isNull()); // non-finite is written as null
    EXPECT_TRUE(xs[9].isNull());
}

TEST(Json, RejectsTrailingGarbage)
{
    std::string error;
    EXPECT_TRUE(Json::parse("{} extra", &error).isNull());
    EXPECT_FALSE(error.empty());
}

TEST(Json, BuildersPreserveInsertionOrder)
{
    Json obj = Json::makeObject();
    obj.set("z", Json::makeNumber(1));
    obj.set("a", Json::makeString("two"));
    obj.set("z", Json::makeNumber(3)); // overwrite keeps position
    ASSERT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_DOUBLE_EQ(obj.members()[0].second.number(), 3);
    EXPECT_EQ(obj.members()[1].first, "a");

    Json arr = Json::makeArray(
        {Json::makeBool(true), Json::makeNull()});
    EXPECT_EQ(arr.array().size(), 2u);
    EXPECT_TRUE(arr.array()[1].isNull());
}

TEST(Json, MissingFileReportsError)
{
    std::string error;
    const Json doc =
        Json::parseFile("/nonexistent/t3d-model.json", &error);
    EXPECT_TRUE(doc.isNull());
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace t3dsim::model

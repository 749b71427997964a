/**
 * @file
 * JsonWriter contract: escaping, comma placement in nested
 * containers, both styles' separators, exact integers, and doubles
 * that parse back (through model::Json) to the identical value.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "model/json.hh"
#include "sim/json_writer.hh"

namespace
{

using t3dsim::model::Json;
using t3dsim::sim::JsonWriter;

std::string
compact(const std::function<void(JsonWriter &)> &body)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Compact);
    body(w);
    return os.str();
}

TEST(JsonWriter, EscapesQuoteBackslashControlAndPassesUtf8)
{
    const std::string raw = "a\"b\\c\nd\te\x01" "f\xc2\xa7";
    const std::string out =
        compact([&](JsonWriter &w) { w.value(raw); });
    EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\xc2\xa7\"");

    std::string error;
    const Json back = Json::parse(out, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.str(), raw);
}

TEST(JsonWriter, NestedContainersPlaceCommas)
{
    const std::string out = compact([](JsonWriter &w) {
        w.beginObject()
            .member("a", 1)
            .key("b")
            .beginArray()
            .value(true)
            .beginObject()
            .endObject()
            .beginArray()
            .value("x")
            .null()
            .endArray()
            .endArray()
            .key("c")
            .beginObject()
            .member("d", false)
            .endObject()
            .endObject();
    });
    EXPECT_EQ(out,
              "{\"a\":1,\"b\":[true,{},[\"x\",null]],\"c\":{\"d\":false}}");
}

TEST(JsonWriter, FileStyleSeparatesAndBreaksLines)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject(JsonWriter::Layout::Lines)
        .member("dims", 2)
        .key("list")
        .beginArray()
        .value(1)
        .value(2)
        .endArray()
        .key("rows")
        .beginArray(JsonWriter::Layout::Lines)
        .beginObject()
        .member("k", "v")
        .member("n", 3)
        .endObject()
        .endArray()
        .endObject();
    EXPECT_EQ(os.str(), "{\n"
                        "  \"dims\": 2,\n"
                        "  \"list\": [1, 2],\n"
                        "  \"rows\": [\n"
                        "    {\"k\": \"v\", \"n\": 3}\n"
                        "  ]\n"
                        "}\n");
}

TEST(JsonWriter, IntegersAreExact)
{
    const std::string out = compact([](JsonWriter &w) {
        w.beginArray()
            .value(std::numeric_limits<std::uint64_t>::max())
            .value(std::numeric_limits<std::int64_t>::min())
            .value(std::uint32_t{0})
            .endArray();
    });
    EXPECT_EQ(out,
              "[18446744073709551615,-9223372036854775808,0]");
}

TEST(JsonWriter, DoublesRoundTripThroughTheParser)
{
    for (const double d : {0.1, 1.2, 1e-300, -2.5, 0.9, 2.2904791015625,
                           1.0 / 3.0, 197494.0, 8.50679e6, 1e21}) {
        const std::string out =
            compact([&](JsonWriter &w) { w.value(d); });
        std::string error;
        const Json back = Json::parse(out, &error);
        ASSERT_TRUE(error.empty()) << out << ": " << error;
        ASSERT_TRUE(back.isNumber()) << out;
        EXPECT_EQ(back.number(), d) << out;
    }
    // Shortest form, with integral values printed as integers.
    EXPECT_EQ(compact([](JsonWriter &w) { w.value(0.1); }), "0.1");
    EXPECT_EQ(compact([](JsonWriter &w) { w.value(-2.5); }), "-2.5");
    EXPECT_EQ(compact([](JsonWriter &w) { w.value(1e-300); }), "1e-300");
    EXPECT_EQ(compact([](JsonWriter &w) { w.value(197494.0); }),
              "197494");
    EXPECT_EQ(compact([](JsonWriter &w) {
                  w.value(std::numeric_limits<double>::infinity());
              }),
              "null");
}

TEST(JsonWriter, MembersSplicesARenderedObject)
{
    const std::string payload = compact([](JsonWriter &w) {
        w.beginObject().member("x", 1).member("y", "z").endObject();
    });
    const std::string out = compact([&](JsonWriter &w) {
        w.beginObject().member("id", "j").members(payload).endObject();
    });
    EXPECT_EQ(out, "{\"id\":\"j\",\"x\":1,\"y\":\"z\"}");
}

} // namespace

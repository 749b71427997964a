#include "model/json.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace t3dsim::model
{

namespace
{

const Json &
nullValue()
{
    static const Json v;
    return v;
}

/** Deepest object/array nesting the parser accepts. The documents
 *  it reads (sweeps, fitted models, task graphs) nest about 6 deep;
 *  the bound keeps hostile input from overflowing the stack. */
constexpr int kMaxDepth = 256;

struct Parser
{
    explicit Parser(const std::string &t) : text(t) {}

    const std::string &text;
    std::size_t pos = 0;
    int depth = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = "offset " + std::to_string(pos) + ": " + what;
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text.compare(pos, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += n;
        return true;
    }

    /** The four hex digits of a \\u escape, at pos. */
    bool
    parseHex4(unsigned &out)
    {
        if (pos + 4 > text.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text[pos];
            if (!std::isxdigit(static_cast<unsigned char>(c)))
                return fail("bad hex digit in \\u escape");
            out = out << 4 |
                static_cast<unsigned>(c <= '9' ? c - '0'
                                               : (c | 0x20) - 'a' + 10);
            ++pos;
        }
        return true;
    }

    /** Code point @p cp as UTF-8: a lead byte, then 6-bit
     *  continuation bytes high to low. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        static constexpr unsigned lead[] = {0x00, 0xc0, 0xe0, 0xf0};
        const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
        out.push_back(static_cast<char>(lead[tail] | cp >> 6 * tail));
        for (int i = tail - 1; i >= 0; --i)
            out.push_back(static_cast<char>(0x80 | (cp >> 6 * i & 0x3f)));
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                // A code point past the BMP is a high surrogate
                // escape followed by a low one (RFC 8259 §7). The
                // result is stored as UTF-8, which sim::JsonWriter
                // writes back unchanged.
                unsigned cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xdc00 && cp <= 0xdfff)
                    return fail("lone low surrogate in \\u escape");
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    unsigned lo = 0;
                    if (text.compare(pos, 2, "\\u") != 0)
                        return fail("lone high surrogate in \\u escape");
                    pos += 2;
                    if (!parseHex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("lone high surrogate in \\u escape");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseObject(Json &out)
    {
        ++pos;
        out = Json::makeObject();
        skipWs();
        if (consume('}'))
            return true;
        while (true) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':'");
            Json v;
            if (!parseValue(v))
                return false;
            out.set(key, std::move(v));
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Json &out)
    {
        ++pos;
        std::vector<Json> items;
        skipWs();
        if (consume(']')) {
            out = Json::makeArray({});
            return true;
        }
        while (true) {
            Json v;
            if (!parseValue(v))
                return false;
            items.push_back(std::move(v));
            if (consume(','))
                continue;
            if (consume(']')) {
                out = Json::makeArray(std::move(items));
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseValue(Json &out)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{' || c == '[') {
            if (depth == kMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(kMaxDepth));
            ++depth;
            const bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth;
            return ok;
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json::makeString(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true"))
                return false;
            out = Json::makeBool(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return false;
            out = Json::makeBool(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return false;
            out = Json::makeNull();
            return true;
        }
        return parseNumber(out);
    }

    /** Skip a run of digits; false if there was none. */
    bool
    digits()
    {
        const std::size_t from = pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        return pos > from;
    }

    /** A number by RFC 8259's grammar. strtod alone would also take
     *  nan, inf, hex, a leading '+' or '.', leading zeros and a
     *  trailing '.'. */
    bool
    parseNumber(Json &out)
    {
        const std::size_t start = pos;
        if (text[pos] == '-')
            ++pos;
        if (pos < text.size() && text[pos] == '0')
            ++pos;
        else if (!digits())
            return fail("expected a value");
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("expected a digit after '.'");
        }
        if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("expected an exponent digit");
        }
        char *end = nullptr;
        const double v = std::strtod(text.c_str() + start, &end);
        if (end != text.c_str() + pos)
            return fail("bad number");
        out = Json::makeNumber(v);
        return true;
    }
};

} // namespace

const Json &
Json::operator[](const std::string &key) const
{
    for (const auto &[k, v] : _members) {
        if (k == key)
            return v;
    }
    return nullValue();
}

bool
Json::has(const std::string &key) const
{
    for (const auto &[k, v] : _members) {
        if (k == key)
            return true;
    }
    return false;
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    const Json &v = (*this)[key];
    return v.isNumber() ? v.number() : fallback;
}

Json
Json::parse(const std::string &text, std::string *error)
{
    Parser p(text);
    Json out;
    if (!p.parseValue(out)) {
        if (error)
            *error = p.error;
        return Json();
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "offset " + std::to_string(p.pos) +
                     ": trailing garbage";
        return Json();
    }
    if (error)
        error->clear();
    return out;
}

Json
Json::parseFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return Json();
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return parse(ss.str(), error);
}

Json
Json::makeBool(bool b)
{
    Json j;
    j._kind = Kind::Bool;
    j._bool = b;
    return j;
}

Json
Json::makeNumber(double v)
{
    Json j;
    j._kind = Kind::Number;
    j._number = v;
    return j;
}

Json
Json::makeString(std::string s)
{
    Json j;
    j._kind = Kind::String;
    j._string = std::move(s);
    return j;
}

Json
Json::makeArray(std::vector<Json> items)
{
    Json j;
    j._kind = Kind::Array;
    j._array = std::move(items);
    return j;
}

Json
Json::makeObject()
{
    Json j;
    j._kind = Kind::Object;
    return j;
}

void
Json::set(const std::string &key, Json value)
{
    for (auto &[k, v] : _members) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    _members.emplace_back(key, std::move(value));
}

} // namespace t3dsim::model

/**
 * @file
 * JsonWriter: the one streaming JSON emitter behind every report the
 * simulator writes (counter dumps, bench reports, model and sweep
 * files, t3d-serve responses). model::Json is the matching reader.
 *
 * The writer owns every formatting decision so callers only name
 * keys and values:
 *  - strings are escaped (`"`, `\`, `\n`, `\t`, other control bytes
 *    as `\u00xx`); bytes >= 0x20, UTF-8 included, pass through;
 *  - commas between members and elements are placed for the caller;
 *  - Style::File separates with `": "` / `", "`, lets a container
 *    opened with Layout::Lines put one element per indented line,
 *    and ends the document with a newline; Style::Compact writes
 *    `:` / `,` on one line (the t3d-serve protocol);
 *  - integers are written exactly; doubles as the shortest decimal
 *    that parses back to the same double (fixed notation for
 *    magnitudes in [1e-4, 1e17), scientific outside), and non-finite
 *    doubles as null. No stream precision state is read or changed.
 */

#ifndef T3DSIM_SIM_JSON_WRITER_HH
#define T3DSIM_SIM_JSON_WRITER_HH

#include <charconv>
#include <concepts>
#include <ostream>
#include <string_view>
#include <vector>

namespace t3dsim::sim
{

class JsonWriter
{
  public:
    enum class Style { File, Compact };

    /** How a container lays out its elements (Style::File only). */
    enum class Layout { Inline, Lines };

    explicit JsonWriter(std::ostream &os, Style style = Style::File)
        : _os(os), _style(style)
    {
    }

    JsonWriter &beginObject(Layout l = Layout::Inline) { return open('{', l); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray(Layout l = Layout::Inline) { return open('[', l); }
    JsonWriter &endArray() { return close(']'); }

    /** The next member's name; a value or container must follow. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b) { return raw(b ? "true" : "false"); }
    JsonWriter &value(double d);
    JsonWriter &null() { return raw("null"); }

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &
    value(T v)
    {
        char buf[24];
        return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
    }

    /** key(name) followed by value(v). */
    template <typename T>
    JsonWriter &
    member(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /**
     * Splice the members of @p object — an object rendered earlier by
     * a writer of the same style, such as a cached response payload —
     * into the currently open object.
     */
    JsonWriter &members(std::string_view object);

  private:
    struct Frame
    {
        bool lines = false;
        bool empty = true;
    };

    /** Comma, newline and indent owed before the next element. */
    void separate();
    JsonWriter &open(char bracket, Layout layout);
    JsonWriter &close(char bracket);
    JsonWriter &raw(std::string_view token);

    std::ostream &_os;
    Style _style;
    std::vector<Frame> _frames;
    bool _afterKey = false;
};

} // namespace t3dsim::sim

#endif // T3DSIM_SIM_JSON_WRITER_HH

#include "sim/json_writer.hh"

#include <cmath>
#include <string>

namespace t3dsim::sim
{

JsonWriter &
JsonWriter::key(std::string_view name)
{
    value(name)._os << (_style == Style::File ? ": " : ":");
    _afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate();
    _os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            _os << '\\' << c;
        else if (c == '\n')
            _os << "\\n";
        else if (c == '\t')
            _os << "\\t";
        else if (static_cast<unsigned char>(c) < 0x20)
            _os << "\\u00" << "0123456789abcdef"[c >> 4]
                << "0123456789abcdef"[c & 0xf];
        else
            _os << c;
    }
    _os << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double d)
{
    if (!std::isfinite(d))
        return null();
    // Shortest round-trip digits, in %g's notation so integral
    // values print as integers.
    const double mag = std::fabs(d);
    const bool fixed = mag == 0 || (mag >= 1e-4 && mag < 1e17);
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, d,
                                 fixed ? std::chars_format::fixed
                                       : std::chars_format::scientific);
    return raw({buf, r.ptr});
}

JsonWriter &
JsonWriter::members(std::string_view object)
{
    if (object.size() <= 2) // "{}"
        return *this;
    return raw(object.substr(1, object.size() - 2));
}

void
JsonWriter::separate()
{
    if (_afterKey || _frames.empty()) {
        _afterKey = false;
        return;
    }
    Frame &f = _frames.back();
    if (!f.empty)
        _os << (_style == Style::File && !f.lines ? ", " : ",");
    f.empty = false;
    if (f.lines)
        _os << '\n' << std::string(2 * _frames.size(), ' ');
}

JsonWriter &
JsonWriter::open(char bracket, Layout layout)
{
    separate();
    _os << bracket;
    _frames.push_back(
        {_style == Style::File && layout == Layout::Lines, true});
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    const Frame f = _frames.back();
    _frames.pop_back();
    if (f.lines && !f.empty)
        _os << '\n' << std::string(2 * _frames.size(), ' ');
    _os << bracket;
    if (_frames.empty() && _style == Style::File)
        _os << '\n';
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view token)
{
    separate();
    _os << token;
    return *this;
}

} // namespace t3dsim::sim

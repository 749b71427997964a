#include "model/sweep.hh"

#include <ostream>

#include "sim/json_writer.hh"

namespace t3dsim::model
{

double
SweepPoint::counter(const std::string &name) const
{
    for (const auto &[k, v] : counters) {
        if (k == name)
            return v;
    }
    return 0;
}

std::vector<FitPoint>
Sweep::xyPoints() const
{
    std::vector<FitPoint> xy;
    xy.reserve(points.size());
    for (const SweepPoint &p : points)
        xy.push_back({p.x, p.cycles});
    return xy;
}

void
writeSweepsJson(std::ostream &os, const std::vector<Sweep> &sweeps)
{
    using Layout = sim::JsonWriter::Layout;
    sim::JsonWriter w(os);
    w.beginObject(Layout::Lines).member("schema", "t3dsim-sweeps-v1");
    w.key("sweeps").beginArray(Layout::Lines);
    for (const Sweep &s : sweeps) {
        w.beginObject().member("primitive", s.primitive);
        w.member("x_unit", s.xUnit);
        if (!s.note.empty())
            w.member("note", s.note);
        w.key("points").beginArray(Layout::Lines);
        for (const SweepPoint &p : s.points) {
            w.beginObject().member("x", p.x).member("cycles", p.cycles);
            if (!p.counters.empty()) {
                w.key("counters").beginObject();
                for (const auto &[name, value] : p.counters)
                    w.member(name, value);
                w.endObject();
            }
            w.endObject();
        }
        w.endArray().endObject();
    }
    w.endArray().endObject();
}

bool
readSweepsJson(const Json &doc, std::vector<Sweep> &sweeps,
               std::string *error)
{
    sweeps.clear();
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        sweeps.clear();
        return false;
    };
    if (!doc.isObject())
        return fail("not a JSON object");
    if (doc["schema"].str() != "t3dsim-sweeps-v1")
        return fail("schema is not t3dsim-sweeps-v1");
    const Json &arr = doc["sweeps"];
    if (!arr.isArray())
        return fail("missing \"sweeps\" array");
    for (const Json &js : arr.array()) {
        Sweep s;
        s.primitive = js["primitive"].str();
        s.xUnit = js["x_unit"].str();
        s.note = js["note"].str();
        if (s.primitive.empty())
            return fail("sweep without \"primitive\"");
        const Json &pts = js["points"];
        if (!pts.isArray() || pts.array().empty())
            return fail("sweep " + s.primitive + " has no points");
        for (const Json &jp : pts.array()) {
            if (!jp["x"].isNumber() || !jp["cycles"].isNumber())
                return fail("sweep " + s.primitive +
                            ": point missing x/cycles");
            SweepPoint p;
            p.x = jp["x"].number();
            p.cycles = jp["cycles"].number();
            const Json &jc = jp["counters"];
            if (jc.isObject()) {
                for (const auto &[k, v] : jc.members()) {
                    if (!v.isNumber())
                        return fail("sweep " + s.primitive +
                                    ": counter " + k +
                                    " is not a number");
                    p.counters.emplace_back(k, v.number());
                }
            }
            s.points.push_back(std::move(p));
        }
        sweeps.push_back(std::move(s));
    }
    if (error)
        error->clear();
    return true;
}

const Sweep *
findSweep(const std::vector<Sweep> &sweeps,
          const std::string &primitive)
{
    for (const Sweep &s : sweeps) {
        if (s.primitive == primitive)
            return &s;
    }
    return nullptr;
}

} // namespace t3dsim::model

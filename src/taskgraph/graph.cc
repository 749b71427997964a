#include "taskgraph/graph.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "model/json.hh"
#include "sim/hash.hh"

namespace t3dsim::taskgraph
{

const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::Auto:
        return "auto";
      case Mechanism::Local:
        return "local";
      case Mechanism::Store:
        return "store";
      case Mechanism::Put:
        return "put";
      case Mechanism::Get:
        return "get";
      case Mechanism::Blt:
        return "blt";
      case Mechanism::Am:
        return "am";
      case Mechanism::Message:
        return "message";
    }
    return "?";
}

namespace
{

bool
mechanismFromName(const std::string &name, Mechanism &out)
{
    for (Mechanism m :
         {Mechanism::Auto, Mechanism::Local, Mechanism::Store,
          Mechanism::Put, Mechanism::Get, Mechanism::Blt, Mechanism::Am,
          Mechanism::Message}) {
        if (name == mechanismName(m)) {
            out = m;
            return true;
        }
    }
    return false;
}

/** A non-negative integral number member, with typed diagnostics. */
bool
uintField(const model::Json &obj, const std::string &key,
          const std::string &where, std::uint64_t fallback,
          std::uint64_t &out, std::string &err)
{
    if (!obj.has(key)) {
        out = fallback;
        return true;
    }
    const model::Json &v = obj[key];
    // Range before the cast: casting a double at or past 2^64 (or a
    // NaN) is undefined.
    if (!v.isNumber() || !(v.number() >= 0 && v.number() < 0x1p64) ||
        v.number() != static_cast<double>(
                          static_cast<std::uint64_t>(v.number()))) {
        err = where + ": '" + key + "' must be a non-negative integer";
        return false;
    }
    out = static_cast<std::uint64_t>(v.number());
    return true;
}

} // namespace

bool
TaskGraph::parse(const model::Json &doc, TaskGraph &out, std::string &err)
{
    out = TaskGraph{};
    if (!doc.isObject()) {
        err = "graph: top level must be a JSON object";
        return false;
    }
    if (doc.has("name")) {
        if (!doc["name"].isString()) {
            err = "graph: 'name' must be a string";
            return false;
        }
        out.name = doc["name"].str();
    }

    const model::Json &tasks = doc["tasks"];
    if (!tasks.isArray() || tasks.array().empty()) {
        err = "graph: 'tasks' must be a non-empty array";
        return false;
    }
    std::unordered_map<std::string, std::uint32_t> byId;
    out.tasks.reserve(tasks.array().size());
    for (std::size_t i = 0; i < tasks.array().size(); ++i) {
        const model::Json &t = tasks.array()[i];
        const std::string where = "task " + std::to_string(i);
        if (!t.isObject()) {
            err = where + ": must be an object";
            return false;
        }
        Task task;
        if (!t.has("id") || !t["id"].isString() || t["id"].str().empty()) {
            err = where + ": missing id";
            return false;
        }
        task.id = t["id"].str();
        if (!byId.emplace(task.id, static_cast<std::uint32_t>(i)).second) {
            err = where + ": duplicate task id '" + task.id + "'";
            return false;
        }
        if (!uintField(t, "cycles", where, 0, task.cycles, err) ||
            !uintField(t, "flops", where, 0, task.flops, err))
            return false;
        if (t.has("pe")) {
            // Kept in 64 bits, so validate() reports a PE past the
            // machine by its value; range before the cast, as above.
            const model::Json &pe = t["pe"];
            if (!pe.isNumber() ||
                !(pe.number() >= -0x1p63 && pe.number() < 0x1p63) ||
                pe.number() != static_cast<double>(
                                   static_cast<std::int64_t>(pe.number()))) {
                err = where + ": 'pe' must be an integer";
                return false;
            }
            task.pe = static_cast<std::int64_t>(pe.number());
        }
        out.tasks.push_back(std::move(task));
    }

    const model::Json &edges = doc["edges"];
    if (doc.has("edges") && !edges.isArray()) {
        err = "graph: 'edges' must be an array";
        return false;
    }
    if (edges.isArray()) {
        out.edges.reserve(edges.array().size());
        for (std::size_t i = 0; i < edges.array().size(); ++i) {
            const model::Json &e = edges.array()[i];
            const std::string where = "edge " + std::to_string(i);
            if (!e.isObject()) {
                err = where + ": must be an object";
                return false;
            }
            Edge edge;
            for (const char *end : {"src", "dst"}) {
                if (!e.has(end) || !e[end].isString()) {
                    err = where + ": missing '" + end + "' task id";
                    return false;
                }
                auto it = byId.find(e[end].str());
                if (it == byId.end()) {
                    err = where + ": unknown " + end + " task '" +
                          e[end].str() + "'";
                    return false;
                }
                (end[0] == 's' ? edge.src : edge.dst) = it->second;
            }
            if (!uintField(e, "bytes", where, 0, edge.bytes, err))
                return false;
            if (e.has("mech")) {
                if (!e["mech"].isString() ||
                    !mechanismFromName(e["mech"].str(), edge.mech)) {
                    err = where + ": unknown mechanism '" +
                          e["mech"].str() + "'";
                    return false;
                }
            }
            out.edges.push_back(edge);
        }
    }
    return true;
}

bool
TaskGraph::parseText(const std::string &text, TaskGraph &out,
                     std::string &err)
{
    std::string parse_err;
    model::Json doc = model::Json::parse(text, &parse_err);
    if (!parse_err.empty()) {
        err = "bad JSON: " + parse_err;
        return false;
    }
    return parse(doc, out, err);
}

bool
TaskGraph::validate(std::uint32_t pes, std::string &err)
{
    if (pes == 0) {
        err = "graph: machine must have at least one PE";
        return false;
    }
    if (tasks.empty()) {
        err = "graph: 'tasks' must be a non-empty array";
        return false;
    }
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const Task &t = tasks[i];
        if (t.pe >= 0 && static_cast<std::uint64_t>(t.pe) >= pes) {
            err = "task " + std::to_string(i) + " ('" + t.id + "'): pe " +
                  std::to_string(t.pe) + " out of range for " +
                  std::to_string(pes) + " PEs";
            return false;
        }
    }
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Edge &e = edges[i];
        const std::string where = "edge " + std::to_string(i);
        if (e.src >= tasks.size() || e.dst >= tasks.size()) {
            err = where + ": dangling endpoint (task index out of range)";
            return false;
        }
        if (e.src == e.dst) {
            err = where + ": self-loop on task '" + tasks[e.src].id + "'";
            return false;
        }
        if (e.mech == Mechanism::Am && e.bytes > 24) {
            err = where + ": am payload is capped at 24 bytes (got " +
                  std::to_string(e.bytes) + ")";
            return false;
        }
        if (e.mech == Mechanism::Message && e.bytes > 24) {
            err = where + ": message payload is capped at 24 bytes (got " +
                  std::to_string(e.bytes) + ")";
            return false;
        }
    }

    // Kahn's algorithm in task-index order: detects cycles and yields
    // the longest-path level for every task (the superstep the
    // lowering schedules it into).
    std::vector<std::uint32_t> indegree(tasks.size(), 0);
    std::vector<std::vector<std::uint32_t>> out_edges(tasks.size());
    for (std::uint32_t i = 0; i < edges.size(); ++i) {
        ++indegree[edges[i].dst];
        out_edges[edges[i].src].push_back(i);
    }
    std::vector<std::uint32_t> frontier;
    for (std::uint32_t t = 0; t < tasks.size(); ++t) {
        tasks[t].level = 0;
        if (indegree[t] == 0)
            frontier.push_back(t);
    }
    std::size_t processed = 0;
    for (std::size_t head = 0; head < frontier.size(); ++head) {
        const std::uint32_t t = frontier[head];
        ++processed;
        for (std::uint32_t ei : out_edges[t]) {
            const std::uint32_t dst = edges[ei].dst;
            tasks[dst].level =
                std::max(tasks[dst].level, tasks[t].level + 1);
            if (--indegree[dst] == 0)
                frontier.push_back(dst);
        }
    }
    if (processed != tasks.size()) {
        for (std::uint32_t t = 0; t < tasks.size(); ++t) {
            if (indegree[t] != 0) {
                err = "graph: cycle through task '" + tasks[t].id + "'";
                return false;
            }
        }
    }
    return true;
}

std::uint64_t
TaskGraph::contentHash() const
{
    std::ostringstream os;
    os << "g1|" << name << '|';
    for (const Task &t : tasks)
        os << 't' << t.id << ',' << t.cycles << ',' << t.flops << ','
           << t.pe << ';';
    for (const Edge &e : edges)
        os << 'e' << e.src << ',' << e.dst << ',' << e.bytes << ','
           << mechanismName(e.mech) << ';';
    const std::string s = os.str();
    return hash::fnv1aBytes(s.data(), s.size());
}

} // namespace t3dsim::taskgraph

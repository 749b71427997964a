#include "dag.hh"

#include <cmath>

namespace perfbench
{

namespace
{

/** SplitMix64: small, seedable, and fixed by this file alone. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : _state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (_state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + next() % (hi - lo + 1);
    }

  private:
    std::uint64_t _state;
};

/** The request line's "graph" object for graph number @p index. */
std::string
generateGraph(std::uint64_t seed, std::uint64_t index)
{
    SplitMix64 rng(seed * 0x100000001b3ull + index);
    const std::uint32_t n = dagLevels * dagTasksPerLevel;
    std::string out = "{\"name\":\"g" + std::to_string(index) +
                      "\",\"tasks\":[";
    for (std::uint32_t t = 0; t < n; ++t) {
        out += (t ? ",{\"id\":\"t" : "{\"id\":\"t") + std::to_string(t) +
               "\",\"cycles\":" + std::to_string(rng.range(200, 4000)) +
               ",\"flops\":" + std::to_string(rng.range(0, 2000)) + "}";
    }
    out += "],\"edges\":[";
    // Each task past the first level takes its in-edges from distinct
    // tasks of the level just above, so every graph has exactly
    // dagLevels levels. Payload sizes are log-uniform over
    // [dagMinBytes, dagMaxBytes] in 8-byte words, spanning every Auto
    // mechanism threshold.
    const double lo = std::log2(double(dagMinBytes));
    const double hi = std::log2(double(dagMaxBytes));
    bool first = true;
    for (std::uint32_t level = 1; level < dagLevels; ++level) {
        for (std::uint32_t k = 0; k < dagTasksPerLevel; ++k) {
            const std::uint32_t dst = level * dagTasksPerLevel + k;
            const std::uint32_t base = (level - 1) * dagTasksPerLevel;
            const std::uint32_t pick =
                std::uint32_t(rng.next() % dagTasksPerLevel);
            for (std::uint32_t e = 0; e < dagInEdges; ++e) {
                const std::uint32_t src =
                    base + (pick + e) % dagTasksPerLevel;
                const double u = double(rng.next() >> 11) * 0x1p-53;
                const auto words = std::uint64_t(
                    std::exp2(lo + u * (hi - lo)) / 8.0 + 0.5);
                out += std::string(first ? "" : ",") + "{\"src\":\"t" +
                       std::to_string(src) + "\",\"dst\":\"t" +
                       std::to_string(dst) + "\",\"bytes\":" +
                       std::to_string(words * 8) + "}";
                first = false;
            }
        }
    }
    out += "]}";
    return out;
}

} // namespace

std::vector<GenJob>
generateJobs(std::uint64_t seed)
{
    SplitMix64 rng(seed ^ 0x5e7e5e7e5e7e5e7eull);
    std::vector<GenJob> jobs;
    jobs.reserve(serveJobs);
    std::vector<std::size_t> simulate_jobs;
    for (std::size_t i = 0; i < serveJobs; ++i) {
        GenJob job;
        std::string graph;
        if (i % 8 == 7 && !simulate_jobs.empty()) {
            job.repeatOf = std::int64_t(
                simulate_jobs[rng.next() % simulate_jobs.size()]);
            graph = generateGraph(seed, std::uint64_t(job.repeatOf));
        } else {
            job.predict = i % 4 == 1;
            graph = generateGraph(seed, i);
            if (!job.predict)
                simulate_jobs.push_back(i);
        }
        job.line = "{\"id\":\"j" + std::to_string(i) + "\",\"mode\":\"" +
                   (job.predict ? "predict" : "simulate") +
                   "\",\"pes\":" + std::to_string(servePes) +
                   ",\"host_threads\":-1,\"graph\":" + graph + "}";
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace perfbench

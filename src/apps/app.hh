/**
 * @file
 * One application as the rest of the system sees it: a name, an
 * ordered list of ladder rungs, and a way to run one rung on a given
 * machine. EM3D (its six Figure 9 versions), bsort and qcd (the five
 * apps::Variant rungs) each provide one through a factory over their
 * own Config — em3d::app(), apps::bsort::app(), apps::qcd::app() —
 * and apps::suite() lists the three at default configs. Consumers
 * (the model's ladder runner, the benches, the determinism tests)
 * iterate App values instead of naming workloads.
 *
 * The factories wrap each app's own run(); they do not replace it.
 */

#ifndef T3DSIM_APPS_APP_HH
#define T3DSIM_APPS_APP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "machine/config.hh"
#include "probes/counters.hh"
#include "splitc/config.hh"
#include "sim/types.hh"

namespace t3dsim::apps
{

/**
 * An app's output checksum: a 64-bit digest (bsort, qcd: FNV-1a over
 * the output) or a floating-point field sum (EM3D). Each kind keeps
 * its own arithmetic, so a ladder total equals the one summed from
 * the apps' own Results: digests add modulo 2^64, sums add as
 * doubles. The default value is an empty total that takes the kind
 * of the first checksum added to it; adding checksums of different
 * kinds is a bug and throws std::bad_variant_access.
 */
class Checksum
{
  public:
    Checksum() = default;
    explicit Checksum(std::uint64_t digest) : _value(digest) {}
    explicit Checksum(double sum) : _value(sum) {}

    Checksum &
    operator+=(const Checksum &other)
    {
        if (std::holds_alternative<std::monostate>(_value))
            _value = other._value;
        else if (auto *d = std::get_if<std::uint64_t>(&_value))
            *d += std::get<std::uint64_t>(other._value);
        else
            std::get<double>(_value) += std::get<double>(other._value);
        return *this;
    }

    bool operator==(const Checksum &) const = default;

    /** Calls @p fn with the total as its own kind: the uint64
     *  digest or the double sum (int 0 while empty). */
    template <typename Fn>
    void
    visit(Fn &&fn) const
    {
        std::visit(
            [&fn](auto v) {
                if constexpr (std::is_same_v<decltype(v), std::monostate>)
                    fn(0);
                else
                    fn(v);
            },
            _value);
    }

    /** Prints the number under the stream's own precision. */
    friend std::ostream &
    operator<<(std::ostream &os, const Checksum &c)
    {
        c.visit([&os](auto v) { os << v; });
        return os;
    }

  private:
    std::variant<std::monostate, std::uint64_t, double> _value;
};

/** Outcome of one ladder rung, common to every app. */
struct RungResult
{
    Cycles elapsed = 0;

    /** Elapsed microseconds per work unit (App::unit). */
    double perUnit = 0;

    /** Identical across counter modes by construction (and, for
     *  bsort and qcd, across rungs). */
    Checksum checksum;

    /** The app's own verdict: bsort sorted, qcd matched its
     *  reference. EM3D has no reference check and reports true. */
    bool valid = false;

    /**
     * Closed-form per-PE compute cycles of this rung: the p.compute()
     * charges the counter taxonomy does not count, derived from the
     * app's charge sites (docs/MODEL.md §5). The adapter evaluates
     * it with the run because EM3D's depends on the built graph's
     * edge count.
     */
    double computeCyclesPerPe = 0;

    /** Machine-wide counter totals (valid only when the machine ran
     *  with MachineConfig::observe.counters). */
    probes::PerfCounters counters{};
    bool countersValid = false;
};

/** One application: a named ladder of rungs over a fixed Config. */
struct App
{
    std::string name;

    /** The work unit perUnit divides by ("edge", "key",
     *  "site-update"); reports print it as us/<unit>. */
    std::string unit;

    /** Rung names in ladder order. */
    std::vector<std::string> rungs;

    /** Run rung @p rung (an index into rungs) on a fresh machine. */
    std::function<RungResult(std::size_t rung,
                             const machine::MachineConfig &,
                             const splitc::SplitcConfig &)>
        run;
};

/** Rung names of an app's ladder enum, e.g.
 *  rungNames(allVariants, variantName). */
template <typename Rung, std::size_t N>
std::vector<std::string>
rungNames(const Rung (&rungs)[N], const char *(*name)(Rung))
{
    std::vector<std::string> names;
    for (Rung r : rungs)
        names.push_back(name(r));
    return names;
}

/** EM3D, bsort and qcd, in that order, at their default configs. */
std::vector<App> suite();

} // namespace t3dsim::apps

#endif // T3DSIM_APPS_APP_HH

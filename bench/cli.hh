/**
 * @file
 * The one command-line parser of the bench binaries. A binary asks
 * for each option it knows, then done() rejects whatever no question
 * claimed:
 *
 *   cli::Args args(argc, argv, usage);
 *   const bool quick = args.flag("--quick");
 *   args.value("--out", out_path);        // --out=F or --out F
 *   args.done();
 *
 * Names match exactly (`--quik` is not `--quick`) and values are
 * parsed whole (`--band=abc` is an error, not a zero or an abort).
 * Every error prints `error: ...` and the usage text to stderr and
 * exits with status 2.
 */

#ifndef T3DSIM_BENCH_CLI_HH
#define T3DSIM_BENCH_CLI_HH

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace t3dsim::cli
{

/** Parse all of @p text into @p out; false on any leftover. */
template <typename T>
bool
parseWhole(std::string_view text, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        out = text;
        return true;
    } else {
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, out);
        return !text.empty() && ec == std::errc() && ptr == end;
    }
}

class Args
{
  public:
    /** Arguments from argv[@p first] on (2 for a subcommand CLI). */
    Args(int argc, char **argv, std::string usage, int first = 1)
        : _usage(std::move(usage)),
          _args(argv + std::min(first, argc), argv + argc),
          _used(_args.size(), false)
    {
    }

    /** True if the bare flag @p name was given. */
    bool
    flag(std::string_view name)
    {
        return scan(name, Takes::Nothing, [](std::string_view) {});
    }

    /** `--name=V` or `--name V` parsed whole into @p out (the last
     *  one wins); true if given. */
    template <typename T>
    bool
    value(std::string_view name, T &out)
    {
        return scan(name, Takes::Value, [&](std::string_view text) {
            if (!parseWhole(text, out))
                invalid(name, text);
        });
    }

    /** `--name` (sets @p out to @p fallback) or `--name=V`; an
     *  optional value cannot be a separate argument. */
    bool
    optionalValue(std::string_view name, std::string &out,
                  std::string_view fallback)
    {
        return scan(name, Takes::Optional, [&](std::string_view text) {
            out = text.data() ? text : fallback;
        });
    }

    /** Reject the first argument no question claimed. */
    void
    done() const
    {
        for (std::size_t i = 0; i < _args.size(); ++i) {
            if (!_used[i])
                fail("unknown argument '" + _args[i] + "'");
        }
    }

    [[noreturn]] void
    invalid(std::string_view name, std::string_view text) const
    {
        fail("invalid value '" + std::string(text) + "' for " +
             std::string(name));
    }

    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::cerr << "error: " << message << "\n" << _usage;
        std::exit(2);
    }

  private:
    enum class Takes { Nothing, Optional, Value };

    /** Claim every `--name` and (unless it takes nothing) every
     *  `--name=V`, calling @p take(V): a Value option takes the next
     *  argument as V after a bare name, an Optional one a null V. */
    template <typename Fn>
    bool
    scan(std::string_view name, Takes takes, Fn &&take)
    {
        bool seen = false;
        for (std::size_t i = 0; i < _args.size(); ++i) {
            const std::string_view arg = _args[i];
            if (_used[i] || !arg.starts_with(name))
                continue;
            std::string_view text;
            if (takes != Takes::Nothing && arg.size() > name.size() &&
                arg[name.size()] == '=') {
                text = arg.substr(name.size() + 1);
            } else if (arg.size() != name.size()) {
                continue;
            } else if (takes == Takes::Value) {
                if (i + 1 == _args.size())
                    fail("missing value for " + std::string(name));
                _used[i++] = true;
                text = _args[i];
            }
            seen = _used[i] = true;
            take(text);
        }
        return seen;
    }

    std::string _usage;
    std::vector<std::string> _args;
    std::vector<bool> _used;
};

} // namespace t3dsim::cli

#endif // T3DSIM_BENCH_CLI_HH

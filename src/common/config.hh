/**
 * @file
 * Shared key=value input: the checked number parser, the key=value
 * file reader and a string store for command-line arguments.
 *
 * Every numeric input (sweep specs, scenario files, example and
 * bench command lines, PROFESS_* environment variables) goes through
 * parseInt/parseDouble/parseBool, which call fatal() unless the whole
 * text is one value the target type can hold.  Integers take
 * strtoull's base-0 forms (decimal, 0x hex, leading-0 octal).
 * `what` names the input in the error message (a key, flag,
 * environment variable or file:line).
 */

#ifndef PROFESS_COMMON_CONFIG_HH
#define PROFESS_COMMON_CONFIG_HH

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace profess
{

/** @return the bit pattern of v (hash and fingerprint input). */
constexpr std::uint64_t
doubleBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * The checks behind parseInt/parseDouble, for readers that report
 * bad input their own way: true, with `out` set, iff the whole of
 * text is one number (no whitespace, no trailing text, no overflow,
 * and no '-' for an unsigned).  `base` is strtoull's: 0 takes the
 * decimal, 0x hex and leading-0 octal forms, 10 decimal only.
 */
bool scanUnsigned(const std::string &text, std::uint64_t &out,
                  int base = 0);
bool scanDouble(const std::string &text, double &out);

/** parseInt's workers: fatal unless text is an integer in
 *  [min, max] (no whitespace, no trailing text, no '-' unsigned). */
std::uint64_t parseUnsigned(const std::string &text,
                            const std::string &what, std::uint64_t min,
                            std::uint64_t max);
std::int64_t parseSigned(const std::string &text,
                         const std::string &what, std::int64_t min,
                         std::int64_t max);

/** @return text as a T no smaller than min; fatal otherwise. */
template <std::integral T>
    requires(!std::same_as<T, bool>)
T
parseInt(const std::string &text, const std::string &what,
         T min = std::numeric_limits<T>::min())
{
    constexpr T max = std::numeric_limits<T>::max();
    if constexpr (std::is_signed_v<T>)
        return static_cast<T>(parseSigned(text, what, min, max));
    else
        return static_cast<T>(parseUnsigned(text, what, min, max));
}

/** @return environment variable `name` through parseInt, or def when
 *  it is unset or empty. */
template <std::integral T>
T
envInt(const char *name, T def, T min = std::numeric_limits<T>::min())
{
    const char *s = std::getenv(name);
    return s == nullptr || *s == '\0' ? def : parseInt<T>(s, name, min);
}

/** @return text as a finite double; fatal otherwise. */
double parseDouble(const std::string &text, const std::string &what);

/** @return true for true|1|yes|on, false for false|0|no|off; fatal
 *  otherwise. */
bool parseBool(const std::string &text, const std::string &what);

/** @return the non-empty `sep`-separated items of s. */
std::vector<std::string> splitList(const std::string &s, char sep);

/** One key=value token of a key=value file. */
struct KeyValue
{
    std::string key;
    std::string value;
};

/**
 * Read a key=value file: '#' starts a comment; tokens are
 * whitespace-separated key=value pairs.  Calls fn(where, tokens)
 * for every line with a token, where = "file:line" for messages.
 * Fatal if the file (a `kind`) cannot be opened or a token lacks a
 * key or value.
 */
void readKeyValueFile(const std::string &path, const char *kind,
                      const std::function<void(
                          const std::string &,
                          const std::vector<KeyValue> &)> &fn);

/** String-keyed "key=value" store for command-line arguments. */
class Config
{
  public:
    /** @return the value of key, or def when it is absent. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /** @return the value of key through parseInt, or def. */
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def) const;

    /** Parse argv[1..] as "key=value" tokens; fatal on any other. */
    void parseArgs(int argc, char **argv);

    /** Parse one "key=value" token; @return false if malformed. */
    bool parsePair(const std::string &token);

    /** @return all entries, sorted by key. */
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace profess

#endif // PROFESS_COMMON_CONFIG_HH

#include "common/config.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace profess
{

namespace
{

/** strto* skip leading whitespace and stop at junk; we reject both
 *  (and overflow, which they report through errno). */
bool
wholeNumber(const std::string &text, const char *end)
{
    return !text.empty() &&
           !std::isspace(static_cast<unsigned char>(text[0])) &&
           end == text.c_str() + text.size() && errno == 0;
}

} // anonymous namespace

bool
scanUnsigned(const std::string &text, std::uint64_t &out, int base)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, base);
    return wholeNumber(text, end) && text[0] != '-';
}

bool
scanDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text.c_str(), &end);
    // On underflow strtod still returns the nearest double (subnormal
    // or zero), which is what a writer printed; only overflow is out
    // of range.
    if (errno == ERANGE && !std::isinf(out))
        errno = 0;
    return wholeNumber(text, end);
}

std::uint64_t
parseUnsigned(const std::string &text, const std::string &what,
              std::uint64_t min, std::uint64_t max)
{
    std::uint64_t v = 0;
    fatal_if(!scanUnsigned(text, v) || v < min || v > max,
             "%s: '%s' is not an integer in [%llu, %llu]",
             what.c_str(), text.c_str(),
             static_cast<unsigned long long>(min),
             static_cast<unsigned long long>(max));
    return v;
}

std::int64_t
parseSigned(const std::string &text, const std::string &what,
            std::int64_t min, std::int64_t max)
{
    char *end = nullptr;
    errno = 0;
    std::int64_t v = std::strtoll(text.c_str(), &end, 0);
    fatal_if(!wholeNumber(text, end) || v < min || v > max,
             "%s: '%s' is not an integer in [%lld, %lld]",
             what.c_str(), text.c_str(), static_cast<long long>(min),
             static_cast<long long>(max));
    return v;
}

double
parseDouble(const std::string &text, const std::string &what)
{
    double v = 0;
    fatal_if(!scanDouble(text, v) || !std::isfinite(v),
             "%s: '%s' is not a finite number", what.c_str(),
             text.c_str());
    return v;
}

bool
parseBool(const std::string &text, const std::string &what)
{
    if (text == "true" || text == "1" || text == "yes" || text == "on")
        return true;
    if (text == "false" || text == "0" || text == "no" || text == "off")
        return false;
    fatal("%s: '%s' is not a boolean", what.c_str(), text.c_str());
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string item; std::getline(in, item, sep);) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

void
readKeyValueFile(const std::string &path, const char *kind,
                 const std::function<void(
                     const std::string &,
                     const std::vector<KeyValue> &)> &fn)
{
    std::ifstream in(path);
    fatal_if(!in.is_open(), "cannot open %s '%s'", kind, path.c_str());
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        std::string where = path + ":" + std::to_string(lineno);
        std::istringstream tokens(line.substr(0, line.find('#')));
        std::vector<KeyValue> kvs;
        for (std::string tok; tokens >> tok;) {
            std::size_t eq = tok.find('=');
            fatal_if(eq == std::string::npos || eq == 0 ||
                         eq + 1 >= tok.size(),
                     "%s: expected key=value, got '%s'", where.c_str(),
                     tok.c_str());
            kvs.push_back({tok.substr(0, eq), tok.substr(eq + 1)});
        }
        if (!kvs.empty())
            fn(where, kvs);
    }
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = entries_.find(key);
    return it == entries_.end() ? def : it->second;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    auto it = entries_.find(key);
    return it == entries_.end()
               ? def
               : parseInt<std::uint64_t>(it->second, key);
}

bool
Config::parsePair(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    entries_[token.substr(0, eq)] = token.substr(eq + 1);
    return true;
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        fatal_if(!parsePair(argv[i]), "expected key=value, got '%s'",
                 argv[i]);
}

} // namespace profess

#include "common/text_writer.hh"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"

namespace profess
{

const char *
jsonEscape(char c, char (&buf)[8])
{
    switch (c) {
      case '"':
        return "\\\"";
      case '\\':
        return "\\\\";
      case '\n':
        return "\\n";
      case '\t':
        return "\\t";
      case '\r':
        return "\\r";
      default:
        break;
    }
    if (static_cast<unsigned char>(c) >= 0x20)
        return nullptr;
    static constexpr char hex[] = "0123456789abcdef";
    std::memcpy(buf, "\\u00", 4);
    buf[4] = hex[(c >> 4) & 0xf];
    buf[5] = hex[c & 0xf];
    buf[6] = '\0';
    return buf;
}

const char *
labelEscape(char c)
{
    switch (c) {
      case '\\':
        return "\\\\";
      case '"':
        return "\\\"";
      case '\n':
        return "\\n";
      default:
        return nullptr;
    }
}

TextWriter::TextWriter(std::FILE *f, std::size_t capacity)
    : f_(f), buf_(new char[capacity]), cap_(capacity)
{
    panic_if(capacity < 2 * maxNumberChars,
             "TextWriter buffer of %zu bytes is too small", capacity);
}

TextWriter &
TextWriter::put(std::string_view s)
{
    if (cap_ - len_ < s.size()) {
        flush();
        if (s.size() > cap_) {
            std::fwrite(s.data(), 1, s.size(), f_);
            return *this;
        }
    }
    std::memcpy(buf_.get() + len_, s.data(), s.size());
    len_ += s.size();
    return *this;
}

TextWriter &
TextWriter::num(double v)
{
    // An integral value below 2^53 has at most 16 digits, so %.17g
    // prints exactly its integer digits (and "-0" for negative
    // zero).  Counters sampled as doubles and bucket edges take this
    // path, which is several times cheaper than the 17-digit one.
    if (std::fabs(v) < 0x1p53) {
        auto i = static_cast<std::int64_t>(v);
        if (static_cast<double>(i) == v) {
            if (i == 0 && std::signbit(v))
                return put("-0");
            return num(i);
        }
    }
    room(maxNumberChars);
    len_ = static_cast<std::size_t>(
        std::to_chars(buf_.get() + len_, buf_.get() + cap_, v,
                      std::chars_format::general, 17)
            .ptr -
        buf_.get());
    return *this;
}

TextWriter &
TextWriter::fixed(double v, int precision)
{
    panic_if(precision < 0 || precision > 17,
             "TextWriter::fixed precision %d out of range", precision);
    // DBL_MAX has 309 integer digits; sign, point and 17 decimals
    // still fit.
    char tmp[352];
    auto r = std::to_chars(tmp, tmp + sizeof(tmp), v,
                           std::chars_format::fixed, precision);
    return put(std::string_view(tmp, static_cast<std::size_t>(
                                         r.ptr - tmp)));
}

TextWriter &
TextWriter::quoted(std::string_view s)
{
    put('"');
    char buf[8];
    for (char c : s) {
        if (const char *e = jsonEscape(c, buf))
            put(e);
        else
            put(c);
    }
    return put('"');
}

TextWriter &
TextWriter::labelValue(std::string_view s)
{
    for (char c : s) {
        if (const char *e = labelEscape(c))
            put(e);
        else
            put(c);
    }
    return *this;
}

void
TextWriter::flush()
{
    if (len_ != 0)
        std::fwrite(buf_.get(), 1, len_, f_);
    len_ = 0;
}

} // namespace profess

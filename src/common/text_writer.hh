/**
 * @file
 * Buffered text output for the telemetry artifacts (DESIGN.md 4d).
 *
 * TextWriter appends strings, characters and numbers to a fixed
 * heap buffer and hands full buffers to the FILE with one fwrite.
 * Numbers go through std::to_chars, which C++17 defines to produce
 * exactly what printf produces in the C locale:
 *
 *   num(integer)       == "%d" / "%u" / "%" PRIu64 ...
 *   num(double)        == "%.17g"   (to_chars general, 17 digits)
 *   fixed(double, p)   == "%.<p>f"  (to_chars fixed, p digits)
 *
 * so switching a writer from fprintf to TextWriter keeps every
 * output byte (tests/test_telemetry_writer.cc compares the two on
 * edge values and random bit patterns).  Integral doubles below
 * 2^53 are printed through the integer path, which gives the same
 * digits more cheaply.  Nothing is written to the
 * FILE until the buffer fills, flush() is called or the writer is
 * destroyed.  As with fprintf, a failed write shows only in the
 * FILE's error indicator (std::ferror).
 */

#ifndef PROFESS_COMMON_TEXT_WRITER_HH
#define PROFESS_COMMON_TEXT_WRITER_HH

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace profess
{

/**
 * @return the JSON escape sequence for `c` (written into `buf`), or
 * nullptr if `c` stands for itself inside a JSON string.
 */
const char *jsonEscape(char c, char (&buf)[8]);

/** @return the OpenMetrics label-value escape for `c`, or nullptr. */
const char *labelEscape(char c);

/** Buffered, printf-identical text output to a FILE. */
class TextWriter
{
  public:
    static constexpr std::size_t defaultCapacity = 64 * 1024;

    /**
     * @param f Destination (not owned, must outlive the writer).
     * @param capacity Buffer size in bytes (at least 64).
     */
    explicit TextWriter(std::FILE *f,
                        std::size_t capacity = defaultCapacity);
    ~TextWriter() { flush(); }

    TextWriter(const TextWriter &) = delete;
    TextWriter &operator=(const TextWriter &) = delete;

    TextWriter &
    put(char c)
    {
        if (len_ == cap_)
            flush();
        buf_[len_++] = c;
        return *this;
    }

    TextWriter &put(std::string_view s);

    /** Decimal integer, as printf's "%d"/"%u"/"%llu". */
    template <std::integral T>
        requires(!std::same_as<T, bool> && !std::same_as<T, char>)
    TextWriter &
    num(T v)
    {
        room(maxNumberChars);
        len_ = static_cast<std::size_t>(
            std::to_chars(buf_.get() + len_, buf_.get() + cap_, v)
                .ptr -
            buf_.get());
        return *this;
    }

    /** Shortest-exact double, as printf's "%.17g". */
    TextWriter &num(double v);

    /** Fixed-point double, as printf's "%.<precision>f". */
    TextWriter &fixed(double v, int precision);

    /** `s` as a JSON string literal, quotes included. */
    TextWriter &quoted(std::string_view s);

    /** `s` escaped as an OpenMetrics label value (no quotes). */
    TextWriter &labelValue(std::string_view s);

    /** Hand everything buffered so far to the FILE. */
    void flush();

  private:
    /** Longest "%.17g" double or 64-bit integer, rounded up. */
    static constexpr std::size_t maxNumberChars = 32;

    void
    room(std::size_t n)
    {
        if (cap_ - len_ < n)
            flush();
    }

    std::FILE *f_;
    std::unique_ptr<char[]> buf_;
    std::size_t cap_;
    std::size_t len_ = 0;
};

} // namespace profess

#endif // PROFESS_COMMON_TEXT_WRITER_HH

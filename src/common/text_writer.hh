/**
 * @file
 * Buffered text output for the telemetry artifacts (DESIGN.md 4d).
 *
 * TextWriter appends strings, characters and numbers to a fixed
 * heap buffer and hands full buffers to the FILE with one fwrite.
 * Numbers print exactly what printf prints in the C locale:
 *
 *   num(integer)       == "%d" / "%u" / "%" PRIu64 ...
 *   num(double)        == "%.17g"
 *   fixed(double, p)   == "%.<p>f"  (to_chars fixed, p digits)
 *
 * so switching a writer from fprintf to TextWriter keeps every
 * output byte (tests/test_telemetry_writer.cc compares the two on
 * edge values, random bit patterns and a million seeded values).
 * num(double) takes one of three paths:
 *
 *   - integral values below 2^53 print their integer digits;
 *   - 1e-16 <= |v| < 1e17 is rounded to 17 significant digits in
 *     exact integer arithmetic: the 53-bit significand times 5^s
 *     (s <= 32) in 128 bits, shifted by the binary exponent and
 *     rounded half-to-even from the exact remainder, then laid out
 *     as %g does (fixed for decimal exponents -4..16, else
 *     exponent notation, trailing zeros dropped);
 *   - everything else (and the rare s = 33 just below 1e-16) goes
 *     through std::to_chars(general, 17), which C++17 defines to
 *     print what printf prints.
 *
 * Artifacts repeat many non-integral values (a program's slowdown
 * factors sit in every guidance record of an RSM period), so the
 * text of the last 256 such values, one per hash slot of their bit
 * pattern, is kept and copied on a repeat.
 *
 * Strings are copied in bulk: put() of a literal inlines to a
 * bounds check and a fixed-size copy, and quoted() copies every
 * run of characters that needs no escape at once.
 * Nothing is written to the FILE until the buffer fills, flush() is
 * called or the writer is destroyed.  As with fprintf, a failed
 * write shows only in the FILE's error indicator (std::ferror).
 */

#ifndef PROFESS_COMMON_TEXT_WRITER_HH
#define PROFESS_COMMON_TEXT_WRITER_HH

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

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

    TextWriter &
    put(std::string_view s)
    {
        if (cap_ - len_ < s.size())
            return putSlow(s);
        std::memcpy(buf_.get() + len_, s.data(), s.size());
        len_ += s.size();
        return *this;
    }

    /** Decimal integer, as printf's "%d"/"%u"/"%llu". */
    template <std::integral T>
        requires(!std::same_as<T, bool> && !std::same_as<T, char>)
    TextWriter &
    num(T v)
    {
        // Single digits (flags, small ids, kinds) skip to_chars.
        if (static_cast<std::make_unsigned_t<T>>(v) < 10)
            return put(static_cast<char>('0' + v));
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

    /** Hand everything buffered so far to the FILE. */
    void flush();

  private:
    /** Longest "%.17g" double or 64-bit integer, rounded up. */
    static constexpr std::size_t maxNumberChars = 32;

    /** put() of a string that does not fit the buffer's free room. */
    TextWriter &putSlow(std::string_view s);

    void
    room(std::size_t n)
    {
        if (cap_ - len_ < n)
            flush();
    }

    /** The text of one recently printed non-integral double. */
    struct NumText
    {
        std::uint64_t bits = 0; ///< key; 0 (+0.0) never gets here
        std::uint32_t len = 0;
        char text[maxNumberChars];
    };

    /** Slots of the num(double) memo, indexed by a hash of the
     *  value's bits. */
    static constexpr std::size_t numMemoSize = 256;

    std::FILE *f_;
    std::unique_ptr<NumText[]> numMemo_; ///< allocated on first use
    std::unique_ptr<char[]> buf_;
    std::size_t cap_;
    std::size_t len_ = 0;
};

} // namespace profess

#endif // PROFESS_COMMON_TEXT_WRITER_HH

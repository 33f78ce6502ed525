#include "common/text_writer.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
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

namespace
{

constexpr std::uint64_t pow10_16 = 10'000'000'000'000'000ull;
constexpr std::uint64_t pow10_17 = 10 * pow10_16;

/** Largest power of five in the exact path: 5^32 < 2^75, so the
 *  53-bit significand times it fits in 128 bits. */
constexpr int maxPow5 = 32;

using U128 = unsigned __int128;

constexpr std::array<U128, maxPow5 + 1> pow5 = [] {
    std::array<U128, maxPow5 + 1> t{};
    t[0] = 1;
    for (int i = 1; i <= maxPow5; ++i)
        t[i] = t[i - 1] * 5;
    return t;
}();

constexpr char digitPairs[] = "00010203040506070809"
                              "10111213141516171819"
                              "20212223242526272829"
                              "30313233343536373839"
                              "40414243444546474849"
                              "50515253545556575859"
                              "60616263646566676869"
                              "70717273747576777879"
                              "80818283848586878889"
                              "90919293949596979899";

/** Powers of ten 1e-17..1e17 as doubles (exact from 1e0 up). */
constexpr std::array<double, 35> pow10Doubles = {
    1e-17, 1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9,
    1e-8,  1e-7,  1e-6,  1e-5,  1e-4,  1e-3,  1e-2,  1e-1,  1e0,
    1e1,   1e2,   1e3,   1e4,   1e5,   1e6,   1e7,   1e8,   1e9,
    1e10,  1e11,  1e12,  1e13,  1e14,  1e15,  1e16,  1e17};

/** Write the four digits of `v` (< 10^4), zero-padded, to out. */
void
fourDigits(char *out, std::uint32_t v)
{
    std::memcpy(out, digitPairs + 2 * (v / 100), 2);
    std::memcpy(out + 2, digitPairs + 2 * (v % 100), 2);
}

/** Write the eight digits of `v` (< 10^8), zero-padded, to out. */
void
eightDigits(char *out, std::uint32_t v)
{
    fourDigits(out, v / 10000);
    fourDigits(out + 4, v % 10000);
}

/** @return the index of the last byte of `w` (little-endian) that
 *  is not zero, or -1. */
int
lastNonzeroByte(std::uint64_t w)
{
    return w == 0 ? -1 : (63 - std::countl_zero(w)) / 8;
}

/**
 * "%.17g" of `v` through exact integer arithmetic (see the file
 * comment of text_writer.hh).
 *
 * Writes at most 32 bytes at `out` (fixed-size copies; bytes past
 * the returned end are scratch).
 *
 * @return the end of the text, or nullptr when |v| is outside
 *         [1e-16, 1e17) or its digits would need 5^33.
 */
char *
formatG17(char *out, double v)
{
    const double a = std::fabs(v);
    if (!(a >= 1e-16 && a < 1e17))
        return nullptr;
    const auto bits = std::bit_cast<std::uint64_t>(a);
    // a is normal here: a = m * 2^e exactly, m < 2^53.
    const std::uint64_t m =
        (bits & ((std::uint64_t{1} << 52) - 1)) | std::uint64_t{1} << 52;
    const int e = static_cast<int>(bits >> 52) - 1075;
    // a lies in [2^(e+52), 2^(e+53)), so its decimal exponent is x
    // or x + 1 with x = floor((e + 52) * log10(2)); the table picks
    // one (the negative powers are inexact, so the loop below
    // checks the guess and corrects it).
    int x = ((e + 52) * 78913) >> 18;
    if (a >= pow10Doubles[static_cast<std::size_t>(x + 18)])
        ++x;
    // q = floor(a * 10^k) with k = 16 - x has 17 digits iff x is
    // the decimal exponent.
    int k = 16 - x;
    U128 n = 0;
    int shift = 0;
    std::uint64_t q = 0;
    for (;;) {
        if (k > maxPow5)
            return nullptr;
        n = static_cast<U128>(m) * pow5[k];
        shift = e + k; // a * 10^k = n * 2^shift
        q = shift >= 0 ? static_cast<std::uint64_t>(n << shift)
                       : static_cast<std::uint64_t>(n >> -shift);
        if (q < pow10_16)
            ++k;
        else if (q >= pow10_17)
            --k;
        else
            break;
    }
    int exp10 = 16 - k;
    if (shift < 0) {
        // Round to nearest, ties to even, from the exact remainder.
        const U128 rem = n & ((static_cast<U128>(1) << -shift) - 1);
        const U128 half = static_cast<U128>(1) << (-shift - 1);
        if (rem > half || (rem == half && (q & 1) != 0))
            ++q;
        if (q == pow10_17) {
            q = pow10_16;
            ++exp10;
        }
    }

    // The 17 digits, then the position of the last nonzero one
    // (trailing zeros are dropped, as %g does).
    char d[40];
    const std::uint64_t head = q / 100'000'000;
    d[0] = static_cast<char>('0' + head / 100'000'000);
    eightDigits(d + 1, static_cast<std::uint32_t>(head % 100'000'000));
    eightDigits(d + 9, static_cast<std::uint32_t>(q % 100'000'000));
    std::memset(d + 17, '0', sizeof(d) - 17);
    std::uint64_t w1;
    std::uint64_t w2;
    std::memcpy(&w1, d + 1, 8);
    std::memcpy(&w2, d + 9, 8);
    constexpr std::uint64_t zeros = 0x3030303030303030ull;
    int last = 0;
    if (const int i = lastNonzeroByte(w2 - zeros); i >= 0)
        last = 9 + i;
    else if (const int j = lastNonzeroByte(w1 - zeros); j >= 0)
        last = 1 + j;

    char t[64]; // scratch: bytes past the returned end are unused
    char *p = t;
    *p = '-';
    p += v < 0;
    if (exp10 < -4 || exp10 >= 17) {
        // d.ddde-XX: |exp10| <= 17, so two exponent digits.
        p[0] = d[0];
        p[1] = '.';
        std::memcpy(p + 2, d + 1, 16);
        p += last > 0 ? last + 2 : 1;
        p[0] = 'e';
        p[1] = exp10 < 0 ? '-' : '+';
        std::memcpy(p + 2, digitPairs + 2 * std::abs(exp10), 2);
        p += 4;
    } else if (exp10 < 0) {
        // 0.000ddd: -exp10 - 1 zeros after the point.
        std::memcpy(p, "0.000000", 8);
        p += 1 - exp10;
        std::memcpy(p, d, 17);
        p += last + 1;
    } else {
        // ddd.ddd: the point goes after digit exp10, if any
        // significant digit follows it.
        std::memcpy(p, d, 17);
        p += exp10 + 1;
        *p = '.';
        std::memcpy(p + 1, d + exp10 + 1, 16);
        p += last > exp10 ? last - exp10 + 1 : 0;
    }
    std::memcpy(out, t, 32);
    return out + (p - t);
}

} // anonymous namespace

TextWriter::TextWriter(std::FILE *f, std::size_t capacity)
    : f_(f), buf_(new char[capacity]), cap_(capacity)
{
    panic_if(capacity < 2 * maxNumberChars,
             "TextWriter buffer of %zu bytes is too small", capacity);
}

TextWriter &
TextWriter::putSlow(std::string_view s)
{
    flush();
    if (s.size() > cap_) {
        std::fwrite(s.data(), 1, s.size(), f_);
        return *this;
    }
    std::memcpy(buf_.get(), s.data(), s.size());
    len_ = s.size();
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
    if (numMemo_ == nullptr)
        numMemo_ = std::make_unique<NumText[]>(numMemoSize);
    const auto bits = std::bit_cast<std::uint64_t>(v);
    static_assert(numMemoSize == 256, "the top 8 hash bits pick a slot");
    NumText &memo = numMemo_[(bits * 0x9e3779b97f4a7c15ull) >> 56];
    if (memo.bits != bits) {
        char *end = formatG17(memo.text, v);
        if (end == nullptr)
            end = std::to_chars(memo.text, memo.text + maxNumberChars,
                                v, std::chars_format::general, 17)
                      .ptr;
        memo.bits = bits;
        memo.len = static_cast<std::uint32_t>(end - memo.text);
    }
    room(maxNumberChars);
    std::memcpy(buf_.get() + len_, memo.text, maxNumberChars);
    len_ += memo.len;
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
    std::size_t run = 0; // start of the pending unescaped run
    char buf[8];
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (const char *e = jsonEscape(s[i], buf)) {
            put(s.substr(run, i - run)).put(e);
            run = i + 1;
        }
    }
    return put(s.substr(run)).put('"');
}

void
TextWriter::flush()
{
    if (len_ != 0)
        std::fwrite(buf_.get(), 1, len_, f_);
    len_ = 0;
}

} // namespace profess

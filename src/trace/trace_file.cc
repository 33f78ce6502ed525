#include "trace/trace_file.hh"

#include <cstring>

#include "common/logging.hh"

namespace profess
{

namespace trace
{

namespace
{

constexpr char magic[4] = {'P', 'F', 'T', 'R'};
constexpr std::uint32_t version = 1;
constexpr long headerBytes = 4 + 4 + 8 + 8;
constexpr std::uint64_t recordBytes = 8 + 4 + 1;

void
writeU32(std::FILE *fp, std::uint32_t v)
{
    fatal_if(std::fwrite(&v, sizeof(v), 1, fp) != 1,
             "trace write failed");
}

void
writeU64(std::FILE *fp, std::uint64_t v)
{
    fatal_if(std::fwrite(&v, sizeof(v), 1, fp) != 1,
             "trace write failed");
}

bool
readU32(std::FILE *fp, std::uint32_t &v)
{
    return std::fread(&v, sizeof(v), 1, fp) == 1;
}

bool
readU64(std::FILE *fp, std::uint64_t &v)
{
    return std::fread(&v, sizeof(v), 1, fp) == 1;
}

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &path,
                         std::uint64_t footprint_bytes)
    : footprint_(footprint_bytes)
{
    fp_ = std::fopen(path.c_str(), "wb");
    fatal_if(fp_ == nullptr, "cannot open trace file '%s' for write",
             path.c_str());
    fatal_if(std::fwrite(magic, 1, 4, fp_) != 4, "trace write failed");
    writeU32(fp_, version);
    writeU64(fp_, footprint_);
    writeU64(fp_, 0); // patched in close()
}

TraceWriter::~TraceWriter()
{
    if (fp_)
        close();
}

void
TraceWriter::append(const MemAccess &a)
{
    panic_if(fp_ == nullptr, "append after close");
    writeU64(fp_, a.vaddr);
    writeU32(fp_, a.instGap);
    std::uint8_t flags = a.isWrite ? 1 : 0;
    fatal_if(std::fwrite(&flags, 1, 1, fp_) != 1,
             "trace write failed");
    ++count_;
}

void
TraceWriter::close()
{
    if (!fp_)
        return;
    fatal_if(std::fseek(fp_, 4 + 4 + 8, SEEK_SET) != 0,
             "trace seek failed");
    writeU64(fp_, count_);
    std::fclose(fp_);
    fp_ = nullptr;
}

FileTraceSource::FileTraceSource(const std::string &path)
    : path_(path)
{
    fp_ = std::fopen(path.c_str(), "rb");
    fatal_if(fp_ == nullptr, "cannot open trace file '%s'",
             path.c_str());
    char m[4];
    fatal_if(std::fread(m, 1, 4, fp_) != 4 ||
                 std::memcmp(m, magic, 4) != 0,
             "'%s' is not a trace file", path.c_str());
    std::uint32_t ver = 0;
    fatal_if(!readU32(fp_, ver) || ver != version,
             "trace file version mismatch");
    fatal_if(!readU64(fp_, footprint_) || !readU64(fp_, count_),
             "truncated trace header");
    fatal_if(std::fseek(fp_, 0, SEEK_END) != 0,
             "trace seek failed");
    long size = std::ftell(fp_);
    fatal_if(size < headerBytes, "trace '%s': size unknown",
             path.c_str());
    std::uint64_t body = static_cast<std::uint64_t>(size - headerBytes);
    std::uint64_t whole = body / recordBytes;
    fatal_if(whole != count_ || body % recordBytes != 0,
             "trace '%s': header count %llu does not match the file "
             "size (%llu whole records, then %llu bytes of record %llu)",
             path.c_str(), static_cast<unsigned long long>(count_),
             static_cast<unsigned long long>(whole),
             static_cast<unsigned long long>(body % recordBytes),
             static_cast<unsigned long long>(whole));
    reset();
}

FileTraceSource::~FileTraceSource()
{
    if (fp_)
        std::fclose(fp_);
}

bool
FileTraceSource::next(MemAccess &out)
{
    if (pos_ >= count_)
        return false;
    std::uint8_t flags = 0;
    fatal_if(!readU64(fp_, out.vaddr) || !readU32(fp_, out.instGap) ||
                 std::fread(&flags, 1, 1, fp_) != 1,
             "trace '%s': record %llu is truncated", path_.c_str(),
             static_cast<unsigned long long>(pos_));
    fatal_if(flags > 1,
             "trace '%s': record %llu has flag byte 0x%02x (only bit "
             "0, write, is defined)",
             path_.c_str(), static_cast<unsigned long long>(pos_),
             flags);
    fatal_if(out.vaddr >= footprint_,
             "trace '%s': record %llu has vaddr %llu outside the "
             "%llu-byte footprint",
             path_.c_str(), static_cast<unsigned long long>(pos_),
             static_cast<unsigned long long>(out.vaddr),
             static_cast<unsigned long long>(footprint_));
    out.isWrite = flags != 0;
    ++pos_;
    return true;
}

std::uint64_t
FileTraceSource::footprintBytes() const
{
    return footprint_;
}

void
FileTraceSource::reset()
{
    fatal_if(std::fseek(fp_, headerBytes, SEEK_SET) != 0,
             "trace seek failed");
    pos_ = 0;
}

std::uint64_t
recordTrace(TraceSource &src, std::uint64_t n,
            const std::string &path)
{
    TraceWriter w(path, src.footprintBytes());
    MemAccess a;
    std::uint64_t written = 0;
    for (; written < n && src.next(a); ++written)
        w.append(a);
    w.close();
    return written;
}

} // namespace trace

} // namespace profess

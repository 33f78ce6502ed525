/**
 * @file
 * Binary trace recording and replay.
 *
 * Any TraceSource can be recorded to a compact binary file and
 * replayed later, which makes experiments reproducible bit-for-bit
 * across machines and lets users plug in traces captured from real
 * systems (e.g., converted Pin traces) instead of the synthetic
 * generators.
 *
 * File layout (little-endian):
 *   header: magic "PFTR", u32 version, u64 footprintBytes, u64 count
 *   record: u64 vaddr, u32 instGap, u8 flags (bit0 = write)
 */

#ifndef PROFESS_TRACE_TRACE_FILE_HH
#define PROFESS_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <string>

#include "trace/access.hh"

namespace profess
{

namespace trace
{

/** Writer of the binary trace format. */
class TraceWriter
{
  public:
    /**
     * Open a trace file for writing.
     *
     * @param path Output path.
     * @param footprint_bytes Footprint recorded in the header.
     */
    TraceWriter(const std::string &path,
                std::uint64_t footprint_bytes);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one access. */
    void append(const MemAccess &a);

    /** Finalize the header and close the file. */
    void close();

  private:
    std::FILE *fp_ = nullptr;
    std::uint64_t footprint_;
    std::uint64_t count_ = 0;
};

/**
 * TraceSource replaying a recorded file; reset() rewinds.
 *
 * A malformed file is fatal, never a short run: at open, a header
 * count that does not match the file size; on replay, a truncated
 * record, a flag byte with bits other than bit 0, or a vaddr outside
 * the header's footprint.  Each message names the record index.
 */
class FileTraceSource : public TraceSource
{
  public:
    explicit FileTraceSource(const std::string &path);
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    bool next(MemAccess &out) override;
    std::uint64_t footprintBytes() const override;
    void reset() override;

    /** @return number of records in the file. */
    std::uint64_t count() const { return count_; }

  private:
    std::string path_;
    std::FILE *fp_ = nullptr;
    std::uint64_t footprint_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t pos_ = 0;
};

/**
 * Record n accesses of a source into a file.
 *
 * @return number of records written (may be < n if source ends).
 */
std::uint64_t recordTrace(TraceSource &src, std::uint64_t n,
                          const std::string &path);

} // namespace trace

} // namespace profess

#endif // PROFESS_TRACE_TRACE_FILE_HH

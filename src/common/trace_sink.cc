#include "common/trace_sink.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/text_writer.hh"

namespace profess
{

namespace telemetry
{

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::MdmDecide:
        return "mdm_decide";
      case TraceKind::GuidanceCase:
        return "guidance_case";
      case TraceKind::RsmPeriod:
        return "rsm_period";
      case TraceKind::ScenarioEvent:
        return "scenario_event";
      default:
        return "unknown";
    }
}

namespace
{

/** The element storage a sink of type T left behind on this thread
 *  (empty, capacity kept). */
template <typename T>
std::vector<T> &
spareStorage()
{
    thread_local std::vector<T> spare;
    return spare;
}

/** @return an empty vector with room for `n` elements, reusing the
 *  thread's spare storage. */
template <typename T>
std::vector<T>
takeStorage(std::size_t n)
{
    std::vector<T> v;
    v.swap(spareStorage<T>());
    v.reserve(n);
    return v;
}

/** Leave `v`'s storage to the next sink on this thread. */
template <typename T>
void
releaseStorage(std::vector<T> &v)
{
    v.clear();
    v.swap(spareStorage<T>());
}

} // anonymous namespace

//
// DecisionTraceSink
//

DecisionTraceSink::DecisionTraceSink(std::size_t capacity)
    : capacity_(capacity)
{
    panic_if(capacity == 0, "trace ring capacity must be > 0");
    ring_ = takeStorage<TraceRecord>(capacity);
}

DecisionTraceSink::~DecisionTraceSink() { releaseStorage(ring_); }

std::vector<TraceRecord>
DecisionTraceSink::retained() const
{
    std::vector<TraceRecord> out;
    out.reserve(ring_.size());
    forEachRetained([&out](const TraceRecord &r) { out.push_back(r); });
    return out;
}

void
DecisionTraceSink::flushJsonl(std::FILE *f) const
{
    TextWriter w(f);
    forEachRetained([&w](const TraceRecord &r) {
        w.put("{\"tick\":").num(static_cast<std::uint64_t>(r.tick));
        w.put(",\"kind\":\"")
            .put(traceKindName(static_cast<TraceKind>(r.kind)));
        w.put("\",\"group\":").num(r.group);
        w.put(",\"accessor\":").num(r.accessor);
        w.put(",\"m1_owner\":").num(r.m1Owner);
        w.put(",\"q_i\":").num(r.qI);
        w.put(",\"a\":").num(r.a);
        w.put(",\"b\":").num(r.b);
        w.put(",\"margin\":").num(r.margin);
        w.put(",\"detail\":").num(r.detail);
        w.put(",\"swapped\":").num(r.swapped).put("}\n");
    });
    const std::uint64_t retainedN = retainedCount();
    w.put("{\"summary\":{\"total\":").num(total_);
    w.put(",\"retained\":").num(retainedN);
    w.put(",\"dropped\":").num(total_ - retainedN);
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(TraceKind::NumKinds); ++k) {
        w.put(",\"").put(traceKindName(static_cast<TraceKind>(k)));
        w.put("\":").num(kindTotals_[k]);
    }
    w.put(",\"paths\":[");
    for (std::size_t p = 0; p < numPaths; ++p) {
        if (p)
            w.put(',');
        w.num(pathTotals_[p]);
    }
    w.put("],\"path_swaps\":[");
    for (std::size_t p = 0; p < numPaths; ++p) {
        if (p)
            w.put(',');
        w.num(swapTotals_[p]);
    }
    w.put("]}}\n");
}

//
// ChromeTraceSink
//

ChromeTraceSink::ChromeTraceSink(std::size_t max_events)
    : max_(max_events)
{
    events_ = takeStorage<Event>(std::min<std::size_t>(max_events, 4096));
}

ChromeTraceSink::~ChromeTraceSink() { releaseStorage(events_); }

void
ChromeTraceSink::writeJson(
    std::FILE *f,
    const std::vector<std::pair<std::string, const TimerSlot *>>
        &timers) const
{
    TextWriter w(f);
    // Chrome trace-event JSON Array Format wrapped in an object so
    // we can carry metadata.  "ts"/"dur" are microseconds in the
    // viewer; we emit simulation ticks directly (1 tick == 1 us on
    // the viewer axis; see file header).
    w.put("{\"displayTimeUnit\":\"ms\",\"otherData\":"
          "{\"ts_unit\":\"sim_ticks\"},\n\"traceEvents\":[\n");
    bool first = true;
    for (const Event &e : events_) {
        if (!first)
            w.put(",\n");
        first = false;
        w.put("{\"name\":\"").put(e.name);
        w.put("\",\"cat\":\"").put(e.category);
        if (e.instant) {
            w.put("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":")
                .num(static_cast<std::uint64_t>(e.begin));
        } else {
            w.put("\",\"ph\":\"X\",\"ts\":")
                .num(static_cast<std::uint64_t>(e.begin));
            w.put(",\"dur\":").num(static_cast<std::uint64_t>(e.dur));
        }
        w.put(",\"pid\":1,\"tid\":").num(e.tid).put('}');
    }
    // Host wall-clock profiling totals appear as counter samples at
    // ts 0 on their own track, one per TimerSlot.
    for (const auto &t : timers) {
        if (!first)
            w.put(",\n");
        first = false;
        w.put("{\"name\":").quoted(t.first);
        w.put(",\"cat\":\"host\",\"ph\":\"C\",\"ts\":0,\"pid\":1,"
              "\"tid\":0,\"args\":{\"ns\":")
            .num(t.second->ns);
        w.put(",\"calls\":").num(t.second->calls);
        w.put(",\"sampled\":").num(t.second->sampled);
        w.put(",\"est_ns\":").fixed(t.second->estimatedNs(), 0);
        w.put("}}");
    }
    w.put("\n],\n\"dropped\":").num(dropped_).put("}\n");
}

} // namespace telemetry

} // namespace profess

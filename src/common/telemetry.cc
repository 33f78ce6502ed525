#include "common/telemetry.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/event.hh"
#include "common/logging.hh"

namespace profess
{

namespace telemetry
{

namespace
{

/** Write an entry's value: counters as integers, probes as %.17g. */
void
putValue(TextWriter &w, const StatRegistry::Entry &e)
{
    if (e.counter)
        w.num(*e.counter);
    else
        w.num(e.probe());
}

} // namespace

//
// StatRegistry
//

void
StatRegistry::addEntry(Entry e)
{
    // Duplicate dotted names would silently shadow each other in
    // value() and produce ambiguous report columns; scripts/
    // lint_profess.py checks the literals statically, this catches
    // runtime-composed prefixes.  The hash set keeps registration
    // O(1) per entry (a linear contains() made it O(n^2) overall).
    panic_if(!names_.insert(e.name).second,
             "duplicate statistic name '%s'", e.name.c_str());
    entries_.push_back(std::move(e));
    sorted_ = false;
}

void
StatRegistry::addSet(const std::string &prefix, const StatSet &set)
{
    for (std::size_t i = 0; i < set.size(); ++i) {
        Entry e;
        e.name = prefix + "." + set.name(i);
        e.isCounter = true;
        e.counter = &set[i];
        addEntry(std::move(e));
    }
}

void
StatRegistry::addProbe(const std::string &name,
                       std::function<double()> fn)
{
    Entry e;
    e.name = name;
    e.probe = std::move(fn);
    addEntry(std::move(e));
}

void
StatRegistry::addCounter(const std::string &name,
                         const std::uint64_t &c)
{
    Entry e;
    e.name = name;
    e.isCounter = true;
    e.counter = &c;
    addEntry(std::move(e));
}

void
StatRegistry::addHistogram(const std::string &name,
                           const Histogram &h)
{
    // The name itself goes through the duplicate check so a
    // histogram can never shadow a scalar entry (or vice versa);
    // the derived .count/.sum probes are plain entries.
    panic_if(!names_.insert(name).second,
             "duplicate statistic name '%s'", name.c_str());
    histograms_.push_back(HistogramEntry{name, &h});
    histogramsSorted_ = false;
    const Histogram *hp = &h;
    addProbe(name + ".count", [hp]() {
        return static_cast<double>(hp->summary().count());
    });
    addProbe(name + ".sum", [hp]() { return hp->sum(); });
}

const std::vector<StatRegistry::HistogramEntry> &
StatRegistry::histograms() const
{
    if (!histogramsSorted_) {
        std::stable_sort(histograms_.begin(), histograms_.end(),
                         [](const HistogramEntry &a,
                            const HistogramEntry &b) {
                             return a.name < b.name;
                         });
        histogramsSorted_ = true;
    }
    return histograms_;
}

const std::vector<StatRegistry::Entry> &
StatRegistry::entries() const
{
    if (!sorted_) {
        std::stable_sort(entries_.begin(), entries_.end(),
                         [](const Entry &a, const Entry &b) {
                             return a.name < b.name;
                         });
        sorted_ = true;
    }
    return entries_;
}

double
StatRegistry::value(const std::string &name) const
{
    for (const Entry &e : entries()) {
        if (e.name == name) {
            return e.counter ? static_cast<double>(*e.counter)
                             : e.probe();
        }
    }
    return 0.0;
}

bool
StatRegistry::contains(const std::string &name) const
{
    return names_.count(name) != 0;
}

std::vector<std::string>
StatRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries().size());
    for (const Entry &e : entries())
        out.push_back(e.name);
    return out;
}

void
StatRegistry::dumpJson(std::FILE *f) const
{
    TextWriter w(f);
    dumpJson(w);
}

void
StatRegistry::dumpJson(TextWriter &w) const
{
    w.put('{');
    bool first = true;
    for (const Entry &e : entries()) {
        w.put(first ? "\n  " : ",\n  ").quoted(e.name).put(": ");
        putValue(w, e);
        first = false;
    }
    w.put("\n}\n");
}

//
// EpochSampler
//

EpochSampler::EpochSampler(const StatRegistry &registry,
                           Tick interval_ticks,
                           std::size_t ring_capacity)
    : registry_(registry), interval_(interval_ticks),
      capacity_(ring_capacity)
{
    panic_if(interval_ == 0, "EpochSampler interval must be > 0");
    panic_if(capacity_ == 0, "EpochSampler ring capacity must be > 0");
}

void
EpochSampler::select(const std::vector<std::string> &names)
{
    selected_.clear();
    keys_.clear();
    resolved_.clear();
    // entries() is sorted by name and names are unique, so each
    // name resolves by binary search.
    const auto &entries = registry_.entries();
    for (const std::string &n : names) {
        auto it = std::lower_bound(
            entries.begin(), entries.end(), n,
            [](const StatRegistry::Entry &e, const std::string &name) {
                return e.name < name;
            });
        if (it == entries.end() || it->name != n) {
            warn("EpochSampler: unknown stat '%s' dropped",
                 n.c_str());
            continue;
        }
        add(*it);
    }
}

void
EpochSampler::add(const StatRegistry::Entry &e)
{
    std::string key = selected_.empty() ? "" : ",";
    key += jsonQuote(e.name);
    key += ':';
    keys_.push_back(std::move(key));
    selected_.push_back(e.name);
    resolved_.push_back(&e);
}

void
EpochSampler::setOutput(std::FILE *f)
{
    out_.reset(f != nullptr ? new TextWriter(f) : nullptr);
}

void
EpochSampler::flushOutput()
{
    if (out_)
        out_->flush();
}

void
EpochSampler::start(EventQueue &eq)
{
    if (selected_.empty()) {
        for (const StatRegistry::Entry &e : registry_.entries())
            add(e);
    }
    running_ = true;
    arm(eq);
}

void
EpochSampler::arm(EventQueue &eq)
{
    eq.scheduleIn(interval_, [this, &eq]() {
        if (!running_)
            return;
        sampleNow(eq.now());
        arm(eq);
    });
}

void
EpochSampler::sampleNow(Tick tick)
{
    if (resolved_.empty() && !selected_.empty())
        return; // selection got invalidated; nothing to read
    // Until the ring fills, head_ == ring_.size(); afterwards the
    // oldest sample is overwritten in place, reusing its storage.
    if (ring_.size() < capacity_)
        ring_.emplace_back();
    Sample &s = ring_[head_];
    s.tick = tick;
    s.epoch = epoch_;
    s.values.clear();
    s.values.reserve(resolved_.size());
    for (const StatRegistry::Entry *e : resolved_) {
        s.values.push_back(e->counter
                               ? static_cast<double>(*e->counter)
                               : e->probe());
    }
#if PROFESS_DETSAN
    detsan_.mix(s.tick);
    detsan_.mix(s.epoch);
    for (double v : s.values)
        detsan_.mixDouble(v);
#endif
    if (out_) {
        TextWriter &w = *out_;
        w.put("{\"tick\":").num(static_cast<std::uint64_t>(tick));
        w.put(",\"epoch\":").num(epoch_).put(",\"v\":{");
        for (std::size_t i = 0; i < keys_.size(); ++i)
            w.put(keys_[i]).num(s.values[i]);
        w.put("}}\n");
    }
    if (++head_ == capacity_)
        head_ = 0;
    ++epoch_;
}

std::vector<EpochSampler::Sample>
EpochSampler::retained() const
{
    std::vector<Sample> out;
    out.reserve(ring_.size());
    if (ring_.size() < capacity_) {
        out = ring_;
    } else {
        for (std::size_t i = 0; i < capacity_; ++i)
            out.push_back(ring_[(head_ + i) % capacity_]);
    }
    return out;
}

//
// RunManifest and environment probes
//

void
RunManifest::write(std::FILE *f) const
{
    TextWriter w(f);
    w.put("{\n  \"schema\": \"profess-run-manifest-v2\",\n");
    w.put("  \"label\": ").quoted(label).put(",\n");
    w.put("  \"policy\": ").quoted(policy).put(",\n");
    w.put("  \"workload\": ").quoted(workload).put(",\n");
    w.put("  \"seed\": ").num(seed).put(",\n");
    w.put("  \"git_sha\": ").quoted(gitSha).put(",\n");
    w.put("  \"started\": ").quoted(startedIso).put(",\n");
    w.put("  \"wall_seconds\": ").fixed(wallSeconds, 3).put(",\n");
    w.put("  \"peak_rss_kb\": ").num(peakRssKb).put(",\n");
    w.put("  \"config\": ").put(config.empty() ? "{}" : config);
    w.put("\n}\n");
}

std::string
gitHeadSha(const std::string &repo_dir)
{
    auto slurpLine = [](const std::string &path) -> std::string {
        std::ifstream in(path);
        std::string line;
        if (!in || !std::getline(in, line))
            return "";
        while (!line.empty() &&
               (line.back() == '\n' || line.back() == '\r' ||
                line.back() == ' '))
            line.pop_back();
        return line;
    };

    // Binaries usually run from a build subdirectory, so walk up a
    // few levels until a .git appears.
    std::string root = repo_dir;
    std::string head;
    for (int depth = 0; depth < 6; ++depth) {
        head = slurpLine(root + "/.git/HEAD");
        if (!head.empty())
            break;
        root += "/..";
    }
    if (head.empty())
        return "";
    const std::string &dir = root;
    const std::string refPrefix = "ref: ";
    if (head.compare(0, refPrefix.size(), refPrefix) != 0)
        return head; // detached HEAD: the line is the sha itself

    std::string ref = head.substr(refPrefix.size());
    std::string sha = slurpLine(dir + "/.git/" + ref);
    if (!sha.empty())
        return sha;

    // The ref may only exist in packed-refs.
    std::ifstream packed(dir + "/.git/packed-refs");
    std::string line;
    while (packed && std::getline(packed, line)) {
        if (line.empty() || line[0] == '#' || line[0] == '^')
            continue;
        auto sp = line.find(' ');
        if (sp != std::string::npos && line.substr(sp + 1) == ref)
            return line.substr(0, sp);
    }
    return "";
}

std::string
utcNowIso()
{
    std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

long
peakRssKb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // Linux reports KiB
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    char buf[8];
    for (char c : s) {
        if (const char *e = jsonEscape(c, buf))
            out += e;
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace telemetry

} // namespace profess

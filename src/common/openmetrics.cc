#include "common/openmetrics.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <unistd.h>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/text_writer.hh"

namespace profess
{

namespace telemetry
{

namespace
{

/** @return true if the segment is `prefix` followed by digits. */
bool
isInstanceSegment(const std::string &seg, const char *prefix,
                  std::string &digits)
{
    std::size_t n = std::strlen(prefix);
    if (seg.size() <= n || seg.compare(0, n, prefix) != 0)
        return false;
    for (std::size_t i = n; i < seg.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(seg[i])))
            return false;
    }
    digits = seg.substr(n);
    return true;
}

std::vector<std::string>
splitDots(const std::string &dotted)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (start <= dotted.size()) {
        std::size_t dot = dotted.find('.', start);
        if (dot == std::string::npos) {
            segs.push_back(dotted.substr(start));
            break;
        }
        segs.push_back(dotted.substr(start, dot - start));
        start = dot + 1;
    }
    return segs;
}

} // anonymous namespace

MetricName
mapDottedName(const std::string &dotted, bool histogram)
{
    std::vector<std::string> segs = splitDots(dotted);

    // Latency-attribution histograms share one family with the
    // decomposition as labels: latency.p3.m2.read.queue ->
    // profess_latency{program="3",tier="m2",kind="read",
    // phase="queue"}.
    if (histogram && segs.size() == 5 && segs[0] == "latency") {
        std::string prog;
        if (isInstanceSegment(segs[1], "p", prog)) {
            MetricName mn;
            mn.family = "profess_latency";
            mn.labels.emplace_back("program", prog);
            mn.labels.emplace_back("tier", segs[2]);
            mn.labels.emplace_back("kind", segs[3]);
            mn.labels.emplace_back("phase", segs[4]);
            return mn;
        }
    }

    MetricName mn;
    std::string joined;
    std::string digits;
    for (const std::string &seg : segs) {
        if (isInstanceSegment(seg, "ch", digits)) {
            mn.labels.emplace_back("channel", digits);
        } else if (isInstanceSegment(seg, "core", digits)) {
            mn.labels.emplace_back("core", digits);
        } else if (isInstanceSegment(seg, "p", digits)) {
            mn.labels.emplace_back("program", digits);
        } else {
            joined += (joined.empty() ? "" : "_") + seg;
        }
    }
    mn.family = "profess_" + joined;
    return mn;
}

std::string
escapeLabelValue(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (const char *e = labelEscape(s[i])) {
            out.append(s, run, i - run).append(e);
            run = i + 1;
        }
    }
    return out.append(s, run);
}

MetricsSnapshot
MetricsSnapshot::capture(const StatRegistry &registry,
                         const std::string &run_label)
{
    MetricsSnapshot snap;
    snap.run = run_label;

    // The derived "<h>.count"/"<h>.sum" probes duplicate what the
    // histogram family itself exports; skip them here.
    std::vector<std::string> derived;
    for (const auto &he : registry.histograms()) {
        derived.push_back(he.name + ".count");
        derived.push_back(he.name + ".sum");

        Hist h;
        h.name = he.name;
        h.bucketWidth = he.histogram->bucketWidth();
        h.buckets.reserve(he.histogram->numBuckets());
        for (std::size_t i = 0; i < he.histogram->numBuckets(); ++i)
            h.buckets.push_back(he.histogram->bucket(i));
        h.underflow = he.histogram->underflow();
        h.count = he.histogram->summary().count();
        h.sum = he.histogram->sum();
        snap.histograms.push_back(std::move(h));
    }
    std::sort(derived.begin(), derived.end());

    for (const auto &e : registry.entries()) {
        if (std::binary_search(derived.begin(), derived.end(),
                               e.name))
            continue;
        Scalar s;
        s.name = e.name;
        s.isCounter = e.counter != nullptr;
        s.value = e.counter ? static_cast<double>(*e.counter)
                            : e.probe();
        snap.scalars.push_back(std::move(s));
    }
    return snap;
}

namespace
{

struct ScalarSample
{
    std::string run;
    std::string dotted;
    std::vector<std::pair<std::string, std::string>> labels;
    double value;
};

struct HistSample
{
    std::string run;
    std::string dotted;
    std::vector<std::pair<std::string, std::string>> labels;
    const MetricsSnapshot::Hist *hist;
};

/** One exposition family: scalar-typed or histogram-typed. */
struct Family
{
    const char *type = nullptr; ///< "counter"/"gauge"/"histogram"
    std::vector<ScalarSample> scalars;
    std::vector<HistSample> hists;
};

void
setType(Family &fam, const char *type, const std::string &name)
{
    if (fam.type == nullptr) {
        fam.type = type;
        return;
    }
    panic_if(std::strcmp(fam.type, type) != 0,
             "OpenMetrics family '%s' mixes %s and %s samples",
             name.c_str(), fam.type, type);
}

/**
 * @return `{labels...,run="..."` — everything but the closing brace,
 * so histogram buckets can append their le label.
 */
std::string
openLabels(const std::vector<std::pair<std::string, std::string>>
               &labels,
           const std::string &run)
{
    std::string s(1, '{');
    for (const auto &kv : labels) {
        s.append(kv.first).append("=\"");
        s.append(escapeLabelValue(kv.second)).append("\",");
    }
    return s.append("run=\"").append(escapeLabelValue(run)).append(1, '"');
}

} // anonymous namespace

void
writeOpenMetrics(std::FILE *f,
                 const std::vector<MetricsSnapshot> &runs)
{
    std::map<std::string, Family> families;

    for (const MetricsSnapshot &snap : runs) {
        for (const auto &s : snap.scalars) {
            MetricName mn = mapDottedName(s.name, false);
            Family &fam = families[mn.family];
            setType(fam, s.isCounter ? "counter" : "gauge",
                    mn.family);
            fam.scalars.push_back(ScalarSample{
                snap.run, s.name, std::move(mn.labels), s.value});
        }
        for (const auto &h : snap.histograms) {
            MetricName mn = mapDottedName(h.name, true);
            Family &fam = families[mn.family];
            setType(fam, "histogram", mn.family);
            fam.hists.push_back(HistSample{
                snap.run, h.name, std::move(mn.labels), &h});
        }
    }

    TextWriter w(f);
    for (auto &fkv : families) {
        const std::string &name = fkv.first;
        Family &fam = fkv.second;
        w.put("# TYPE ").put(name).put(' ').put(fam.type).put('\n');

        auto byRunThenName = [](const auto &a, const auto &b) {
            if (a.run != b.run)
                return a.run < b.run;
            return a.dotted < b.dotted;
        };
        std::sort(fam.scalars.begin(), fam.scalars.end(),
                  byRunThenName);
        std::sort(fam.hists.begin(), fam.hists.end(),
                  byRunThenName);

        bool counter = std::strcmp(fam.type, "counter") == 0;
        for (const ScalarSample &s : fam.scalars) {
            w.put(name).put(counter ? "_total" : "");
            w.put(openLabels(s.labels, s.run));
            w.put("} ").num(s.value).put('\n');
        }

        for (const HistSample &hs : fam.hists) {
            const MetricsSnapshot::Hist &h = *hs.hist;
            // Every line of the sample repeats its labels, so they
            // are rendered once.
            const std::string labels = openLabels(hs.labels, hs.run);
            // Cumulative buckets: underflow samples (x < 0) fall in
            // every bucket; the last stored bucket is the overflow
            // count and only contributes to +Inf.
            std::uint64_t cum = h.underflow;
            for (std::size_t i = 0; i + 1 < h.buckets.size(); ++i) {
                cum += h.buckets[i];
                w.put(name).put("_bucket").put(labels);
                w.put(",le=\"")
                    .num(h.bucketWidth * static_cast<double>(i + 1))
                    .put("\"} ")
                    .num(cum)
                    .put('\n');
            }
            w.put(name).put("_bucket").put(labels);
            w.put(",le=\"+Inf\"} ").num(h.count).put('\n');
            w.put(name).put("_count").put(labels);
            w.put("} ").num(h.count).put('\n');
            w.put(name).put("_sum").put(labels);
            w.put("} ").num(h.sum).put('\n');
        }
    }
    w.put("# EOF\n");
}

void
writeOpenMetricsFile(const std::string &path,
                     const std::vector<MetricsSnapshot> &runs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    fatal_if(f == nullptr, "cannot write metrics file '%s'",
             path.c_str());
    writeOpenMetrics(f, runs);
    std::fclose(f);
}

namespace
{

/** fflush + fsync + fclose + rename(tmp -> path); fatal on error. */
void
commitFile(std::FILE *f, const std::string &tmp,
           const std::string &path)
{
    // A failed fwrite of an earlier buffer leaves only the error
    // indicator behind; fflush alone would not report it.
    fatal_if(std::fflush(f) != 0 || std::ferror(f) != 0,
             "cannot write '%s': %s", tmp.c_str(),
             std::strerror(errno));
    fatal_if(::fsync(::fileno(f)) != 0, "cannot fsync '%s': %s",
             tmp.c_str(), std::strerror(errno));
    std::fclose(f);
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "cannot rename '%s' to '%s': %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
}

} // anonymous namespace

void
writeOpenMetricsFileAtomic(const std::string &path,
                           const std::vector<MetricsSnapshot> &runs)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    fatal_if(f == nullptr, "cannot write metrics file '%s'",
             tmp.c_str());
    writeOpenMetrics(f, runs);
    commitFile(f, tmp, path);
}

void
writeMetricsShardFile(const std::string &path,
                      const MetricsSnapshot &snap)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    fatal_if(f == nullptr, "cannot write metrics shard '%s'",
             tmp.c_str());
    // Run labels may contain spaces; "run" consumes the rest of the
    // line.  Dotted names never contain whitespace (the stat-name
    // lint), so the remaining records are space-tokenized.
    {
        TextWriter w(f);
        w.put("profess-shard 1\nrun ").put(snap.run).put('\n');
        for (const auto &s : snap.scalars) {
            w.put("scalar ").put(s.name).put(' ');
            w.put(s.isCounter ? 'c' : 'g').put(' ').num(s.value);
            w.put('\n');
        }
        for (const auto &h : snap.histograms) {
            w.put("hist ").put(h.name).put(' ').num(h.bucketWidth);
            w.put(' ').num(h.underflow).put(' ').num(h.count);
            w.put(' ').num(h.sum).put(' ').num(h.buckets.size());
            for (std::uint64_t b : h.buckets)
                w.put(' ').num(b);
            w.put('\n');
        }
        w.put("end\n");
    }
    commitFile(f, tmp, path);
}

namespace
{

std::uint64_t
shardU64(const std::string &path, int lineno, const std::string &tok)
{
    std::uint64_t v = 0;
    fatal_if(!scanUnsigned(tok, v, 10),
             "%s:%d: bad integer '%s' in metrics shard",
             path.c_str(), lineno, tok.c_str());
    return v;
}

double
shardDouble(const std::string &path, int lineno,
            const std::string &tok)
{
    double v = 0;
    fatal_if(!scanDouble(tok, v),
             "%s:%d: bad number '%s' in metrics shard", path.c_str(),
             lineno, tok.c_str());
    return v;
}

} // anonymous namespace

MetricsSnapshot
readMetricsShardFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in.is_open(), "cannot open metrics shard '%s'",
             path.c_str());
    MetricsSnapshot snap;
    std::string line;
    int lineno = 0;
    bool have_run = false;
    bool have_end = false;

    fatal_if(!std::getline(in, line) || line != "profess-shard 1",
             "%s:1: not a profess-shard v1 file", path.c_str());
    lineno = 1;

    while (std::getline(in, line)) {
        ++lineno;
        fatal_if(have_end, "%s:%d: content after 'end'",
                 path.c_str(), lineno);
        if (line.rfind("run ", 0) == 0) {
            snap.run = line.substr(4);
            have_run = true;
            continue;
        }
        if (line == "end") {
            have_end = true;
            continue;
        }
        std::istringstream is(line);
        std::string rec;
        is >> rec;
        if (rec == "scalar") {
            std::string name, kind, val;
            is >> name >> kind >> val;
            fatal_if(is.fail() || (kind != "c" && kind != "g"),
                     "%s:%d: malformed scalar record", path.c_str(),
                     lineno);
            MetricsSnapshot::Scalar s;
            s.name = name;
            s.isCounter = (kind == "c");
            s.value = shardDouble(path, lineno, val);
            snap.scalars.push_back(std::move(s));
        } else if (rec == "hist") {
            std::string name, width, under, count, sum, nbuckets;
            is >> name >> width >> under >> count >> sum >> nbuckets;
            fatal_if(is.fail(), "%s:%d: malformed hist record",
                     path.c_str(), lineno);
            MetricsSnapshot::Hist h;
            h.name = name;
            h.bucketWidth = shardDouble(path, lineno, width);
            h.underflow = shardU64(path, lineno, under);
            h.count = shardU64(path, lineno, count);
            h.sum = shardDouble(path, lineno, sum);
            std::size_t n = shardU64(path, lineno, nbuckets);
            for (std::size_t i = 0; i < n; ++i) {
                std::string b;
                is >> b;
                fatal_if(is.fail(), "%s:%d: hist record truncated",
                         path.c_str(), lineno);
                h.buckets.push_back(shardU64(path, lineno, b));
            }
            snap.histograms.push_back(std::move(h));
        } else {
            fatal("%s:%d: unknown shard record '%s'", path.c_str(),
                  lineno, rec.c_str());
        }
    }
    fatal_if(!have_run || !have_end,
             "%s: truncated metrics shard (missing %s)",
             path.c_str(), have_run ? "'end'" : "'run'");
    return snap;
}

} // namespace telemetry

} // namespace profess

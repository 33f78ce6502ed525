#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "sim/run_telemetry.hh"
#include "sim/scenario.hh"
#include "sim/workloads.hh"
#include "trace/spec_profiles.hh"

namespace profess
{

namespace sim
{

std::vector<std::string>
SweepSpec::mixPrograms(const std::string &mix)
{
    if (const WorkloadSpec *w = findWorkload(mix)) {
        return std::vector<std::string>(w->programs.begin(),
                                        w->programs.end());
    }
    std::vector<std::string> progs = splitList(mix, '+');
    fatal_if(progs.empty(), "sweep: empty workload mix");
    for (const std::string &p : progs) {
        fatal_if(trace::findProfile(p) == nullptr,
                 "sweep: '%s' in mix '%s' is neither a Table 10 "
                 "workload nor a Table 9 program",
                 p.c_str(), mix.c_str());
    }
    return progs;
}

SweepSpec
SweepSpec::fromFile(const std::string &path)
{
    SweepSpec s;
    s.seeds.clear();
    readKeyValueFile(path, "sweep spec", [&](const std::string &where,
                                             const auto &tokens) {
        const char *at = where.c_str();
        for (const auto &[key, val] : tokens) {
            std::string what = where + ": " + key;
            if (key == "preset") {
                fatal_if(val != "quad" && val != "single",
                         "%s: preset must be quad or single, got '%s'",
                         at, val.c_str());
                s.preset = val;
            } else if (key == "policy") {
                for (const std::string &p : splitList(val, ','))
                    s.policies.push_back(p);
            } else if (key == "workload") {
                for (const std::string &m : splitList(val, ','))
                    s.mixes.push_back(m);
            } else if (key == "seed") {
                for (const std::string &v : splitList(val, ','))
                    s.seeds.push_back(
                        parseInt<std::uint64_t>(v, what));
            } else if (key == "slowdowns") {
                s.slowdowns = parseBool(val, what);
            } else if (key == "sweep") {
                fatal_if(!s.sweepKey.empty(),
                         "%s: a sweep file sweeps at most one axis "
                         "(already sweeping '%s')",
                         at, s.sweepKey.c_str());
                std::size_t colon = val.find(':');
                fatal_if(colon == std::string::npos || colon == 0 ||
                             colon + 1 >= val.size(),
                         "%s: sweep needs <key>:<v1,v2,...>, got '%s'",
                         at, val.c_str());
                s.sweepKey = val.substr(0, colon);
                fatal_if(!isSweepConfigKey(s.sweepKey),
                         "%s: '%s' is not a sweepable config key", at,
                         s.sweepKey.c_str());
                for (const std::string &v :
                     splitList(val.substr(colon + 1), ','))
                    s.sweepValues.push_back(parseDouble(v, what));
                fatal_if(s.sweepValues.empty(),
                         "%s: sweep axis '%s' has no values", at,
                         s.sweepKey.c_str());
            } else if (isSweepConfigKey(key)) {
                s.overrides.push_back(
                    ConfigOverride{key, parseDouble(val, what)});
            } else {
                fatal("%s: unknown key '%s'", at, key.c_str());
            }
        }
    });
    fatal_if(s.policies.empty(), "%s: no policy= given",
             path.c_str());
    fatal_if(s.mixes.empty(), "%s: no workload= given",
             path.c_str());
    if (s.seeds.empty())
        s.seeds.push_back(1);
    for (const ConfigOverride &o : s.overrides) {
        fatal_if(o.key == s.sweepKey,
                 "%s: '%s' is both fixed and swept", path.c_str(),
                 o.key.c_str());
    }
    // Validate mixes and the full config grid up front: a bad name
    // or knob value should fail at parse time, not runs later.
    for (const std::string &m : s.mixes)
        mixPrograms(m);
    for (std::size_t p = 0; p < s.numSweepPoints(); ++p)
        s.configAt(p);
    return s;
}

std::uint64_t
SweepSpec::fingerprint() const
{
    std::uint64_t h = mix64(0x53eeb001ull);
    h = hashCombine(h, preset);
    h = hashCombine(h, policies.size());
    for (const std::string &p : policies)
        h = hashCombine(h, p);
    h = hashCombine(h, mixes.size());
    for (const std::string &m : mixes)
        h = hashCombine(h, m);
    h = hashCombine(h, seeds.size());
    for (std::uint64_t s : seeds)
        h = hashCombine(h, s);
    h = hashCombine(h, static_cast<std::uint64_t>(slowdowns));
    h = hashCombine(h, overrides.size());
    for (const ConfigOverride &o : overrides) {
        h = hashCombine(h, o.key);
        h = hashCombine(h, doubleBits(o.value));
    }
    h = hashCombine(h, sweepKey);
    h = hashCombine(h, sweepValues.size());
    for (double v : sweepValues)
        h = hashCombine(h, doubleBits(v));
    return h;
}

SystemConfig
SweepSpec::configAt(std::size_t point) const
{
    SystemConfig cfg = preset == "single"
                           ? SystemConfig::singleCore()
                           : SystemConfig::quadCore();
    for (const ConfigOverride &o : overrides)
        applySweepConfigKey(cfg, o.key, o.value);
    if (!sweepKey.empty())
        applySweepConfigKey(cfg, sweepKey, sweepValues.at(point));
    return cfg;
}

std::size_t
SweepSpec::numRuns() const
{
    return numSweepPoints() * mixes.size() * policies.size() *
           seeds.size();
}

std::vector<RunJob>
SweepSpec::expand() const
{
    std::vector<RunJob> out;
    out.reserve(numRuns());
    const bool swept = !sweepKey.empty();
    for (std::size_t p = 0; p < numSweepPoints(); ++p) {
        SystemConfig cfg = configAt(p);
        for (const std::string &mix : mixes) {
            std::vector<std::string> progs = mixPrograms(mix);
            for (const std::string &pol : policies) {
                for (std::uint64_t seed : seeds) {
                    RunJob j;
                    j.cfg = cfg;
                    j.policy = pol;
                    j.programs = progs;
                    j.label = mix;
                    // Several seeds of one mix need distinct
                    // labels: the label seeds the run and names
                    // its telemetry shard.
                    if (seeds.size() > 1)
                        j.label += "_r" + std::to_string(seed);
                    // 1-based so every swept point gets an "_s<p>"
                    // telemetry suffix (sweepPoint 0 = unswept).
                    j.sweepPoint = swept ? p + 1 : 0;
                    j.slowdowns = slowdowns;
                    j.baseSeed = seed;
                    out.push_back(std::move(j));
                }
            }
        }
    }
    return out;
}

//
// Journal line rendering and parsing
//

namespace
{

/** Minimal JSON scalar: string, raw number token, or bool. */
struct JsonValue
{
    enum Kind { Str, Num, Bool } kind = Num;
    std::string text; ///< decoded string / raw number token
    bool b = false;
};

bool
skipWs(const std::string &s, std::size_t &i)
{
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i < s.size();
}

bool
parseJsonString(const std::string &s, std::size_t &i,
                std::string &out)
{
    if (i >= s.size() || s[i] != '"')
        return false;
    ++i;
    out.clear();
    while (i < s.size()) {
        char c = s[i++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out.push_back(c);
            continue;
        }
        if (i >= s.size())
            return false;
        char e = s[i++];
        switch (e) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'u': {
            if (i + 4 > s.size())
                return false;
            unsigned v = 0;
            for (unsigned k = 0; k < 4; ++k) {
                char h = s[i++];
                v <<= 4;
                if (h >= '0' && h <= '9')
                    v |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    v |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    v |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return false;
            }
            if (v > 0xff)
                return false; // jsonQuote only emits \u00xx
            out.push_back(static_cast<char>(v));
            break;
          }
          default:
            return false;
        }
    }
    return false;
}

/**
 * Parse one journal line as a flat JSON object of scalars.  This
 * is the exact inverse of the renderer below (plus whitespace
 * tolerance); anything else — truncation included — returns false.
 */
bool
parseJsonObject(const std::string &line,
                std::map<std::string, JsonValue> &out)
{
    out.clear();
    std::size_t i = 0;
    if (!skipWs(line, i) || line[i] != '{')
        return false;
    ++i;
    if (!skipWs(line, i))
        return false;
    if (line[i] == '}') {
        ++i;
    } else {
        while (true) {
            std::string key;
            if (!skipWs(line, i) ||
                !parseJsonString(line, i, key))
                return false;
            if (!skipWs(line, i) || line[i] != ':')
                return false;
            ++i;
            if (!skipWs(line, i))
                return false;
            JsonValue v;
            if (line[i] == '"') {
                v.kind = JsonValue::Str;
                if (!parseJsonString(line, i, v.text))
                    return false;
            } else if (line.compare(i, 4, "true") == 0) {
                v.kind = JsonValue::Bool;
                v.b = true;
                i += 4;
            } else if (line.compare(i, 5, "false") == 0) {
                v.kind = JsonValue::Bool;
                v.b = false;
                i += 5;
            } else {
                v.kind = JsonValue::Num;
                std::size_t start = i;
                while (i < line.size() &&
                       (std::isdigit(static_cast<unsigned char>(
                            line[i])) ||
                        std::strchr("+-.eE", line[i]) != nullptr))
                    ++i;
                if (i == start)
                    return false;
                v.text = line.substr(start, i - start);
            }
            if (out.count(key) != 0)
                return false;
            out.emplace(std::move(key), std::move(v));
            if (!skipWs(line, i))
                return false;
            if (line[i] == ',') {
                ++i;
                continue;
            }
            if (line[i] == '}') {
                ++i;
                break;
            }
            return false;
        }
    }
    return !skipWs(line, i); // nothing but whitespace may follow
}

bool
getStr(const std::map<std::string, JsonValue> &obj,
       const char *key, std::string &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.kind != JsonValue::Str)
        return false;
    out = it->second.text;
    return true;
}

bool
getBool(const std::map<std::string, JsonValue> &obj,
        const char *key, bool &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.kind != JsonValue::Bool)
        return false;
    out = it->second.b;
    return true;
}

bool
getU64(const std::map<std::string, JsonValue> &obj, const char *key,
       std::uint64_t &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.kind != JsonValue::Num)
        return false;
    return scanUnsigned(it->second.text, out, 10);
}

bool
getDouble(const std::map<std::string, JsonValue> &obj,
          const char *key, double &out)
{
    auto it = obj.find(key);
    if (it == obj.end() || it->second.kind != JsonValue::Num)
        return false;
    return scanDouble(it->second.text, out);
}

/** Append "%.17g" of `v` (round-trips binary64 exactly). */
void
appendG17(std::string &s, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    s += buf;
}

std::string
renderRecord(const SweepRunRecord &r)
{
    std::string s = "{\"i\":";
    s += std::to_string(r.index);
    s += ",\"key\":";
    s += telemetry::jsonQuote(r.key);
    s += ",\"label\":";
    s += telemetry::jsonQuote(r.label);
    s += ",\"policy\":";
    s += telemetry::jsonQuote(r.policy);
    s += ",\"seed\":";
    s += std::to_string(r.seed);
    s += ",\"sweep\":";
    s += std::to_string(r.sweepPoint);
    s += ",\"shard\":";
    s += telemetry::jsonQuote(r.shard);
    s += ",\"completed\":";
    s += r.completed ? "true" : "false";
    s += ",\"ws\":";
    appendG17(s, r.weightedSpeedup);
    s += ",\"maxsd\":";
    appendG17(s, r.maxSlowdown);
    s += ",\"eff\":";
    appendG17(s, r.efficiency);
    s += ",\"served\":";
    s += std::to_string(r.servedTotal);
    s += ",\"swaps\":";
    s += std::to_string(r.swaps);
    s += "}\n";
    return s;
}

bool
parseRecordLine(const std::string &line, SweepRunRecord &rec)
{
    std::map<std::string, JsonValue> obj;
    if (!parseJsonObject(line, obj))
        return false;
    std::uint64_t idx = 0;
    if (!getU64(obj, "i", idx) || !getStr(obj, "key", rec.key) ||
        !getStr(obj, "label", rec.label) ||
        !getStr(obj, "policy", rec.policy) ||
        !getU64(obj, "seed", rec.seed) ||
        !getU64(obj, "sweep", rec.sweepPoint) ||
        !getStr(obj, "shard", rec.shard) ||
        !getBool(obj, "completed", rec.completed) ||
        !getDouble(obj, "ws", rec.weightedSpeedup) ||
        !getDouble(obj, "maxsd", rec.maxSlowdown) ||
        !getDouble(obj, "eff", rec.efficiency) ||
        !getU64(obj, "served", rec.servedTotal) ||
        !getU64(obj, "swaps", rec.swaps))
        return false;
    rec.index = idx;
    return true;
}

std::string
renderHeader(std::uint64_t spec_fp, std::size_t runs)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"profess_sweep\":1,\"spec\":\"%016llx\","
                  "\"runs\":%zu}\n",
                  static_cast<unsigned long long>(spec_fp), runs);
    return buf;
}

bool
fileExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

void
flushSync(std::FILE *f, const std::string &path)
{
    fatal_if(std::fflush(f) != 0, "cannot flush '%s': %s",
             path.c_str(), std::strerror(errno));
    fatal_if(::fsync(::fileno(f)) != 0, "cannot fsync '%s': %s",
             path.c_str(), std::strerror(errno));
}

/** Force the process-wide metricsOut for the driver's scope. */
class ScopedMetricsOut
{
  public:
    explicit ScopedMetricsOut(std::string path)
        : saved_(TelemetryConfig::global().metricsOut)
    {
        TelemetryConfig::global().metricsOut = std::move(path);
    }

    ~ScopedMetricsOut()
    {
        TelemetryConfig::global().metricsOut = saved_;
    }

  private:
    std::string saved_;
};

} // anonymous namespace

//
// SweepDriver
//

SweepDriver::SweepDriver(const SweepSpec &spec, const Options &opts)
    : spec_(spec), opts_(opts)
{
    fatal_if(opts_.outDir.empty(), "sweep: no output directory");
    // The scenario schedule changes every run's trajectory, so a
    // journal written under one schedule must not satisfy a resume
    // under another.
    specFp_ = hashCombine(spec_.fingerprint(),
                          ScenarioConfig::global().fingerprint());
    jobs_ = spec_.expand();
    keys_.reserve(jobs_.size());
    labels_.reserve(jobs_.size());
    shards_.reserve(jobs_.size());
    for (const RunJob &j : jobs_) {
        // Mirror ParallelRunner::runOne exactly: the derived seed,
        // the "_s<point>" telemetry suffix and the "<label>_<policy>"
        // snapshot label must name the same run the DetSan journal
        // and the metrics shard see.
        std::uint64_t seed = deriveSeed(j.baseSeed, j.policy,
                                        j.label, j.sweepPoint);
        std::string tlabel = j.label;
        if (j.sweepPoint != 0)
            tlabel += "_s" + std::to_string(j.sweepPoint);
        keys_.push_back(runIdentityKey(j.cfg, j.footprintScale,
                                       tlabel, j.policy, j.programs,
                                       seed));
        labels_.push_back(tlabel);
        shards_.push_back(MetricsCollector::shardFileName(
            tlabel + "_" + j.policy));
    }
    records_.assign(jobs_.size(), SweepRunRecord{});
    done_.assign(jobs_.size(), false);
}

SweepDriver::~SweepDriver()
{
    if (journal_ != nullptr)
        std::fclose(journal_);
}

void
SweepDriver::setRunCallback(
    std::function<void(std::size_t, std::size_t)> cb)
{
    callback_ = std::move(cb);
}

std::string
SweepDriver::journalPath() const
{
    return opts_.outDir + "/sweep.journal.jsonl";
}

std::string
SweepDriver::metricsPath() const
{
    return opts_.outDir + "/metrics.prom";
}

void
SweepDriver::removeOutputs()
{
    ::unlink(journalPath().c_str());
    ::unlink(metricsPath().c_str());
    std::string dir = MetricsCollector::shardDir(metricsPath());
    if (::DIR *d = ::opendir(dir.c_str())) {
        std::vector<std::string> names;
        while (struct dirent *de = ::readdir(d)) {
            std::string name = de->d_name;
            if (name != "." && name != "..")
                names.push_back(std::move(name));
        }
        ::closedir(d);
        for (const std::string &name : names)
            ::unlink((dir + "/" + name).c_str());
    }
}

void
SweepDriver::loadJournal()
{
    const std::string path = journalPath();
    const std::string shard_dir =
        MetricsCollector::shardDir(metricsPath());
    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        if (in.is_open()) {
            content.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
        }
    }

    // Split keeping each line's byte offset so a torn tail can be
    // truncated away in place.
    std::vector<std::pair<std::size_t, std::string>> lines;
    std::size_t pos = 0;
    while (pos < content.size()) {
        std::size_t nl = content.find('\n', pos);
        std::size_t end =
            nl == std::string::npos ? content.size() : nl;
        lines.emplace_back(pos, content.substr(pos, end - pos));
        pos = end + 1;
    }

    if (lines.empty()) {
        // New (or empty) journal: write the header, durably, before
        // any run can complete.
        journal_ = std::fopen(path.c_str(), "w");
        fatal_if(journal_ == nullptr,
                 "cannot write sweep journal '%s': %s", path.c_str(),
                 std::strerror(errno));
        std::string hdr = renderHeader(specFp_, jobs_.size());
        std::fputs(hdr.c_str(), journal_);
        flushSync(journal_, path);
        return;
    }

    std::map<std::string, JsonValue> hdr;
    std::uint64_t version = 0;
    std::string spec_hex;
    std::uint64_t runs = 0;
    bool hdr_ok = parseJsonObject(lines[0].second, hdr) &&
                  getU64(hdr, "profess_sweep", version) &&
                  getStr(hdr, "spec", spec_hex) &&
                  getU64(hdr, "runs", runs);
    if (!hdr_ok && lines.size() == 1) {
        // A journal torn inside its very first write holds no runs;
        // start over.
        warn("sweep: discarding torn journal header in '%s'",
             path.c_str());
        journal_ = std::fopen(path.c_str(), "w");
        fatal_if(journal_ == nullptr,
                 "cannot write sweep journal '%s': %s", path.c_str(),
                 std::strerror(errno));
        std::string h = renderHeader(specFp_, jobs_.size());
        std::fputs(h.c_str(), journal_);
        flushSync(journal_, path);
        return;
    }
    fatal_if(!hdr_ok, "%s: corrupt sweep journal header",
             path.c_str());
    char want_hex[24];
    std::snprintf(want_hex, sizeof(want_hex), "%016llx",
                  static_cast<unsigned long long>(specFp_));
    fatal_if(version != 1 || spec_hex != want_hex ||
                 runs != jobs_.size(),
             "%s: journal belongs to a different sweep "
             "(spec %s/%llu runs, this spec %s/%zu runs); pass "
             "--fresh to discard it",
             path.c_str(), spec_hex.c_str(),
             static_cast<unsigned long long>(runs), want_hex,
             jobs_.size());

    for (std::size_t k = 1; k < lines.size(); ++k) {
        SweepRunRecord rec;
        if (!parseRecordLine(lines[k].second, rec)) {
            // Only the last line can legitimately be malformed: a
            // write torn by a crash.  Drop it; its run re-executes.
            fatal_if(k + 1 != lines.size(),
                     "%s:%zu: corrupt sweep journal line (not the "
                     "trailing line)",
                     path.c_str(), k + 1);
            warn("sweep: dropping torn trailing journal line in "
                 "'%s' (its run will re-execute)",
                 path.c_str());
            fatal_if(::truncate(path.c_str(),
                                static_cast<off_t>(
                                    lines[k].first)) != 0,
                     "cannot truncate '%s': %s", path.c_str(),
                     std::strerror(errno));
            break;
        }
        fatal_if(rec.index >= jobs_.size() ||
                     rec.key != keys_[rec.index],
                 "%s:%zu: journaled run identity does not match "
                 "the spec's expansion; pass --fresh to discard",
                 path.c_str(), k + 1);
        if (!fileExists(shard_dir + "/" + rec.shard)) {
            warn("sweep: journaled run %zu has no metrics shard; "
                 "re-running it",
                 rec.index);
            continue;
        }
        records_[rec.index] = rec;
        done_[rec.index] = true;
    }
    resumed_ = static_cast<std::size_t>(
        std::count(done_.begin(), done_.end(), true));

    journal_ = std::fopen(path.c_str(), "a");
    fatal_if(journal_ == nullptr,
             "cannot append to sweep journal '%s': %s", path.c_str(),
             std::strerror(errno));
}

void
SweepDriver::appendJournal(const SweepRunRecord &rec)
{
    // The run's shard is already durable (tmp+fsync+rename in
    // MetricsCollector::record) by the time finish() returned, so
    // journal line -> shard can never dangle after a crash.
    std::string line = renderRecord(rec);
    std::fputs(line.c_str(), journal_);
    flushSync(journal_, journalPath());
}

void
SweepDriver::finalize()
{
    // Rebuild the exposition from the on-disk shards: identical
    // whether the runs happened in this process, an earlier killed
    // one, or any mix.
    MetricsCollector::global().mergeShards(metricsPath());

    // Rewrite the journal canonically — header plus one line per
    // run in job order, atomically — erasing completion order and
    // any resume history from the bytes.
    const std::string path = journalPath();
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    fatal_if(f == nullptr, "cannot write '%s': %s", tmp.c_str(),
             std::strerror(errno));
    std::string hdr = renderHeader(specFp_, jobs_.size());
    std::fputs(hdr.c_str(), f);
    for (const SweepRunRecord &rec : records_) {
        std::string line = renderRecord(rec);
        std::fputs(line.c_str(), f);
    }
    flushSync(f, tmp);
    std::fclose(f);
    fatal_if(std::rename(tmp.c_str(), path.c_str()) != 0,
             "cannot rename '%s' to '%s': %s", tmp.c_str(),
             path.c_str(), std::strerror(errno));
}

bool
SweepDriver::run()
{
    makeDirs(opts_.outDir);
    // Route every run's metrics snapshot (and shard) into the
    // sweep's exposition for the driver's scope.
    ScopedMetricsOut scoped(metricsPath());

    if (opts_.fresh)
        removeOutputs();
    loadJournal();

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (!done_[i])
            pending.push_back(i);
    }
    const bool preempted =
        opts_.maxRuns != 0 && opts_.maxRuns < pending.size();
    if (preempted)
        pending.resize(opts_.maxRuns);

    ParallelRunner runner(opts_.jobs, &cache_);
    runner.setProgress(false);
    std::atomic<std::size_t> journaled{resumed_};
    runner.forEach(
        pending.size(), [this, &runner, &pending,
                         &journaled](std::size_t k) {
            std::size_t i = pending[k];
            MultiMetrics m = runner.runOne(jobs_[i]);
            SweepRunRecord rec;
            rec.index = i;
            rec.key = keys_[i];
            rec.label = labels_[i];
            rec.policy = jobs_[i].policy;
            rec.seed = deriveSeed(jobs_[i].baseSeed,
                                  jobs_[i].policy, jobs_[i].label,
                                  jobs_[i].sweepPoint);
            rec.sweepPoint = jobs_[i].sweepPoint;
            rec.shard = shards_[i];
            rec.completed = m.run.completed;
            rec.weightedSpeedup = m.weightedSpeedup;
            rec.maxSlowdown = m.maxSlowdown;
            rec.efficiency = m.efficiency;
            rec.servedTotal = m.run.servedTotal;
            rec.swaps = m.run.swaps;
            std::size_t count;
            {
                std::lock_guard<std::mutex> lk(journalMu_);
                appendJournal(rec);
                records_[i] = rec;
                done_[i] = true;
                ++executed_;
                count = ++journaled;
            }
            if (opts_.progress) {
                std::fprintf(stderr, "[sweep %zu/%zu] %s/%s done\n",
                             count, jobs_.size(),
                             rec.label.c_str(), rec.policy.c_str());
            }
            if (callback_)
                callback_(count, jobs_.size());
        });

    std::fclose(journal_);
    journal_ = nullptr;

    if (std::count(done_.begin(), done_.end(), true) !=
        static_cast<std::ptrdiff_t>(jobs_.size()))
        return false;
    finalize();
    return true;
}

} // namespace sim

} // namespace profess

#include "sim/run_telemetry.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "common/config.hh"
#include "common/latency_attr.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/text_writer.hh"
#include "core/rsm.hh"
#include "sim/system.hh"

namespace profess
{

namespace sim
{

/** mkdir -p for the shallow DIR/<label> layout used here. */
void
makeDirs(const std::string &path)
{
    std::string partial;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i == path.size() || path[i] == '/') {
            if (!partial.empty() && partial != ".") {
                if (::mkdir(partial.c_str(), 0777) != 0 &&
                    errno != EEXIST) {
                    fatal("cannot create directory '%s': %s",
                          partial.c_str(), std::strerror(errno));
                }
            }
        }
        if (i < path.size())
            partial += path[i];
    }
}

namespace
{

std::FILE *
openOut(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot open telemetry output '%s': %s", path.c_str(),
             std::strerror(errno));
    }
    return f;
}

} // anonymous namespace

void
TelemetryConfig::initFromEnv()
{
    const char *t = std::getenv("PROFESS_TRACE");
    if (t != nullptr && *t != '\0' && std::strcmp(t, "0") != 0)
        trace = true;
    const char *d = std::getenv("PROFESS_TELEMETRY_OUT");
    if (d != nullptr && *d != '\0')
        outDir = d;
    epochInterval =
        envInt<Tick>("PROFESS_EPOCH_TICKS", epochInterval, 1);
    const char *m = std::getenv("PROFESS_METRICS_OUT");
    if (m != nullptr && *m != '\0')
        metricsOut = m;
}

void
TelemetryConfig::initFromArgs(int &argc, char **argv)
{
    initFromEnv();
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--trace") == 0) {
            trace = true;
            continue;
        }
        if (std::strcmp(a, "--telemetry-out") == 0) {
            fatal_if(i + 1 >= argc, "--telemetry-out needs a value");
            outDir = argv[++i];
            continue;
        }
        if (std::strncmp(a, "--telemetry-out=", 16) == 0) {
            outDir = a + 16;
            continue;
        }
        if (std::strcmp(a, "--metrics-out") == 0) {
            fatal_if(i + 1 >= argc, "--metrics-out needs a value");
            metricsOut = argv[++i];
            continue;
        }
        if (std::strncmp(a, "--metrics-out=", 14) == 0) {
            metricsOut = a + 14;
            continue;
        }
        if (std::strcmp(a, "--epoch-ticks") == 0 ||
            std::strncmp(a, "--epoch-ticks=", 14) == 0) {
            const char *val;
            if (a[13] == '=') {
                val = a + 14;
            } else {
                fatal_if(i + 1 >= argc, "--epoch-ticks needs a value");
                val = argv[++i];
            }
            epochInterval = parseInt<Tick>(val, "--epoch-ticks", 1);
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
}

TelemetryConfig &
TelemetryConfig::global()
{
    static TelemetryConfig cfg;
    return cfg;
}

//
// MetricsCollector
//

std::string
MetricsCollector::shardDir(const std::string &path)
{
    return path + ".shards";
}

std::string
MetricsCollector::shardFileName(const std::string &run_label)
{
    // sanitizeLabel can alias distinct labels ("a/b" vs "a_b"); a
    // hash of the exact label keeps the file names one-to-one.
    std::uint64_t h = hashCombine(mix64(0x54a8d0ull), run_label);
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-%016llx.shard",
                  static_cast<unsigned long long>(h));
    return sanitizeLabel(run_label) + suffix;
}

void
MetricsCollector::record(const std::string &path,
                         telemetry::MetricsSnapshot snap)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!exitFlushArmed_ && this == &global()) {
        // global()'s function-local static is constructed before
        // this registration, so it is destroyed after the handler
        // runs: the flush always sees a live collector.
        std::atexit([]() { MetricsCollector::global().flush(); });
        exitFlushArmed_ = true;
    }
    // The shard makes the run durable the moment it completes: a
    // killed sweep loses at most the in-flight run, and a resumed
    // one (SweepDriver) rebuilds the exposition from shards alone.
    const std::string dir = shardDir(path);
    makeDirs(dir);
    telemetry::writeMetricsShardFile(
        dir + "/" + shardFileName(snap.run), snap);
    byPath_[path][snap.run] = std::move(snap);
}

void
MetricsCollector::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &kv : byPath_) {
        std::vector<telemetry::MetricsSnapshot> sorted;
        sorted.reserve(kv.second.size());
        for (const auto &rkv : kv.second)
            sorted.push_back(rkv.second);
        telemetry::writeOpenMetricsFile(kv.first, sorted);
    }
}

void
MetricsCollector::mergeShards(const std::string &path)
{
    std::lock_guard<std::mutex> lk(mu_);
    const std::string dir = shardDir(path);
    ::DIR *d = ::opendir(dir.c_str());
    fatal_if(d == nullptr, "cannot open shard directory '%s': %s",
             dir.c_str(), std::strerror(errno));
    std::vector<std::string> names;
    while (struct dirent *de = ::readdir(d)) {
        std::string name = de->d_name;
        // Skip "."/".." and any ".tmp" left by a killed writer; a
        // shard is only ever observed complete (tmp+fsync+rename).
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".shard") == 0)
            names.push_back(std::move(name));
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    std::vector<telemetry::MetricsSnapshot> runs;
    runs.reserve(names.size());
    for (const std::string &name : names)
        runs.push_back(
            telemetry::readMetricsShardFile(dir + "/" + name));
    std::sort(runs.begin(), runs.end(),
              [](const telemetry::MetricsSnapshot &a,
                 const telemetry::MetricsSnapshot &b) {
                  return a.run < b.run;
              });
    telemetry::writeOpenMetricsFileAtomic(path, runs);
    byPath_.erase(path);
}

std::size_t
MetricsCollector::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto &kv : byPath_)
        n += kv.second.size();
    return n;
}

void
MetricsCollector::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    byPath_.clear();
}

MetricsCollector &
MetricsCollector::global()
{
    static MetricsCollector collector;
    return collector;
}

void
registerFairnessGauges(telemetry::StatRegistry &registry,
                       const core::Rsm &rsm, unsigned num_programs)
{
    const core::Rsm *r = &rsm;
    auto slowdown = [r](unsigned i) {
        auto id = static_cast<ProgramId>(i);
        return std::max(r->sfA(id), r->sfB(id));
    };
    for (unsigned i = 0; i < num_programs; ++i) {
        registry.addProbe("fairness.p" + std::to_string(i) +
                              ".slowdown",
                          [slowdown, i]() { return slowdown(i); });
    }
    registry.addProbe("fairness.weighted_speedup",
                      [slowdown, num_programs]() {
                          double ws = 0.0;
                          for (unsigned i = 0; i < num_programs;
                               ++i) {
                              double s = slowdown(i);
                              ws += s > 0.0 ? 1.0 / s : 0.0;
                          }
                          return ws;
                      });
    registry.addProbe("fairness.max_slowdown",
                      [slowdown, num_programs]() {
                          double mx = 0.0;
                          for (unsigned i = 0; i < num_programs;
                               ++i)
                              mx = std::max(mx, slowdown(i));
                          return mx;
                      });
    registry.addProbe("fairness.unfairness",
                      [slowdown, num_programs]() {
                          double mx = 0.0;
                          double mn = 0.0;
                          for (unsigned i = 0; i < num_programs;
                               ++i) {
                              double s = slowdown(i);
                              mx = std::max(mx, s);
                              mn = (i == 0) ? s : std::min(mn, s);
                          }
                          return mn > 0.0 ? mx / mn : 0.0;
                      });
}

std::string
sanitizeLabel(const std::string &label)
{
    std::string s;
    s.reserve(label.size());
    for (char c : label) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        s += ok ? c : '_';
    }
    return s.empty() ? std::string("run") : s;
}

RunTelemetry::RunTelemetry(const TelemetryConfig &cfg,
                           const std::string &label)
    : cfg_(cfg), label_(label),
      wallStart_(std::chrono::steady_clock::now()),
      startedIso_(telemetry::utcNowIso())
{
    if (cfg_.trace) {
        decision_ =
            std::make_unique<telemetry::DecisionTraceSink>();
        chrome_ = std::make_unique<telemetry::ChromeTraceSink>();
    }
    if (!cfg_.outDir.empty()) {
        dir_ = cfg_.outDir + "/" + sanitizeLabel(label_);
        makeDirs(dir_);
    }
}

RunTelemetry::~RunTelemetry()
{
    if (epochsFile_ != nullptr) {
        sampler_->setOutput(nullptr); // flushes the buffered lines
        std::fclose(epochsFile_);
    }
}

void
RunTelemetry::startSampler(EventQueue &eq)
{
    if (sampler_ == nullptr) {
        sampler_ = std::make_unique<telemetry::EpochSampler>(
            registry_, cfg_.epochInterval);
        if (!dir_.empty()) {
            epochsFile_ = openOut(dir_ + "/epochs.jsonl");
            sampler_->setOutput(epochsFile_);
        }
    }
    sampler_->start(eq);
}

void
RunTelemetry::stopSampler()
{
    if (sampler_ != nullptr)
        sampler_->stop();
}

telemetry::LatencyAttribution *
RunTelemetry::attribution(unsigned num_programs)
{
    if (attr_ == nullptr) {
        attr_ = std::make_unique<telemetry::LatencyAttribution>(
            num_programs);
        attr_->registerTelemetry(registry_, "latency");
    }
    return attr_.get();
}

void
RunTelemetry::finish(const std::string &policy,
                     const std::string &workload, std::uint64_t seed,
                     const std::string &config_json, bool completed)
{
    if (epochsFile_ != nullptr) {
        sampler_->flushOutput();
        std::fflush(epochsFile_);
    }

    // The metrics snapshot must happen while the registry's live
    // pointers are valid — i.e. here, not at process exit.  One
    // capture feeds both the per-run file and the collector.
    if (dir_.empty() && cfg_.metricsOut.empty())
        return;
    std::vector<telemetry::MetricsSnapshot> snap{
        telemetry::MetricsSnapshot::capture(registry_, label_)};
    if (!dir_.empty())
        telemetry::writeOpenMetricsFile(dir_ + "/metrics.prom", snap);
    if (!cfg_.metricsOut.empty())
        MetricsCollector::global().record(cfg_.metricsOut,
                                          std::move(snap[0]));
    if (dir_.empty())
        return;

    telemetry::RunManifest m;
    m.label = label_;
    m.policy = policy;
    m.workload = workload;
    m.seed = seed;
    m.gitSha = telemetry::gitHeadSha();
    m.config = config_json;
    m.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - wallStart_)
            .count();
    m.peakRssKb = telemetry::peakRssKb();
    m.startedIso = startedIso_;
    if (std::FILE *f = openOut(dir_ + "/manifest.json")) {
        m.write(f);
        std::fclose(f);
    }
    if (std::FILE *f = openOut(dir_ + "/stats.json")) {
        {
            TextWriter w(f);
            w.put("{\"completed\": ").put(completed ? "true" : "false");
            w.put(", \"stats\": ");
            registry_.dumpJson(w);
            w.put("}\n");
        }
        std::fclose(f);
    }
    if (decision_ != nullptr) {
        if (std::FILE *f = openOut(dir_ + "/decisions.jsonl")) {
            decision_->flushJsonl(f);
            std::fclose(f);
        }
    }
    if (chrome_ != nullptr) {
        if (std::FILE *f = openOut(dir_ + "/trace.json")) {
            chrome_->writeJson(
                f, {{"controller.access", &accessSlot_},
                    {"channel.schedule", &schedSlot_}});
            std::fclose(f);
        }
    }
}

} // namespace sim

} // namespace profess

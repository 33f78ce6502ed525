#include "sim/config_fields.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <type_traits>
#include <variant>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/system.hh"

namespace profess
{

namespace sim
{

namespace
{

template <class T>
using FieldRef = T &(*)(SystemConfig &);

/** One leaf field: its name and an accessor whose return type is
 *  the field's kind (u64, unsigned, double or bool). */
struct ConfigField
{
    const char *name;
    std::variant<FieldRef<std::uint64_t>, FieldRef<unsigned>,
                 FieldRef<double>, FieldRef<bool>>
        ref;
};

#define FIELD(name, member)                                          \
    {name, +[](SystemConfig &c) -> auto & { return c.member; }}

// Declaration order, which is also the fingerprint's fold order:
// reordering rows changes every fingerprint and run identity key.
constexpr ConfigField configFields[] = {
    FIELD("num_channels", numChannels),
    FIELD("m1_bytes_per_channel", m1BytesPerChannel),
    FIELD("m2_bytes_per_channel", m2BytesPerChannel),
    FIELD("slots_per_group", slotsPerGroup),
    FIELD("num_regions", numRegions),
    FIELD("m2_write_scale", m2WriteScale),
    FIELD("stc_capacity_bytes", stc.capacityBytes),
    FIELD("stc_ways", stc.ways),
    FIELD("stc_entry_bytes", stc.entryBytes),
    FIELD("core_width", core.width),
    FIELD("rob_size", core.robSize),
    FIELD("max_outstanding", core.maxOutstanding),
    FIELD("core_cycles_per_tick", core.coreCyclesPerTick),
    FIELD("instr", core.instrQuota),
    FIELD("warmup", core.warmupInstr),
    FIELD("model_st_traffic", modelStTraffic),
    FIELD("msamp", msamp),
    FIELD("stats_fold_interval", statsFoldInterval),
    FIELD("factor_threshold", professFactorThreshold),
    FIELD("product_threshold", professProductThreshold),
    FIELD("min_benefit", minBenefit),
    FIELD("alloc_seed", allocSeed),
    FIELD("rsm_per_region_stats", rsmPerRegionStats),
};

#undef FIELD

/** Converts to anything, so T{AnyMember{}...} counts T's members. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

template <class T, class... Members>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return memberCount<T, Members..., AnyMember>();
    return sizeof...(Members);
}

// stc and core contribute their leaves instead of themselves.
static_assert(std::size(configFields) ==
                  memberCount<SystemConfig>() - 2 +
                      memberCount<hybrid::StCache::Params>() +
                      memberCount<cpu::CoreParams>(),
              "a SystemConfig, StCache::Params or CoreParams member "
              "has no row in configFields");

const ConfigField *
findField(const std::string &key)
{
    for (const ConfigField &f : configFields) {
        if (key == f.name)
            return &f;
    }
    return nullptr;
}

/** Call fn(field) on the row named key; fatal if there is none. */
template <class Fn>
void
visitField(const std::string &key, SystemConfig &cfg, Fn &&fn)
{
    const ConfigField *f = findField(key);
    fatal_if(f == nullptr, "unknown config key '%s'", key.c_str());
    std::visit([&](auto ref) { fn(ref(cfg)); }, f->ref);
}

/** Call fn(name, value) for every row, in table order. */
template <class Fn>
void
forEachField(const SystemConfig &cfg, Fn &&fn)
{
    auto &c = const_cast<SystemConfig &>(cfg); // accessors only read
    for (const ConfigField &f : configFields)
        std::visit([&](auto ref) { fn(f.name, ref(c)); }, f.ref);
}

} // anonymous namespace

std::uint64_t
configFingerprint(const SystemConfig &cfg, double footprint_scale)
{
    std::uint64_t h = mix64(0xC0F1C0F1ull);
    forEachField(cfg, [&](const char *, auto v) {
        if constexpr (std::is_same_v<decltype(v), double>)
            h = hashCombine(h, doubleBits(v));
        else
            h = hashCombine(h, static_cast<std::uint64_t>(v));
    });
    return hashCombine(h, doubleBits(footprint_scale));
}

std::string
configJson(const SystemConfig &cfg)
{
    std::string out;
    forEachField(cfg, [&](const char *name, auto v) {
        char buf[128];
        if constexpr (std::is_same_v<decltype(v), double>)
            std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", name, v);
        else if constexpr (std::is_same_v<decltype(v), bool>)
            std::snprintf(buf, sizeof(buf), "\"%s\": %s", name,
                          v ? "true" : "false");
        else
            std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64, name,
                          static_cast<std::uint64_t>(v));
        out += (out.empty() ? "{" : ", ") + std::string(buf);
    });
    return out + "}";
}

bool
isSweepConfigKey(const std::string &key)
{
    return findField(key) != nullptr;
}

void
applySweepConfigKey(SystemConfig &cfg, const std::string &key,
                    double value)
{
    visitField(key, cfg, [&](auto &field) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (std::is_same_v<T, double>) {
            field = value;
        } else if constexpr (std::is_same_v<T, bool>) {
            fatal_if(value != 0.0 && value != 1.0,
                     "config key '%s' needs 0 or 1, got %.17g",
                     key.c_str(), value);
            field = value != 0.0;
        } else {
            // 2^digits is exact, so this bounds the cast below.
            constexpr int bits = std::numeric_limits<T>::digits;
            fatal_if(!(value >= 0.0 && value == std::floor(value) &&
                       value < std::ldexp(1.0, bits)),
                     "config key '%s' needs a non-negative integer "
                     "below 2^%d, got %.17g",
                     key.c_str(), bits, value);
            field = static_cast<T>(value);
        }
    });
}

void
applyConfigArgs(SystemConfig &cfg, const Config &args,
                std::initializer_list<std::string_view> own_keys)
{
    for (const auto &[key, text] : args.entries()) {
        if (std::find(own_keys.begin(), own_keys.end(), key) !=
            own_keys.end())
            continue;
        std::string what = "config key '" + key + "'";
        visitField(key, cfg, [&](auto &field) {
            using T = std::decay_t<decltype(field)>;
            if constexpr (std::is_same_v<T, double>)
                field = parseDouble(text, what);
            else if constexpr (std::is_same_v<T, bool>)
                field = parseBool(text, what);
            else
                field = parseInt<T>(text, what);
        });
    }
}

} // namespace sim

} // namespace profess

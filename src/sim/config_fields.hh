/**
 * @file
 * The SystemConfig field table (config_fields.cc): one named row per
 * leaf field of SystemConfig, StCache::Params and CoreParams, in
 * declaration order.  It is the only list of the fields: the config
 * fingerprint, the sweep and example config keys and the manifest's
 * "config" object are all generated from it, so each field has one
 * name everywhere (min_benefit, instr, stc_capacity_bytes, ...).
 */

#ifndef PROFESS_SIM_CONFIG_FIELDS_HH
#define PROFESS_SIM_CONFIG_FIELDS_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace profess
{

class Config;

namespace sim
{

struct SystemConfig;

/** Fingerprint of every field (rows folded in table order) and the
 *  footprint scale: keys caches and run identities. */
std::uint64_t configFingerprint(const SystemConfig &cfg,
                                double footprint_scale);

/** @return the manifest's "config" JSON object, one member per row. */
std::string configJson(const SystemConfig &cfg);

/** @return true if `key` names a SystemConfig field. */
bool isSweepConfigKey(const std::string &key);

/** Set field `key` to `value`; fatal on an unknown key or a value
 *  the field's type cannot hold (anything but 0/1 for a bool). */
void applySweepConfigKey(SystemConfig &cfg, const std::string &key,
                         double value);

/** Apply every `args` entry to the field it names, parsed by the
 *  field's type; keys in `own_keys` are skipped, others fatal. */
void applyConfigArgs(SystemConfig &cfg, const Config &args,
                     std::initializer_list<std::string_view> own_keys);

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_CONFIG_FIELDS_HH

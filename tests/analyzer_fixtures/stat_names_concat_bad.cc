// fixture-path: src/fix/stat_names_concat_fix.cc

void
registerStats(Registry &reg, Counters &c, const std::string &prefix,
              const std::string &name)
{
    reg.addCounter(prefix + "." + name, c.a);
    reg.addCounter(prefix + ".Reads", c.b); // BAD[stat-names]
    reg.addProbe(prefix + ".hit_rate", c.p);
    reg.addProbe(prefix + ".hit_rate", c.q); // BAD[stat-names]
}

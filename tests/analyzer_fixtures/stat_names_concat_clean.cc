// fixture-path: src/fix/stat_names_concat_fix.cc

void
registerStats(Registry &reg, Counters &c, const std::string &prefix,
              const std::string &name)
{
    // A literal followed by '+' is a separator, not a stat leaf.
    reg.addCounter(prefix + "." + name, c.a);
    reg.addCounter(prefix + "." + name + ".max", c.b);
    reg.addProbe(prefix + ".hit_rate", c.p);
}

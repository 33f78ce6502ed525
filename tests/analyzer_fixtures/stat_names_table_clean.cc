// fixture-path: src/fix/stat_names_table_fix.cc

class Widget
{
  public:
    void
    registerTelemetry(Registry &reg, const std::string &prefix) const
    {
        reg.addSet(prefix, stats_);
        reg.addCounter(prefix + ".extra_reads", extraReads_);
    }

  private:
    enum Stat : unsigned
    {
        Reads,
        Writes,
        Misses,
        Hits,
        NumStats
    };
    static constexpr const char *statNames[NumStats] = {
        "reads", "writes", "misses", "hits"};

    StatSet stats_{statNames};
    std::uint64_t extraReads_ = 0;
};

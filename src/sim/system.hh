/**
 * @file
 * Full-system assembly: cores + OS allocator + hybrid controller +
 * migration policy + memory channels, per Table 8.
 *
 * Default configurations scale the paper's Table 8 by 1/100
 * together with the workload footprints and instruction counts
 * (DESIGN.md Secs. 2 and 4b): quad-core = 2 channels x (1.5 MiB M1
 * + 12 MiB M2); single-core = 1 channel x (1 MiB M1 + 8 MiB M2).
 * The M1:M2 capacity ratio is set by slotsPerGroup (9 -> 1:8).
 */

#ifndef PROFESS_SIM_SYSTEM_HH
#define PROFESS_SIM_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/event.hh"
#include "core/profess.hh"
#include "cpu/core_model.hh"
#include "hybrid/hybrid_controller.hh"
#include "mem/memory_system.hh"
#include "os/page_allocator.hh"
#include "policy/policy.hh"
#include "trace/access.hh"

namespace profess
{

namespace sim
{

class RunTelemetry;

/** Everything needed to build a System. */
struct SystemConfig
{
    unsigned numChannels = 2;
    std::uint64_t m1BytesPerChannel = 1536 * KiB;
    std::uint64_t m2BytesPerChannel = 12 * MiB;
    unsigned slotsPerGroup = 9; ///< 1:(slots-1) capacity ratio
    unsigned numRegions = 32;   ///< RSM regions (paper: 128)
    double m2WriteScale = 1.0;  ///< tWR_M2 sensitivity knob
    hybrid::StCache::Params stc{1 * KiB, 8, 8};
    cpu::CoreParams core{};
    bool modelStTraffic = true;
    std::uint64_t msamp = 4096;    ///< RSM Msamp (paper: 128K)
    Cycles statsFoldInterval = 25000; ///< see HybridController
    /** Table 7 hysteresis thresholds (paper: 1/32 and 1/16). */
    double professFactorThreshold = 1.0 + 1.0 / 32.0;
    double professProductThreshold = 1.0 + 1.0 / 16.0;
    unsigned minBenefit = 8;       ///< MDM min_benefit = PoM K
    std::uint64_t allocSeed = 7;
    bool rsmPerRegionStats = false; ///< Table 4 instrumentation

    /** Quad-core two-channel configuration (Table 8, scaled). */
    static SystemConfig quadCore();

    /** Single-core one-channel configuration (Sec. 4.1, scaled). */
    static SystemConfig singleCore();
};

/**
 * Derive min_benefit (= PoM's K) from the timing parameters, as
 * Sec. 4.1 does: ceil(swap latency / (M2 - M1 64-B read latency)).
 */
unsigned deriveMinBenefit(const mem::TimingParams &m1,
                          const mem::TimingParams &m2,
                          std::uint64_t block_bytes);

/** A built system running one multiprogrammed workload. */
class System : public cpu::MemPort
{
  public:
    /**
     * @param cfg Configuration.
     * @param policy_name One of: profess, mdm, pom, mempod, cameo,
     *        silcfm, always, never, rsm-pom, oscoarse.
     * @param sources One trace source per core (ownership taken);
     *        core i runs program i.
     */
    System(const SystemConfig &cfg, const std::string &policy_name,
           std::vector<std::unique_ptr<trace::TraceSource>> sources);

    /**
     * Multi-threaded variant (Sec. 3.1.1: all threads of a program
     * appear to RSM/MDM as one program).
     *
     * @param sources One trace source per core.
     * @param core_program Program id of each core; ids must be
     *        dense starting at 0.  Threads of one program share its
     *        private region, statistics and ownership.
     */
    System(const SystemConfig &cfg, const std::string &policy_name,
           std::vector<std::unique_ptr<trace::TraceSource>> sources,
           std::vector<ProgramId> core_program);

    ~System() override;

    /**
     * Run until every core reaches its instruction quota.
     *
     * @param max_ticks Safety limit (0 = none).
     * @return true if all quotas were reached.
     */
    bool run(Tick max_ticks = 0);

    /** @return number of cores. */
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** @return number of distinct programs. */
    unsigned numPrograms() const { return numPrograms_; }

    /** @return program running on a core. */
    ProgramId programOfCore(unsigned core) const
    {
        return coreProgram_[core];
    }

    /** @return per-core model (IPC, counts). */
    const cpu::CoreModel &core(unsigned i) const { return *cores_[i]; }

    /** @return the hybrid controller. */
    const hybrid::HybridController &controller() const
    {
        return *controller_;
    }

    /** @return the hybrid controller (scenario/fault injection). */
    hybrid::HybridController &controller() { return *controller_; }

    /** @return the memory system. */
    const mem::MemorySystem &memory() const { return *memory_; }

    /** @return the memory system (scenario/fault injection). */
    mem::MemorySystem &memory() { return *memory_; }

    /** @return the page allocator. */
    const os::PageAllocator &allocator() const { return *allocator_; }

    /** @return the migration policy. */
    policy::MigrationPolicy &policy() { return *policy_; }

    /** @return ProFess policy if active, else nullptr. */
    core::ProfessPolicy *professPolicy();

    /** @return simulated seconds elapsed. */
    double seconds() const;

    /** @return seconds elapsed since the measurement window began
     *  (all cores past warm-up; equals seconds() if warm-up is 0
     *  or incomplete). */
    double measuredSeconds() const;

    /** @return tick at which measurement began. */
    Tick measureStartTick() const { return measureStart_; }

    /** @return current tick. */
    Tick now() const { return eq_.now(); }

    /** @return the configuration. */
    const SystemConfig &config() const { return cfg_; }

    /** @return the event queue (tests). */
    EventQueue &eventQueue() { return eq_; }

    /**
     * Audit every component's structural invariants: the hybrid
     * controller (ST, STC, policy) and the event queue.  Panics on
     * violation.  run() calls this at teardown in PROFESS_AUDIT
     * builds; tests may call it in any build.
     */
    void auditInvariants() const;

    /**
     * Attach a telemetry bundle: registers every component's
     * statistics (controller under "hybrid", channels under
     * "mem.chN", cores under "coreN", the allocator under
     * "os.alloc", the policy under "policy.<name>"), forwards the
     * decision/chrome trace sinks and hot-path timers, and starts
     * the epoch sampler when run() begins.  The bundle must outlive
     * the system's run.
     */
    void attachTelemetry(RunTelemetry &telemetry);

    // cpu::MemPort
    void issue(ProgramId program, Addr vaddr, bool is_write,
               InlineCallback done) override;

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<mem::MemorySystem> memory_;
    hybrid::HybridLayout layout_;
    std::unique_ptr<os::PageAllocator> allocator_;
    std::unique_ptr<policy::MigrationPolicy> policy_;
    std::unique_ptr<hybrid::HybridController> controller_;
    std::vector<std::unique_ptr<trace::TraceSource>> sources_;
    std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
    std::vector<ProgramId> coreProgram_;
    unsigned numPrograms_ = 0;
    unsigned coresWarm_ = 0;
    unsigned coresAtQuota_ = 0; ///< counted by CoreModel's onQuota
    Tick measureStart_ = 0;
    RunTelemetry *telemetry_ = nullptr;
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_SYSTEM_HH

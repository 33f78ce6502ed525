/**
 * @file
 * Swap-group Table (ST): the authoritative address translations.
 *
 * Each ST entry holds, per slot of the group, Address Translation
 * Bits (ATB; 4 bits each for 9 slots) giving the slot's current
 * physical location, and the slot's Quantized Access-Counter (QAC)
 * value (2 bits, Table 5).  Entries logically reside in M1
 * (Sec. 2.2); the timing of ST fills and writebacks is modelled by
 * the hybrid controller, while this class stores the contents.
 */

#ifndef PROFESS_HYBRID_ST_HH
#define PROFESS_HYBRID_ST_HH

#include <cstdint>
#include <vector>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "hybrid/layout.hh"

namespace profess
{

namespace hybrid
{

/** Maximum slots per swap group supported (1:16 ratio). */
constexpr unsigned maxSlots = 17;

/** Contents of one ST entry. */
struct StEntry
{
    /** atb[slot] = physical location (0 = M1, k>=1 = M2 loc k). */
    std::uint8_t atb[maxSlots];
    /** qac[slot] = quantized access count (Table 5). */
    std::uint8_t qac[maxSlots];
};

/** The table of all swap groups' entries. */
class SwapGroupTable
{
  public:
    explicit SwapGroupTable(const HybridLayout &layout)
        : layout_(layout)
    {
        fatal_if(layout.slotsPerGroup > maxSlots,
                 "slotsPerGroup %u exceeds maxSlots %u",
                 layout.slotsPerGroup, maxSlots);
        StEntry init;
        for (unsigned s = 0; s < maxSlots; ++s) {
            init.atb[s] = static_cast<std::uint8_t>(s);
            init.qac[s] = 0;
        }
        entries_.assign(layout.numGroups, init);
        m1Slot_.assign(layout.numGroups, 0);
    }

    /** @return mutable entry of a group. */
    StEntry &
    entry(std::uint64_t group)
    {
        panic_if(group >= entries_.size(), "bad group");
        return entries_[group];
    }

    /** @return entry of a group. */
    const StEntry &
    entry(std::uint64_t group) const
    {
        panic_if(group >= entries_.size(), "bad group");
        return entries_[group];
    }

    /** @return current physical location of (group, slot). */
    unsigned
    locationOf(std::uint64_t group, unsigned slot) const
    {
        return entry(group).atb[slot];
    }

    /** @return the slot currently resident in the M1 location. */
    unsigned
    slotInM1(std::uint64_t group) const
    {
        panic_if(group >= m1Slot_.size(), "bad group");
        return m1Slot_[group];
    }

    /** Exchange the physical locations of two slots of a group. */
    void
    swapSlots(std::uint64_t group, unsigned slot_a, unsigned slot_b)
    {
        StEntry &e = entry(group);
        std::uint8_t t = e.atb[slot_a];
        e.atb[slot_a] = e.atb[slot_b];
        e.atb[slot_b] = t;
        if (e.atb[slot_a] == 0)
            m1Slot_[group] = static_cast<std::uint8_t>(slot_a);
        else if (e.atb[slot_b] == 0)
            m1Slot_[group] = static_cast<std::uint8_t>(slot_b);
    }

    /** @return the layout this table was built for. */
    const HybridLayout &layout() const { return layout_; }

    /**
     * Audit one group's structural invariants: the ATB values form a
     * permutation of the group's locations (exactly one slot in M1,
     * the one slotInM1() reports) and every QAC stays within its
     * 2-bit range (Table 5).  Panics
     * on violation.  Hooked after every completed swap in
     * PROFESS_AUDIT builds; callable from tests in any build.
     */
    void
    auditGroup(std::uint64_t group) const
    {
        const StEntry &e = entry(group);
        std::uint32_t seen = 0;
        for (unsigned s = 0; s < layout_.slotsPerGroup; ++s) {
            unsigned loc = e.atb[s];
            profess_audit(loc < layout_.slotsPerGroup,
                          "group %llu slot %u maps to location %u "
                          "outside the group",
                          static_cast<unsigned long long>(group), s,
                          loc);
            profess_audit((seen & (1u << loc)) == 0,
                          "group %llu location %u held by two slots",
                          static_cast<unsigned long long>(group),
                          loc);
            seen |= 1u << loc;
            profess_audit(e.qac[s] < 4,
                          "group %llu slot %u QAC %u exceeds 2 bits",
                          static_cast<unsigned long long>(group), s,
                          e.qac[s]);
        }
        unsigned m1 = m1Slot_[group];
        profess_audit(m1 < layout_.slotsPerGroup && e.atb[m1] == 0,
                      "group %llu records slot %u in M1, but its ATB "
                      "does not map it there",
                      static_cast<unsigned long long>(group), m1);
    }

    /** Audit every group (teardown-scope full scan). */
    void
    auditInvariants() const
    {
        for (std::uint64_t g = 0; g < entries_.size(); ++g)
            auditGroup(g);
    }

  private:
    HybridLayout layout_;
    std::vector<StEntry> entries_;
    /** Per group, the slot whose ATB entry is 0; kept by
     *  swapSlots() so the lookup is O(1). */
    std::vector<std::uint8_t> m1Slot_;
};

} // namespace hybrid

} // namespace profess

#endif // PROFESS_HYBRID_ST_HH

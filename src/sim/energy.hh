/**
 * @file
 * Wattch-style event-based energy accounting.
 *
 * The timing model counts micro-events (structure accesses, functional-
 * unit operations, cache traffic); this model converts counts into
 * energy using per-event costs from the Cacti-style estimator, then
 * adds per-cycle leakage for every structure plus a clock-tree term and
 * a conditional-clocking residue (idle structures still burn ~10% of
 * their active power, Wattch's "cc3" style), both of which grow with
 * the machine's width and structure sizes.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/microarch_config.hh"

namespace acdse
{

/** Every dynamic-energy event the core model reports. */
enum class EnergyEvent : std::size_t
{
    Il1Access,      //!< L1I read (per fetched line)
    Dl1Access,      //!< L1D read/write
    L2Access,       //!< unified-L2 read/write (incl. fills/writebacks)
    MemAccess,      //!< off-chip access
    BpredLookup,    //!< direction prediction
    BpredUpdate,    //!< direction training
    BtbLookup,      //!< target lookup
    BtbUpdate,      //!< target install
    RenameLookup,   //!< per-dispatch rename-table read/write
    RobWrite,       //!< ROB allocate
    RobRead,        //!< ROB commit read
    IqWrite,        //!< issue-queue insert
    IqWakeup,       //!< tag broadcast on a completing result
    IqIssue,        //!< selection + payload read on issue
    LsqWrite,       //!< LSQ insert
    LsqSearch,      //!< load disambiguation search
    RfRead,         //!< register-file operand read
    RfWrite,        //!< register-file result write
    FuIntAlu,       //!< integer ALU op
    FuIntMul,       //!< integer multiply
    FuFpAlu,        //!< FP add
    FuFpMul,        //!< FP multiply
    FuFpDiv,        //!< FP divide
    ResultBus,      //!< result broadcast per writeback
    NumEvents,      //!< sentinel
};

/** Number of distinct event kinds. */
constexpr std::size_t kNumEnergyEvents =
    static_cast<std::size_t>(EnergyEvent::NumEvents);

/** Printable name of an energy event. */
const char *energyEventName(EnergyEvent event);

/** Per-configuration energy model and event accumulator. */
class EnergyModel
{
  public:
    /** Precompute all per-event costs for one configuration. */
    explicit EnergyModel(const MicroarchConfig &config);

    /**
     * Re-derive all per-event costs for a new configuration and zero
     * the event counts -- equivalent to constructing a fresh model
     * (the replay engine recycles one model per worker).
     */
    void reconfigure(const MicroarchConfig &config);

    /** Record @p count occurrences of an event. */
    void
    add(EnergyEvent event, std::uint64_t count = 1)
    {
        counts_[static_cast<std::size_t>(event)] += count;
    }

    /** Count recorded so far for one event. */
    std::uint64_t
    count(EnergyEvent event) const
    {
        return counts_[static_cast<std::size_t>(event)];
    }

    /** Per-event energy cost in nJ (exposed for tests/ablations). */
    double
    costNj(EnergyEvent event) const
    {
        return costsNj_[static_cast<std::size_t>(event)];
    }

    /** Dynamic energy of everything recorded so far, in nJ. */
    double dynamicEnergyNj() const;

    /** Static + clock energy for a run of @p cycles, in nJ. */
    double staticEnergyNj(std::uint64_t cycles) const;

    /** Total energy for a run of @p cycles, in nJ. */
    double
    totalEnergyNj(std::uint64_t cycles) const
    {
        return dynamicEnergyNj() + staticEnergyNj(cycles);
    }

    /** Total leakage per cycle (exposed for tests), in nJ. */
    double leakagePerCycleNj() const { return leakagePerCycleNj_; }

    /** Clock + idle per-cycle overhead (exposed for tests), in nJ. */
    double clockPerCycleNj() const { return clockPerCycleNj_; }

    /** Reset all event counts. */
    void resetCounts() { counts_.fill(0); }

    /** One line of the per-structure energy breakdown. */
    struct BreakdownEntry
    {
        const char *name;       //!< event/category name
        std::uint64_t count;    //!< events recorded
        double energyNj;        //!< total energy attributed
        double share;           //!< fraction of the total
    };

    /**
     * Wattch-style energy breakdown for a run of @p cycles: one entry
     * per dynamic event kind plus "leakage" and "clock" categories,
     * sorted by energy (largest first). Shares sum to 1.
     */
    std::vector<BreakdownEntry> breakdown(std::uint64_t cycles) const;

  private:
    std::array<double, kNumEnergyEvents> costsNj_{};
    std::array<std::uint64_t, kNumEnergyEvents> counts_{};
    double leakagePerCycleNj_ = 0.0;
    double clockPerCycleNj_ = 0.0;
};

} // namespace acdse


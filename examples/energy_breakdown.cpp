/**
 * @file
 * Wattch-style per-structure energy breakdown -- where does the energy
 * go, and how does the design point move it? (The mechanism behind the
 * paper's Fig. 3 observations: wide machines burn issue-width energy,
 * large L2s burn leakage.)
 */

#include <cstdio>
#include <iostream>

#include "arch/design_space.hh"
#include "base/table.hh"
#include "sim/core.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

using namespace acdse;

namespace
{

void
printBreakdown(const char *label, const MicroarchConfig &config,
               const Trace &trace)
{
    const DecodedTrace decoded(trace);
    OooCore core(config, decoded, threadSimScratch());
    core.warm(0, trace.size() / 5);
    const CoreStats stats = core.run(trace.size() / 5, trace.size());
    const EnergyModel &energy = core.energy();

    std::printf("--- %s: width=%d rob=%d l2=%dKB bpred=%dK ---\n",
                label, config.width(), config.robSize(),
                config.get(Param::L2Size), config.get(Param::BpredSize));
    std::printf("cycles %llu, IPC %.2f, total energy %.1f uJ\n",
                static_cast<unsigned long long>(stats.cycles),
                stats.ipc(), energy.totalEnergyNj(stats.cycles) / 1000.0);

    Table table({"component", "events", "energy (uJ)", "share"});
    int shown = 0;
    for (const auto &entry : energy.breakdown(stats.cycles)) {
        if (entry.share < 0.01 || shown >= 10)
            break;
        table.addRow(
            {entry.name,
             Table::num(static_cast<long long>(entry.count)),
             Table::num(entry.energyNj / 1000.0, 2),
             Table::num(100.0 * entry.share, 1) + "%"});
        ++shown;
    }
    table.print(std::cout);
    std::printf("\n");
}

} // namespace

int
main()
{
    const Trace trace =
        TraceGenerator(profileByName("crafty")).generate(20000);

    // The baseline, a deliberately wide/hot machine and a frugal one.
    printBreakdown("baseline", DesignSpace::baseline(), trace);

    MicroarchConfig hot = DesignSpace::baseline();
    hot.set(Param::Width, 8);
    hot.set(Param::RfReadPorts, 16);
    hot.set(Param::RfWritePorts, 8);
    hot.set(Param::L2Size, 4096);
    printBreakdown("wide and hot", hot, trace);

    MicroarchConfig frugal = DesignSpace::baseline();
    frugal.set(Param::Width, 2);
    frugal.set(Param::RfReadPorts, 4);
    frugal.set(Param::RfWritePorts, 2);
    frugal.set(Param::L2Size, 256);
    printBreakdown("frugal", frugal, trace);

    std::printf("The wide machine's clock/idle and port energy and the "
                "large L2's leakage\nare exactly the terms that push "
                "such configurations into the worst-energy\npercentile "
                "of the design space (paper Fig. 3).\n");
    return 0;
}

/**
 * @file
 * Extension bench (paper Section 9.2): how do SimPoint and SMARTS
 * sampled simulation compare against full cycle-level simulation on
 * our substrate? For a set of programs and random configurations we
 * report the estimate error, the rank fidelity (correlation across
 * configurations -- what design-space exploration actually needs) and
 * the fraction of instructions simulated in detail.
 */

#include <cstdio>
#include <iostream>

#include "arch/design_space.hh"
#include "base/statistics.hh"
#include "base/table.hh"
#include "bench/bench_common.hh"
#include "sim/sampled_sim.hh"
#include "sim/simulator.hh"
#include "trace/trace_generator.hh"

using namespace acdse;

int
main()
{
    bench::banner("Sampling methods (extension)",
                  "SimPoint / SMARTS vs full simulation");
    const auto configs = DesignSpace::sampleValidConfigs(10, 4242);

    Table table({"program", "method", "mean |err| (%)", "rank corr",
                 "detail frac"});
    for (const char *name :
         {"gzip", "crafty", "swim", "parser", "fft"}) {
        const Trace trace =
            TraceGenerator(profileByName(name)).generate(24000);

        SimPointOptions sp_options;
        sp_options.intervalLength = 2000;
        sp_options.maxClusters = 6;
        SmartsOptions sm_options;
        sm_options.unitInstructions = 500;
        sm_options.samplingPeriod = 8;
        const auto sp = simulateWithSimPoints(configs, trace, sp_options);
        const auto sm = simulateWithSmarts(configs, trace, sm_options);

        std::vector<double> full, simpoint, smarts;
        double sp_err = 0.0, sm_err = 0.0;
        double sp_frac = 0.0, sm_frac = 0.0;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const double truth =
                simulate(configs[i], trace).metrics.cycles;
            full.push_back(truth);

            simpoint.push_back(sp[i].metrics.cycles);
            sp_err += 100.0 * std::abs(sp[i].metrics.cycles - truth) /
                      truth;
            sp_frac += sp[i].detailFraction;

            smarts.push_back(sm[i].metrics.cycles);
            sm_err += 100.0 * std::abs(sm[i].metrics.cycles - truth) /
                      truth;
            sm_frac += sm[i].detailFraction;
        }
        const double n = static_cast<double>(configs.size());
        table.addRow({name, "SimPoint", Table::num(sp_err / n, 1),
                      Table::num(stats::correlation(simpoint, full), 3),
                      Table::num(sp_frac / n, 2)});
        table.addRow({name, "SMARTS", Table::num(sm_err / n, 1),
                      Table::num(stats::correlation(smarts, full), 3),
                      Table::num(sm_frac / n, 2)});
    }
    table.print(std::cout);
    std::printf(
        "\nBoth methodologies preserve configuration ranking (high "
        "correlation)\nwhile simulating a fraction of the instructions "
        "in detail -- the paper's\nargument that sampling is orthogonal "
        "to, and composable with, predictive\nmodelling "
        "(Section 9.2).\n");
    return 0;
}

#include "sim/simulator.hh"

#include <algorithm>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

const char *
metricName(Metric metric)
{
    switch (metric) {
      case Metric::Cycles: return "cycles";
      case Metric::Energy: return "energy";
      case Metric::Ed: return "ED";
      case Metric::Edd: return "EDD";
      default: panic("bad metric");
    }
}

double
Metrics::get(Metric metric) const
{
    switch (metric) {
      case Metric::Cycles: return cycles;
      case Metric::Energy: return energyNj;
      case Metric::Ed: return ed;
      case Metric::Edd: return edd;
      default: panic("bad metric");
    }
}

Metrics
Metrics::fromCyclesEnergy(double cycles, double energyNj)
{
    Metrics m;
    m.cycles = cycles;
    m.energyNj = energyNj;
    m.ed = energyNj * cycles;
    m.edd = energyNj * cycles * cycles;
    return m;
}

Metrics
Metrics::scaledToInstructions(double actualInstructions,
                              double targetInstructions) const
{
    ACDSE_CHECK(actualInstructions > 0.0, "cannot scale empty run");
    const double f = targetInstructions / actualInstructions;
    return fromCyclesEnergy(cycles * f, energyNj * f);
}

SimulationResult
simulate(const MicroarchConfig &config, const Trace &trace,
         const SimulationOptions &options)
{
    EnergyModel energy(config);
    OooCore core(config, energy);
    CoreScratch scratch; // shared by the warmup and timed runs

    std::size_t begin = 0;
    if (options.warmupInstructions > 0 && trace.size() > 2) {
        // Warm microarchitectural state with an untimed run over the
        // prefix; discard its statistics and energy events.
        begin = std::min(options.warmupInstructions, trace.size() / 2);
        core.run(trace, 0, begin, scratch);
        energy.resetCounts();
    }

    SimulationResult result;
    result.stats = core.run(trace, begin, SIZE_MAX, scratch);
    result.dynamicNj = energy.dynamicEnergyNj();
    result.staticNj = energy.staticEnergyNj(result.stats.cycles);
    result.metrics = Metrics::fromCyclesEnergy(
        static_cast<double>(result.stats.cycles),
        result.dynamicNj + result.staticNj);
    // Everything downstream (training sets, the campaign cache, served
    // predictions) assumes simulation output is finite and positive;
    // catch a broken energy/timing model here, not three layers later
    // as a NaN prediction.
    ACDSE_CHECK_FINITE(result.metrics.cycles, "simulated cycles");
    ACDSE_CHECK_FINITE(result.metrics.energyNj, "simulated energy");
    ACDSE_CHECK(result.metrics.cycles > 0.0,
                "simulation produced no cycles");
    return result;
}

} // namespace acdse

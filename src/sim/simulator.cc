#include "sim/simulator.hh"

#include <span>

#include "base/check.hh"
#include "base/logging.hh"
#include "sim/batch.hh"

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
    const DecodedTrace decoded(trace);
    SimulationResult result;
    simulateBatch(std::span<const MicroarchConfig>(&config, 1), decoded,
                  options, std::span<SimulationResult>(&result, 1),
                  threadSimScratch());
    return result;
}

} // namespace acdse

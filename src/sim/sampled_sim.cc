#include "sim/sampled_sim.hh"

#include <algorithm>

#include "base/check.hh"
#include "sim/core.hh"

namespace acdse
{

std::vector<SampledResult>
simulateWithSimPoints(std::span<const MicroarchConfig> configs,
                      const Trace &trace, const SimPointOptions &options)
{
    // One analysis and one decode serve every configuration.
    const SimPointResult analysis = simpointAnalyze(trace, options);
    ACDSE_CHECK(!analysis.points.empty(), "no simulation points");
    const std::size_t len = options.intervalLength;
    const DecodedTrace decoded(trace);
    SimScratch &scratch = threadSimScratch();

    std::vector<SampledResult> results(configs.size());
    std::vector<double> cycles_per_interval(analysis.numIntervals);
    std::vector<double> energy_per_interval(analysis.numIntervals);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        std::uint64_t timed = 0;
        for (const auto &point : analysis.points) {
            const std::size_t begin = point.intervalIndex * len;
            const std::size_t end = std::min(begin + len, trace.size());
            // A fresh core per point: each interval starts cold.
            OooCore core(configs[i], decoded, scratch);
            if (begin >= len)
                core.warm(begin - len, begin);
            const CoreStats stats = core.run(begin, end);
            timed += stats.instructions;
            cycles_per_interval[point.intervalIndex] =
                static_cast<double>(stats.cycles);
            energy_per_interval[point.intervalIndex] =
                core.energy().totalEnergyNj(stats.cycles);
        }

        SampledResult &result = results[i];
        result.metrics = Metrics::fromCyclesEnergy(
            simpointWeightedSum(analysis, cycles_per_interval),
            simpointWeightedSum(analysis, energy_per_interval));
        result.simulatedInstructions = timed;
        result.detailFraction =
            static_cast<double>(timed) / static_cast<double>(trace.size());
    }
    return results;
}

std::vector<SampledResult>
simulateWithSmarts(std::span<const MicroarchConfig> configs,
                   const Trace &trace, const SmartsOptions &options)
{
    ACDSE_CHECK(options.unitInstructions > 0, "empty measurement unit");
    ACDSE_CHECK(options.samplingPeriod > 0, "sampling period must be >0");
    const std::size_t unit = options.unitInstructions;
    const std::size_t num_units = (trace.size() + unit - 1) / unit;
    const DecodedTrace decoded(trace);
    SimScratch &scratch = threadSimScratch();

    std::vector<SampledResult> results(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        // One core per configuration: caches and predictors stay warm
        // across units.
        OooCore core(configs[i], decoded, scratch);
        double measured_cycles = 0.0;
        double measured_energy = 0.0;
        std::uint64_t timed = 0;
        std::size_t measured_units = 0;

        for (std::size_t u = 0; u < num_units; ++u) {
            const std::size_t begin = u * unit;
            const std::size_t end = std::min(begin + unit, trace.size());
            const bool measure = (u % options.samplingPeriod) ==
                                 (options.offset % options.samplingPeriod);
            if (measure) {
                core.energy().resetCounts();
                const CoreStats stats = core.run(begin, end);
                measured_cycles += static_cast<double>(stats.cycles);
                measured_energy += core.energy().dynamicEnergyNj() +
                                   core.energy().staticEnergyNj(stats.cycles);
                timed += stats.instructions;
                ++measured_units;
            } else {
                // Functional warming only: caches and predictors stay
                // hot, no timing is modelled.
                core.warm(begin, end);
            }
        }
        ACDSE_CHECK(measured_units > 0, "no units were measured");

        // Extrapolate the per-unit averages to the whole trace.
        const double scale = static_cast<double>(num_units) /
                             static_cast<double>(measured_units);
        SampledResult &result = results[i];
        result.metrics = Metrics::fromCyclesEnergy(measured_cycles * scale,
                                                   measured_energy * scale);
        result.simulatedInstructions = timed;
        result.detailFraction =
            static_cast<double>(timed) / static_cast<double>(trace.size());
    }
    return results;
}

} // namespace acdse

#include "arch/design_space.hh"

#include <unordered_set>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

namespace
{

/** Raw point count: product of per-parameter value counts. */
std::uint64_t
rawProduct()
{
    std::uint64_t total = 1;
    for (const auto &spec : paramSpecs())
        total *= spec.count();
    return total;
}

} // namespace

std::uint64_t
DesignSpace::totalRawPoints()
{
    return rawProduct();
}

std::uint64_t
DesignSpace::totalValidPoints()
{
    // The constraints couple only {ROB, IQ, LSQ} and
    // {read ports, write ports}; all other parameters are free, so the
    // exact count is (#valid triples) * (#valid port pairs) *
    // (product of the remaining value counts).
    const ParamSpec &rob = paramSpec(Param::RobSize);
    const ParamSpec &iq = paramSpec(Param::IqSize);
    const ParamSpec &lsq = paramSpec(Param::LsqSize);
    std::uint64_t quadruples = 0;
    for (int rob_v : rob.values) {
        std::uint64_t iq_count = 0;
        for (int iq_v : iq.values)
            iq_count += iq_v <= rob_v;
        std::uint64_t lsq_count = 0;
        for (int lsq_v : lsq.values)
            lsq_count += lsq_v <= rob_v;
        quadruples += iq_count * lsq_count;
    }

    const ParamSpec &rd = paramSpec(Param::RfReadPorts);
    const ParamSpec &wr = paramSpec(Param::RfWritePorts);
    std::uint64_t port_pairs = 0;
    for (int rd_v : rd.values)
        for (int wr_v : wr.values)
            port_pairs += wr_v <= rd_v;

    std::uint64_t rest = 1;
    for (const auto &spec : paramSpecs()) {
        switch (spec.id) {
          case Param::RobSize:
          case Param::IqSize:
          case Param::LsqSize:
          case Param::RfReadPorts:
          case Param::RfWritePorts:
            break;
          default:
            rest *= spec.count();
        }
    }
    return quadruples * port_pairs * rest;
}

bool
DesignSpace::isValid(const MicroarchConfig &config)
{
    if (config.iqSize() > config.robSize())
        return false;
    if (config.lsqSize() > config.robSize())
        return false;
    if (config.rfWritePorts() > config.rfReadPorts())
        return false;
    return true;
}

MicroarchConfig
DesignSpace::baseline()
{
    MicroarchConfig config;
    ACDSE_CHECK(isValid(config), "baseline configuration must be valid");
    return config;
}

MicroarchConfig
DesignSpace::sampleValid(Rng &rng)
{
    for (;;) {
        std::array<int, kNumParams> values;
        for (std::size_t i = 0; i < kNumParams; ++i) {
            const ParamSpec &spec = paramSpecs()[i];
            values[i] = spec.values[rng.nextBounded(spec.count())];
        }
        MicroarchConfig config(values);
        if (isValid(config))
            return config;
    }
}

std::vector<MicroarchConfig>
DesignSpace::sampleValidConfigs(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<MicroarchConfig> configs;
    std::unordered_set<std::string> seen;
    configs.reserve(count);
    while (configs.size() < count) {
        MicroarchConfig config = sampleValid(rng);
        if (seen.insert(config.key()).second)
            configs.push_back(config);
    }
    return configs;
}

} // namespace acdse

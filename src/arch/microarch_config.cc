#include "arch/microarch_config.hh"

#include <cmath>
#include <sstream>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

MicroarchConfig::MicroarchConfig()
{
    for (std::size_t i = 0; i < kNumParams; ++i)
        values_[i] = static_cast<std::uint16_t>(paramSpecs()[i].baseline);
}

MicroarchConfig::MicroarchConfig(const std::array<int, kNumParams> &values)
{
    for (std::size_t i = 0; i < kNumParams; ++i)
        set(static_cast<Param>(i), values[i]);
}

void
MicroarchConfig::set(Param p, int value)
{
    ACDSE_CHECK(paramSpec(p).contains(value), "illegal value ", value,
                 " for parameter ", paramSpec(p).name);
    values_[static_cast<std::size_t>(p)] =
        static_cast<std::uint16_t>(value);
}

std::vector<double>
MicroarchConfig::asFeatureVector() const
{
    std::vector<double> v(kNumParams);
    featuresInto(v.data());
    return v;
}

void
MicroarchConfig::featuresInto(double *out) const
{
    for (std::size_t i = 0; i < kNumParams; ++i)
        out[i] = static_cast<double>(values_[i]);
    for (Param p : {Param::BpredSize, Param::BtbSize, Param::Il1Size,
                    Param::Dl1Size, Param::L2Size}) {
        out[static_cast<std::size_t>(p)] =
            std::log2(out[static_cast<std::size_t>(p)]);
    }
}

std::string
MicroarchConfig::key() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < kNumParams; ++i) {
        if (i)
            os << '/';
        os << values_[i];
    }
    return os.str();
}

} // namespace acdse

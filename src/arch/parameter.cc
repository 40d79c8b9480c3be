#include "arch/parameter.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "base/check.hh"
#include "base/logging.hh"

namespace acdse
{

namespace
{

/** Build a stepped value list lo, lo+step, ..., hi at static-init time. */
template <int Lo, int Hi, int Step>
constexpr auto
steppedValues()
{
    constexpr std::size_t n = (Hi - Lo) / Step + 1;
    std::array<int, n> values{};
    for (std::size_t i = 0; i < n; ++i)
        values[i] = Lo + static_cast<int>(i) * Step;
    return values;
}

constexpr std::array<int, 4> kWidthValues{2, 4, 6, 8};
constexpr auto kRobValues = steppedValues<32, 160, 8>();    // 17 values
constexpr auto kIqValues = steppedValues<8, 80, 8>();       // 10 values
constexpr auto kLsqValues = steppedValues<8, 80, 8>();      // 10 values
constexpr auto kRfValues = steppedValues<40, 160, 8>();     // 16 values
constexpr auto kRfReadValues = steppedValues<2, 16, 2>();   // 8 values
constexpr auto kRfWriteValues = steppedValues<1, 8, 1>();   // 8 values
constexpr std::array<int, 6> kBpredValues{1, 2, 4, 8, 16, 32};
constexpr std::array<int, 3> kBtbValues{1, 2, 4};
constexpr std::array<int, 4> kBranchValues{8, 16, 24, 32};
constexpr std::array<int, 5> kIl1Values{8, 16, 32, 64, 128};
constexpr std::array<int, 5> kDl1Values{8, 16, 32, 64, 128};
constexpr std::array<int, 5> kL2Values{256, 512, 1024, 2048, 4096};

/** Whether every value in @p values is representable as uint16_t. */
template <std::size_t N>
constexpr bool
fitsIn16Bits(const std::array<int, N> &values)
{
    for (int value : values) {
        if (value < 0 || value > std::numeric_limits<std::uint16_t>::max())
            return false;
    }
    return true;
}

// MicroarchConfig stores each value in 16 bits.
static_assert(fitsIn16Bits(kWidthValues) && fitsIn16Bits(kRobValues) &&
                  fitsIn16Bits(kIqValues) && fitsIn16Bits(kLsqValues) &&
                  fitsIn16Bits(kRfValues) && fitsIn16Bits(kRfReadValues) &&
                  fitsIn16Bits(kRfWriteValues) &&
                  fitsIn16Bits(kBpredValues) && fitsIn16Bits(kBtbValues) &&
                  fitsIn16Bits(kBranchValues) && fitsIn16Bits(kIl1Values) &&
                  fitsIn16Bits(kDl1Values) && fitsIn16Bits(kL2Values),
              "every legal parameter value must fit in 16 bits");

const std::array<ParamSpec, kNumParams> kSpecs{{
    {Param::Width, "Width", "", kWidthValues, 4},
    {Param::RobSize, "ROB", "entries", kRobValues, 96},
    {Param::IqSize, "IQ", "entries", kIqValues, 32},
    {Param::LsqSize, "LSQ", "entries", kLsqValues, 48},
    {Param::RfSize, "RF", "regs", kRfValues, 96},
    {Param::RfReadPorts, "RF read", "ports", kRfReadValues, 8},
    {Param::RfWritePorts, "RF write", "ports", kRfWriteValues, 4},
    {Param::BpredSize, "Bpred", "K-entries", kBpredValues, 16},
    {Param::BtbSize, "BTB", "K-entries", kBtbValues, 4},
    {Param::MaxBranches, "Branches", "in-flight", kBranchValues, 16},
    {Param::Il1Size, "IL1", "KB", kIl1Values, 32},
    {Param::Dl1Size, "DL1", "KB", kDl1Values, 32},
    {Param::L2Size, "L2", "KB", kL2Values, 2048},
}};

} // namespace

std::size_t
ParamSpec::indexOf(int value) const
{
    auto it = std::find(values.begin(), values.end(), value);
    ACDSE_CHECK(it != values.end(), "value ", value,
                 " is not legal for parameter ", name);
    return static_cast<std::size_t>(it - values.begin());
}

bool
ParamSpec::contains(int value) const
{
    return std::find(values.begin(), values.end(), value) != values.end();
}

const std::array<ParamSpec, kNumParams> &
paramSpecs()
{
    return kSpecs;
}

const ParamSpec &
paramSpec(Param p)
{
    return kSpecs[static_cast<std::size_t>(p)];
}

std::string
paramName(Param p)
{
    return paramSpec(p).name;
}

const FixedParams &
fixedParams()
{
    static const FixedParams params;
    return params;
}

FunctionalUnitCounts
functionalUnitsForWidth(int width)
{
    ACDSE_CHECK(width >= 1, "width must be positive");
    return {
        width,
        std::max(1, width / 2),
        std::max(1, width / 2),
        std::max(1, width / 4),
    };
}

} // namespace acdse

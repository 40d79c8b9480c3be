#include "ml/scaler.hh"

#include <cmath>

#include "base/binary_io.hh"
#include "base/check.hh"
#include "base/logging.hh"
#include "base/simd.hh"
#include "base/statistics.hh"

namespace acdse
{

void
StandardScaler::fit(const std::vector<std::vector<double>> &samples)
{
    ACDSE_CHECK(!samples.empty(), "cannot fit scaler on no samples");
    const std::size_t d = samples.front().size();
    means_.assign(d, 0.0);
    scales_.assign(d, 1.0);
    for (const auto &x : samples) {
        ACDSE_CHECK(x.size() == d, "inconsistent sample dimensions");
        for (std::size_t i = 0; i < d; ++i)
            means_[i] += x[i];
    }
    for (double &m : means_)
        m /= static_cast<double>(samples.size());
    std::vector<double> var(d, 0.0);
    for (const auto &x : samples)
        for (std::size_t i = 0; i < d; ++i)
            var[i] += (x[i] - means_[i]) * (x[i] - means_[i]);
    for (std::size_t i = 0; i < d; ++i) {
        const double sd =
            std::sqrt(var[i] / static_cast<double>(samples.size()));
        scales_[i] = sd > 1e-12 ? sd : 1.0;
    }
    computeInverses();
}

void
StandardScaler::computeInverses()
{
    invScales_.resize(scales_.size());
    for (std::size_t i = 0; i < scales_.size(); ++i)
        invScales_[i] = 1.0 / scales_[i];
}

std::vector<double>
StandardScaler::transform(const std::vector<double> &x) const
{
    std::vector<double> out;
    transformInto(x, out);
    return out;
}

void
StandardScaler::transformInto(const std::vector<double> &x,
                              std::vector<double> &out) const
{
    ACDSE_CHECK(x.size() == means_.size(), "dimension mismatch");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = (x[i] - means_[i]) * invScales_[i];
}

void
StandardScaler::transformBlock(const double *__restrict xs,
                               std::size_t count,
                               double *__restrict zs) const
{
    ACDSE_DCHECK(count >= 1 && count <= simd::kLanes, "bad lane count");
    const std::size_t d = means_.size();
    const std::size_t chunks =
        (count + simd::kChunkLanes - 1) / simd::kChunkLanes;
    for (std::size_t i = 0; i < d; ++i) {
        const double *x = xs + i * simd::kLanes;
        double *z = zs + i * simd::kLanes;
        const simd::Chunk mean = simd::chunkBroadcast(means_[i]);
        const simd::Chunk inv = simd::chunkBroadcast(invScales_[i]);
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t at = c * simd::kChunkLanes;
            simd::chunkStore(
                z + at, (simd::chunkLoad(x + at) - mean) * inv);
        }
    }
}

void
StandardScaler::save(BinaryWriter &w) const
{
    w.f64vec(means_);
    w.f64vec(scales_);
}

void
StandardScaler::load(BinaryReader &r)
{
    means_ = r.f64vec();
    scales_ = r.f64vec();
    if (scales_.size() != means_.size())
        throw SerializationError("scaler mean/scale arity mismatch");
    computeInverses();
}

void
TargetScaler::fit(const std::vector<double> &ys)
{
    ACDSE_CHECK(!ys.empty(), "cannot fit target scaler on no samples");
    mean_ = stats::mean(ys);
    const double sd = stats::stddev(ys);
    sdev_ = sd > 1e-12 ? sd : 1.0;
}

void
TargetScaler::save(BinaryWriter &w) const
{
    w.f64(mean_);
    w.f64(sdev_);
}

void
TargetScaler::load(BinaryReader &r)
{
    mean_ = r.f64();
    sdev_ = r.f64();
}

} // namespace acdse

#include "ml/rbf.hh"

#include <cmath>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/statistics.hh"
#include "ml/kmeans.hh"

namespace acdse
{

namespace
{

/** Output-layer ridge strength (relative, see LinearRegression::fit). */
constexpr double kRidge = 1e-6;

} // namespace

RbfNetwork::RbfNetwork(RbfOptions options) : options_(options)
{
    ACDSE_CHECK(options_.centers > 0, "need at least one center");
}

void
RbfNetwork::train(const std::vector<std::vector<double>> &xs,
                  const std::vector<double> &ys)
{
    ACDSE_CHECK(!xs.empty(), "cannot train on no samples");
    ACDSE_CHECK(xs.size() == ys.size(), "xs/ys size mismatch");

    inputScaler_.fit(xs);
    targetScaler_.fit(ys);
    std::vector<std::vector<double>> xz(xs.size());
    std::vector<double> yz(ys.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        xz[i] = inputScaler_.transform(xs[i]);
        yz[i] = targetScaler_.scale(ys[i]);
    }

    // Centers via k-means on the scaled inputs.
    const KmeansResult clusters =
        kmeans(xz, std::min(options_.centers, xz.size()), options_.seed);
    centers_ = clusters.centroids;

    // Common width from the mean pairwise center distance.
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < centers_.size(); ++i) {
        for (std::size_t j = i + 1; j < centers_.size(); ++j) {
            total += stats::euclideanDistance(centers_[i], centers_[j]);
            ++pairs;
        }
    }
    const double sigma =
        pairs ? total / static_cast<double>(pairs) / 2.0 : 1.0;
    invTwoSigmaSq_ = 1.0 / (2.0 * sigma * sigma);

    // Closed-form output layer.
    std::vector<std::vector<double>> phi(xz.size());
    for (std::size_t i = 0; i < xz.size(); ++i)
        phi[i] = activations(xz[i]);
    output_.fit(phi, yz, kRidge);
    trained_ = true;
}

std::vector<double>
RbfNetwork::activations(const std::vector<double> &xz) const
{
    std::vector<double> phi(centers_.size());
    for (std::size_t j = 0; j < centers_.size(); ++j) {
        double d2 = 0.0;
        for (std::size_t d = 0; d < xz.size(); ++d) {
            const double diff = xz[d] - centers_[j][d];
            d2 += diff * diff;
        }
        phi[j] = std::exp(-d2 * invTwoSigmaSq_);
    }
    return phi;
}

double
RbfNetwork::predict(const std::vector<double> &x) const
{
    ACDSE_CHECK(trained_, "predict before train");
    return targetScaler_.unscale(
        output_.predict(activations(inputScaler_.transform(x))));
}

} // namespace acdse

/**
 * @file
 * Unit tests for model persistence: exact round trips of every
 * serialisable model class, and rejection of malformed artifacts
 * (bad magic, wrong version, corrupted checksum, truncation).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "arch/design_space.hh"
#include "base/binary_io.hh"
#include "ml/linear_regression.hh"
#include "ml/mlp.hh"
#include "ml/scaler.hh"
#include "serve/model_store.hh"
#include "temp_dir.hh"

namespace acdse
{
namespace
{

/** A smooth positive synthetic target over the design space. */
double
synthetic(const MicroarchConfig &config, double wide, double mem)
{
    return 500.0 + wide * 4000.0 / config.width() +
           mem * 60000.0 /
               std::sqrt(static_cast<double>(config.l2Bytes() / 1024));
}

std::vector<MicroarchConfig>
configs(std::size_t n, std::uint64_t seed)
{
    return DesignSpace::sampleValidConfigs(n, seed);
}

/** Offline-train + response-fit a small predictor on synthetic data. */
ArchitectureCentricPredictor
trainedPredictor(bool fit_responses = true)
{
    const auto train = configs(64, 1);
    std::vector<ProgramTrainingSet> sets(3);
    for (int j = 0; j < 3; ++j) {
        sets[j].name = "p" + std::to_string(j);
        sets[j].configs = train;
        for (const auto &c : train)
            sets[j].values.push_back(synthetic(c, 1.0 + j, 2.0 - 0.5 * j));
    }
    ArchitectureCentricPredictor predictor;
    predictor.trainOffline(sets);
    if (fit_responses) {
        const auto rc = configs(16, 2);
        std::vector<double> responses;
        for (const auto &c : rc)
            responses.push_back(synthetic(c, 1.5, 1.0));
        predictor.fitResponses(rc, responses);
    }
    return predictor;
}

/** @p name inside a new directory unique to this process. */
std::string
tempPath(const std::string &name)
{
    return (testdir::uniqueTempDir("acdse_store") / name).string();
}

TEST(BinaryIo, ScalarRoundTrip)
{
    BinaryWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.f64(-1.5e-300);
    w.str("hello");
    w.f64vec({1.0, -0.0, 2.5});

    BinaryReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.f64vec(), (std::vector<double>{1.0, -0.0, 2.5}));
    EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, UnderflowThrows)
{
    BinaryWriter w;
    w.u32(7);
    BinaryReader r(w.buffer());
    EXPECT_THROW(r.u64(), SerializationError);
}

TEST(ModelStore, ScalerRoundTripIsExact)
{
    StandardScaler scaler;
    scaler.fit({{1.0, 2.0, 3.0}, {4.0, -5.0, 6.5}, {0.1, 0.2, 0.3}});
    BinaryWriter w;
    scaler.save(w);
    StandardScaler loaded;
    BinaryReader r(w.buffer());
    loaded.load(r);
    const std::vector<double> probe{3.7, -1.2, 9.9};
    EXPECT_EQ(loaded.transform(probe), scaler.transform(probe));

    TargetScaler target;
    target.fit({10.0, 20.0, 35.0});
    BinaryWriter tw;
    target.save(tw);
    TargetScaler target_loaded;
    BinaryReader tr(tw.buffer());
    target_loaded.load(tr);
    EXPECT_EQ(target_loaded.scale(17.0), target.scale(17.0));
    EXPECT_EQ(target_loaded.unscale(0.3), target.unscale(0.3));
}

TEST(ModelStore, MlpRoundTripIsBitwiseExact)
{
    const auto train = configs(48, 3);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (const auto &c : train) {
        xs.push_back(c.asFeatureVector());
        ys.push_back(synthetic(c, 1.0, 1.0));
    }
    Mlp mlp;
    mlp.train(xs, ys);

    BinaryWriter w;
    mlp.save(w);
    Mlp loaded;
    BinaryReader r(w.buffer());
    loaded.load(r);
    EXPECT_TRUE(r.exhausted());
    EXPECT_TRUE(loaded.trained());
    EXPECT_EQ(loaded.options().hiddenNeurons,
              mlp.options().hiddenNeurons);
    for (const auto &c : configs(32, 4)) {
        const auto x = c.asFeatureVector();
        EXPECT_EQ(loaded.predict(x), mlp.predict(x));
    }
}

TEST(ModelStore, LinearRegressionRoundTripIsExact)
{
    LinearRegression regression;
    regression.fit({{1.0, 2.0}, {2.0, 1.0}, {3.0, 5.0}, {0.5, 0.5}},
                   {3.0, 4.0, 11.0, 1.5});
    BinaryWriter w;
    regression.save(w);
    LinearRegression loaded;
    BinaryReader r(w.buffer());
    loaded.load(r);
    EXPECT_TRUE(loaded.fitted());
    EXPECT_EQ(loaded.weights(), regression.weights());
    EXPECT_EQ(loaded.intercept(), regression.intercept());
    EXPECT_EQ(loaded.predict({2.2, 3.3}), regression.predict({2.2, 3.3}));
}

TEST(ModelStore, PredictorRoundTripIsBitwiseExact)
{
    const ArchitectureCentricPredictor predictor = trainedPredictor();
    BinaryWriter w;
    predictor.save(w);
    ArchitectureCentricPredictor loaded;
    BinaryReader r(w.buffer());
    loaded.load(r);
    EXPECT_TRUE(loaded.ready());
    EXPECT_EQ(loaded.trainingPrograms(), predictor.trainingPrograms());
    EXPECT_EQ(loaded.weights(), predictor.weights());
    for (const auto &c : configs(64, 5))
        EXPECT_EQ(loaded.predict(c), predictor.predict(c));
}

TEST(ModelStore, OfflineOnlyPredictorCanFitResponsesAfterLoad)
{
    const ArchitectureCentricPredictor predictor =
        trainedPredictor(/*fit_responses=*/false);
    BinaryWriter w;
    predictor.save(w);
    ArchitectureCentricPredictor loaded;
    BinaryReader r(w.buffer());
    loaded.load(r);
    EXPECT_TRUE(loaded.offlineTrained());
    EXPECT_FALSE(loaded.ready());

    const auto rc = configs(12, 6);
    std::vector<double> responses;
    for (const auto &c : rc)
        responses.push_back(synthetic(c, 2.0, 0.5));
    loaded.fitResponses(rc, responses);
    EXPECT_TRUE(loaded.ready());
}

TEST(ModelStore, ArtifactFileRoundTrip)
{
    ModelArtifact artifact;
    artifact.setTag("unit test artifact");
    artifact.add(Metric::Cycles, trainedPredictor());
    artifact.add(Metric::Energy, trainedPredictor());

    const std::string path = tempPath("acdse_store_roundtrip.acdse");
    saveArtifact(path, artifact);
    const ModelArtifact loaded = loadArtifact(path);
    std::remove(path.c_str());

    EXPECT_EQ(loaded.tag(), "unit test artifact");
    EXPECT_EQ(loaded.metrics(),
              (std::vector<Metric>{Metric::Cycles, Metric::Energy}));
    EXPECT_FALSE(loaded.has(Metric::Ed));
    for (const auto &c : configs(32, 7)) {
        EXPECT_EQ(loaded.predictor(Metric::Cycles).predict(c),
                  artifact.predictor(Metric::Cycles).predict(c));
        EXPECT_EQ(loaded.predictor(Metric::Energy).predict(c),
                  artifact.predictor(Metric::Energy).predict(c));
    }
}

TEST(ModelStore, RejectsBadMagic)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor());
    std::string bytes = encodeArtifact(artifact);
    bytes[0] = 'X';
    EXPECT_THROW(decodeArtifact(bytes), SerializationError);
}

TEST(ModelStore, RejectsWrongVersion)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor());
    std::string bytes = encodeArtifact(artifact);
    bytes[8] = static_cast<char>(kArtifactVersion + 1); // version field
    try {
        decodeArtifact(bytes);
        FAIL() << "wrong version must be rejected";
    } catch (const SerializationError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos);
    }
}

TEST(ModelStore, RejectsCorruptedChecksum)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor());
    std::string bytes = encodeArtifact(artifact);
    // Flip a payload byte well past the header.
    bytes[bytes.size() / 2] ^= 0x40;
    try {
        decodeArtifact(bytes);
        FAIL() << "checksum mismatch must be rejected";
    } catch (const SerializationError &err) {
        EXPECT_NE(std::string(err.what()).find("checksum"),
                  std::string::npos);
    }
}

TEST(ModelStore, RejectsTruncatedFile)
{
    ModelArtifact artifact;
    artifact.add(Metric::Cycles, trainedPredictor());
    const std::string bytes = encodeArtifact(artifact);
    EXPECT_THROW(decodeArtifact(bytes.substr(0, bytes.size() - 10)),
                 SerializationError);
    EXPECT_THROW(decodeArtifact(bytes.substr(0, 10)),
                 SerializationError);
    EXPECT_THROW(decodeArtifact(""), SerializationError);
}

TEST(ModelStore, LoadMissingFileThrows)
{
    EXPECT_THROW(loadArtifact(tempPath("acdse_no_such_file.acdse")),
                 SerializationError);
}

TEST(ModelStore, SaveIsAtomicUnderExistingFile)
{
    // Saving over an existing artifact must never expose a torn file:
    // after save, the file always decodes.
    ModelArtifact artifact;
    artifact.setTag("first");
    artifact.add(Metric::Cycles, trainedPredictor());
    const std::string path = tempPath("acdse_store_atomic.acdse");
    saveArtifact(path, artifact);
    artifact.setTag("second");
    saveArtifact(path, artifact);
    EXPECT_EQ(loadArtifact(path).tag(), "second");
    std::remove(path.c_str());
}

TEST(ModelStore, EveryTruncationIsRejectedCleanly)
{
    // A serving process must reject a partially-written or
    // partially-copied artifact with SerializationError at *every*
    // possible cut point -- no crash, no garbage model.
    ModelArtifact artifact;
    artifact.setTag("truncation-fuzz");
    artifact.add(Metric::Cycles, trainedPredictor());
    const std::string bytes = encodeArtifact(artifact);
    ASSERT_GT(bytes.size(), 28u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_THROW(decodeArtifact(std::string_view(bytes).substr(0, len)),
                     SerializationError)
            << "truncation to " << len << " bytes was accepted";
    }
    // Trailing garbage is corruption too, not padding.
    EXPECT_THROW(decodeArtifact(bytes + '\0'), SerializationError);
}

TEST(ModelStore, EveryBitFlipIsRejectedCleanly)
{
    // Single-bit rot anywhere in the file -- magic, version, length,
    // checksum or payload -- must surface as SerializationError. The
    // sanitizer CI jobs run this to prove the decode path has no
    // UB/overflow on adversarial input.
    ModelArtifact artifact;
    artifact.setTag("bitflip-fuzz");
    artifact.add(Metric::Cycles, trainedPredictor());
    const std::string bytes = encodeArtifact(artifact);
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
        for (unsigned bit : {0u, 3u, 7u}) {
            std::string corrupt = bytes;
            corrupt[offset] =
                static_cast<char>(static_cast<unsigned char>(
                                      corrupt[offset]) ^
                                  (1u << bit));
            EXPECT_THROW(decodeArtifact(corrupt), SerializationError)
                << "bit " << bit << " flip at offset " << offset
                << " was accepted";
        }
    }
}

} // namespace
} // namespace acdse

/**
 * @file
 * Checked-in goldens for the simulator (tests/golden/sim.txt), the
 * oracle of the one core model: the bit pattern of every CoreStats
 * field, metric and energy share
 *
 *  - for every suite program under four fixed configurations, with
 *    warmup off and on, at a short pinned trace length;
 *  - along a walk of configurations that resizes every recycled
 *    component large -> small -> large on one thread's scratch;
 *  - for the SimPoint and SMARTS estimates;
 *  - for the hand-built select corner cases (BatchSimSelect.*).
 *
 * Every comparison is exact: the rows were recorded when a scalar
 * reference pipeline and the event-driven engine still both existed
 * and agreed on every bit, so any difference is a change of the
 * model, not rounding. Rows run one after another on the thread's
 * shared scratch, so state leaking from one configuration into the
 * next shows up too.
 *
 * After a deliberate change of the numerics, re-record with
 *
 *   acdse_tests --gtest_also_run_disabled_tests \
 *               --gtest_filter=SimGolden.DISABLED_Record
 *
 * and review the diff of tests/golden/sim.txt like code.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "sim/sampled_sim.hh"
#include "sim/simulator.hh"
#include "trace/suites.hh"
#include "trace/trace_generator.hh"

namespace acdse
{
namespace
{

const char *const kGoldenPath = ACDSE_GOLDEN_DIR "/sim.txt";

using Words = std::vector<std::uint64_t>;

/** One golden row: a unique label and the bit patterns it pins. */
struct Row
{
    std::string label;
    Words words;
};

using Rows = std::vector<Row>;

/** Field names of a full simulation's words, in order. */
constexpr const char *kResultFields[] = {
    "stats.cycles", "stats.instructions", "stats.branches",
    "stats.mispredicts", "stats.btbMisses", "stats.il1Misses",
    "stats.dl1Misses", "stats.l2Misses", "stats.dispatchStallRob",
    "stats.dispatchStallIq", "stats.dispatchStallLsq",
    "stats.dispatchStallRegs", "stats.fetchStallBranches",
    "metrics.cycles", "metrics.energyNj", "metrics.ed", "metrics.edd",
    "dynamicNj", "staticNj"};

/** Field names of a sampled estimate's words, in order. */
constexpr const char *kSampledFields[] = {
    "metrics.cycles", "metrics.energyNj", "metrics.ed", "metrics.edd",
    "simulatedInstructions", "detailFraction"};

Words
words(const SimulationResult &r)
{
    const CoreStats &s = r.stats;
    return {s.cycles,
            s.instructions,
            s.branches,
            s.mispredicts,
            s.btbMisses,
            s.il1Misses,
            s.dl1Misses,
            s.l2Misses,
            s.dispatchStallRob,
            s.dispatchStallIq,
            s.dispatchStallLsq,
            s.dispatchStallRegs,
            s.fetchStallBranches,
            std::bit_cast<std::uint64_t>(r.metrics.cycles),
            std::bit_cast<std::uint64_t>(r.metrics.energyNj),
            std::bit_cast<std::uint64_t>(r.metrics.ed),
            std::bit_cast<std::uint64_t>(r.metrics.edd),
            std::bit_cast<std::uint64_t>(r.dynamicNj),
            std::bit_cast<std::uint64_t>(r.staticNj)};
}

Words
words(const SampledResult &r)
{
    return {std::bit_cast<std::uint64_t>(r.metrics.cycles),
            std::bit_cast<std::uint64_t>(r.metrics.energyNj),
            std::bit_cast<std::uint64_t>(r.metrics.ed),
            std::bit_cast<std::uint64_t>(r.metrics.edd),
            r.simulatedInstructions,
            std::bit_cast<std::uint64_t>(r.detailFraction)};
}

/** One full simulation's row. */
void
addSimulation(Rows &rows, std::string label, const MicroarchConfig &config,
              const Trace &trace, std::size_t warmup = 0)
{
    ASSERT_TRUE(DesignSpace::isValid(config)) << label;
    SimulationOptions options;
    options.warmupInstructions = warmup;
    rows.push_back(
        {std::move(label), words(simulate(config, trace, options))});
}

Trace
makeTrace(const std::string &name, std::size_t length)
{
    return TraceGenerator(profileByName(name)).generate(length);
}

/** A configuration: the baseline with the listed parameters set. */
MicroarchConfig
configWith(std::initializer_list<std::pair<Param, int>> values)
{
    MicroarchConfig config = DesignSpace::baseline();
    for (const auto &[param, value] : values)
        config.set(param, value);
    return config;
}

/** The fixed configurations every suite program runs under. */
std::vector<std::pair<std::string, MicroarchConfig>>
fixedConfigs()
{
    return {
        {"base", DesignSpace::baseline()},
        {"small",
         configWith({{Param::Width, 2}, {Param::RobSize, 32},
                     {Param::IqSize, 16}, {Param::LsqSize, 16},
                     {Param::RfSize, 40}, {Param::RfReadPorts, 2},
                     {Param::RfWritePorts, 1}, {Param::BpredSize, 1},
                     {Param::BtbSize, 1}, {Param::MaxBranches, 8},
                     {Param::Il1Size, 8}, {Param::Dl1Size, 8},
                     {Param::L2Size, 256}})},
        {"large",
         configWith({{Param::Width, 8}, {Param::RobSize, 160},
                     {Param::IqSize, 80}, {Param::LsqSize, 80},
                     {Param::RfSize, 160}, {Param::RfReadPorts, 16},
                     {Param::RfWritePorts, 8}, {Param::BpredSize, 32},
                     {Param::BtbSize, 4}, {Param::MaxBranches, 32},
                     {Param::Il1Size, 128}, {Param::Dl1Size, 128},
                     {Param::L2Size, 4096}})},
        {"mixed",
         configWith({{Param::Width, 6}, {Param::RobSize, 64},
                     {Param::IqSize, 24}, {Param::LsqSize, 32},
                     {Param::RfSize, 72}, {Param::RfReadPorts, 4},
                     {Param::RfWritePorts, 2}, {Param::BpredSize, 4},
                     {Param::BtbSize, 2}, {Param::MaxBranches, 24},
                     {Param::Il1Size, 16}, {Param::Dl1Size, 64},
                     {Param::L2Size, 1024}})},
    };
}

/** Every suite program x fixedConfigs(), warmup off and on. */
Rows
suiteRows()
{
    Rows rows;
    const auto configs = fixedConfigs();
    for (const ProgramProfile &profile : allProfiles()) {
        const Trace trace = makeTrace(profile.name, 3000);
        for (const std::size_t warmup : {std::size_t{0}, std::size_t{1000}}) {
            for (const auto &[name, config] : configs) {
                addSimulation(rows,
                              "suite/" + profile.name + "/" + name + "/w" +
                                  std::to_string(warmup),
                              config, trace, warmup);
            }
        }
    }
    return rows;
}

/**
 * A walk through the sizes a recycled scratch must re-shape for: L2
 * (with both L1s), predictor, BTB, ROB and width go large -> small ->
 * large, in and out of step with each other.
 */
Rows
resizeWalkRows()
{
    struct Sizes
    {
        int l2Kb, l1Kb, bpredK, btbK, rob, width;
    };
    const Sizes walk[] = {
        {4096, 128, 32, 4, 160, 8}, {256, 8, 1, 1, 32, 2},
        {4096, 128, 32, 4, 160, 8}, {1024, 32, 8, 2, 96, 4},
        {256, 8, 32, 1, 160, 6},    {4096, 128, 1, 4, 32, 2},
        {256, 8, 1, 1, 32, 2},      {2048, 64, 16, 4, 128, 4},
        {4096, 128, 32, 4, 160, 8}, {512, 16, 2, 1, 48, 2},
    };
    Rows rows;
    for (const char *program : {"gcc", "mcf", "equake"}) {
        const Trace trace = makeTrace(program, 6000);
        for (std::size_t i = 0; i < std::size(walk); ++i) {
            const Sizes &s = walk[i];
            addSimulation(
                rows,
                "walk/" + std::string(program) + "/" + std::to_string(i),
                configWith({{Param::L2Size, s.l2Kb},
                            {Param::Il1Size, s.l1Kb},
                            {Param::Dl1Size, s.l1Kb},
                            {Param::BpredSize, s.bpredK},
                            {Param::BtbSize, s.btbK},
                            {Param::RobSize, s.rob},
                            {Param::IqSize, s.rob / 2},
                            {Param::LsqSize, s.rob / 2},
                            {Param::Width, s.width}}),
                trace, 1000);
        }
    }
    return rows;
}

/** The configurations of the sampled rows, as one span. */
std::vector<MicroarchConfig>
fixedConfigList()
{
    std::vector<MicroarchConfig> configs;
    for (const auto &[name, config] : fixedConfigs())
        configs.push_back(config);
    return configs;
}

Rows
simPointRows()
{
    Rows rows;
    const auto names = fixedConfigs();
    const auto configs = fixedConfigList();
    for (const char *program : {"gzip", "equake"}) {
        const Trace trace = makeTrace(program, 16000);
        SimPointOptions options;
        options.intervalLength = 2000;
        options.maxClusters = 4;
        const auto results = simulateWithSimPoints(configs, trace, options);
        for (std::size_t i = 0; i < results.size(); ++i) {
            rows.push_back({"simpoint/" + std::string(program) + "/" +
                                names[i].first,
                            words(results[i])});
        }
    }
    return rows;
}

Rows
smartsRows()
{
    Rows rows;
    const auto names = fixedConfigs();
    const auto configs = fixedConfigList();
    for (const char *program : {"ammp", "gap"}) {
        const Trace trace = makeTrace(program, 16000);
        SmartsOptions options;
        options.unitInstructions = 500;
        options.samplingPeriod = 8;
        options.offset = 3;
        const auto results = simulateWithSmarts(configs, trace, options);
        for (std::size_t i = 0; i < results.size(); ++i) {
            rows.push_back({"smarts/" + std::string(program) + "/" +
                                names[i].first,
                            words(results[i])});
        }
    }
    return rows;
}

// ---- Select corner cases on hand-built traces ------------------------
//
// The engine issues from a wakeup-driven ready set instead of scanning
// the issue queue; these traces pin down the cases where the two could
// part ways.

/** One instruction of class @p cls reading the producers at @p d1/d2. */
TraceInstruction
inst(InstClass cls, std::uint32_t d1 = 0, std::uint32_t d2 = 0)
{
    TraceInstruction in{};
    in.cls = cls;
    in.srcDist1 = d1;
    in.srcDist2 = d2;
    return in;
}

/**
 * @p length instructions repeating @p body, at the pcs of a 64-entry
 * loop (I-cache resident after the first pass). Memory operations
 * stride through @p stride bytes per instruction, so a large stride
 * misses every cache level.
 */
Trace
loopTrace(const std::vector<TraceInstruction> &body, std::size_t length,
          std::uint64_t stride = 8)
{
    std::vector<TraceInstruction> insts;
    for (std::size_t i = 0; i < length; ++i) {
        TraceInstruction in = body[i % body.size()];
        in.pc = 0x400000 + 4 * (i % 64);
        in.addr = 0x10000000 + stride * i;
        insts.push_back(in);
    }
    return Trace("hand", std::move(insts));
}

/** The baseline with a pinned width and register-file port counts. */
MicroarchConfig
pinnedConfig(int width, int readPorts, int writePorts)
{
    return configWith({{Param::Width, width},
                       {Param::RfReadPorts, readPorts},
                       {Param::RfWritePorts, writePorts}});
}

/**
 * Each FP add reads the same producer twice; that producer waits on a
 * divide chain, so it is still unissued when its reader dispatches and
 * both operand nodes hang off one waiter list.
 */
Rows
bothOperandsRows()
{
    const Trace trace = loopTrace({inst(InstClass::FpDiv, 4),
                                   inst(InstClass::FpAlu, 1),
                                   inst(InstClass::FpAlu, 1, 1),
                                   inst(InstClass::IntAlu, 1, 1)},
                                  3000);
    Rows rows;
    for (const int width : {2, 4, 8}) {
        addSimulation(rows, "select/both-operands/w" + std::to_string(width),
                      pinnedConfig(width, 8, 4), trace);
    }
    return rows;
}

/**
 * Independent divides all come ready at once but width 4 has one
 * divider: the blocked ones stay ready and the younger integer ops
 * issue past them, freeing entries of the small issue queue. Behind a
 * missing load, nothing else happens when the divider frees, so the
 * idle skip has to stop there by itself.
 */
Rows
backToBackDividesRows()
{
    EXPECT_EQ(functionalUnitsForWidth(4).fpMulDiv, 1);
    const Trace trace = loopTrace({inst(InstClass::Load),
                                   inst(InstClass::FpDiv),
                                   inst(InstClass::IntAlu),
                                   inst(InstClass::FpDiv),
                                   inst(InstClass::IntAlu),
                                   inst(InstClass::FpDiv),
                                   inst(InstClass::IntAlu),
                                   inst(InstClass::IntAlu)},
                                  2000, 4096);
    Rows rows;
    for (const int width : {2, 4}) {
        MicroarchConfig config = pinnedConfig(width, 8, 4);
        config.set(Param::IqSize, 8);
        addSimulation(rows, "select/divides/w" + std::to_string(width),
                      config, trace);
    }
    return rows;
}

/**
 * Two read ports at width 8: after an older one-source op takes a
 * port, the next two-source op is blocked and a younger one-source op
 * still issues in the same cycle.
 */
Rows
readPortRows()
{
    const Trace trace = loopTrace({inst(InstClass::IntAlu, 40),
                                   inst(InstClass::IntAlu, 40, 50),
                                   inst(InstClass::IntAlu, 40),
                                   inst(InstClass::IntMul, 30, 60),
                                   inst(InstClass::IntAlu)},
                                  4000);
    Rows rows;
    addSimulation(rows, "select/read-ports/wr2", pinnedConfig(8, 2, 2),
                  trace);
    addSimulation(rows, "select/read-ports/wr1", pinnedConfig(8, 2, 1),
                  trace);
    return rows;
}

/**
 * A missing load issues at once; its consumer, a divide, dispatches
 * several cycles later, when the load's result cycle is already fixed
 * but still far ahead, so it goes straight onto the timing wheel. Its
 * latency then shows in the commit time.
 */
Rows
lateConsumerRows()
{
    std::vector<TraceInstruction> body = {inst(InstClass::Load)};
    for (int i = 0; i < 14; ++i)
        body.push_back(inst(InstClass::IntAlu));
    body.push_back(inst(InstClass::FpDiv, 15, 1));
    const Trace trace = loopTrace(body, 4000, 4096);
    Rows rows;
    for (const int width : {2, 4}) {
        addSimulation(rows, "select/late-consumer/w" + std::to_string(width),
                      pinnedConfig(width, 8, 4), trace);
    }
    return rows;
}

/**
 * With a 2000-instruction warmup, the first timed instructions read
 * producers that lie before the timed interval: ready at dispatch.
 */
Rows
producerBeforeIntervalRows()
{
    const Trace trace = loopTrace({inst(InstClass::IntAlu, 5, 37),
                                   inst(InstClass::Load, 11),
                                   inst(InstClass::FpMul, 1, 29),
                                   inst(InstClass::Store, 3, 2)},
                                  6000, 64);
    Rows rows;
    for (const int width : {2, 8}) {
        addSimulation(rows,
                      "select/before-interval/w" + std::to_string(width),
                      pinnedConfig(width, 8, 4), trace, 2000);
    }
    return rows;
}

/** Every golden case, in file order. */
const std::function<Rows()> kCases[] = {
    suiteRows,        resizeWalkRows,       simPointRows,
    smartsRows,       bothOperandsRows,     backToBackDividesRows,
    readPortRows,     lateConsumerRows,     producerBeforeIntervalRows,
};

std::string
hex(std::uint64_t word)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, word);
    return buf;
}

/** The checked-in rows, by label. */
const std::map<std::string, Words> &
goldens()
{
    static const std::map<std::string, Words> rows = [] {
        std::map<std::string, Words> out;
        std::ifstream in(kGoldenPath);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string label;
            std::string word;
            fields >> label;
            Words &row = out[label];
            while (fields >> word)
                row.push_back(std::stoull(word, nullptr, 16));
        }
        return out;
    }();
    return rows;
}

/** Every row of @p rows matches its golden bit for bit. */
void
expectGolden(const Rows &rows)
{
    ASSERT_FALSE(goldens().empty()) << "no goldens at " << kGoldenPath;
    ASSERT_FALSE(rows.empty());
    for (const Row &row : rows) {
        SCOPED_TRACE(row.label);
        const auto it = goldens().find(row.label);
        ASSERT_NE(it, goldens().end()) << "row missing from the goldens";
        const Words &want = it->second;
        ASSERT_EQ(row.words.size(), want.size());
        const bool sampled = want.size() == std::size(kSampledFields);
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(hex(row.words[i]), hex(want[i]))
                << (sampled ? kSampledFields[i] : kResultFields[i]);
        }
    }
}

TEST(SimGolden, SuiteProgramsUnderFixedConfigs)
{
    expectGolden(suiteRows());
}

TEST(SimGolden, ScratchResizeWalk)
{
    expectGolden(resizeWalkRows());
}

TEST(SimGolden, SimPointEstimates)
{
    expectGolden(simPointRows());
}

TEST(SimGolden, SmartsEstimates)
{
    expectGolden(smartsRows());
}

TEST(BatchSimSelect, BothOperandsFromOneUnissuedProducer)
{
    expectGolden(bothOperandsRows());
}

TEST(BatchSimSelect, BackToBackDividesShareOneDivider)
{
    expectGolden(backToBackDividesRows());
}

TEST(BatchSimSelect, YoungerOneSourceOpPassesTwoSourceOpOnReadPorts)
{
    expectGolden(readPortRows());
}

TEST(BatchSimSelect, ConsumerDispatchedAfterItsLoadIssued)
{
    expectGolden(lateConsumerRows());
}

TEST(BatchSimSelect, ProducerBeforeTheTimedInterval)
{
    expectGolden(producerBeforeIntervalRows());
}

/** Rewrites tests/golden/sim.txt from the current model. */
TEST(SimGolden, DISABLED_Record)
{
    std::ostringstream out;
    out << "# Simulator goldens (tests/test_sim_golden.cc): label, then\n"
           "# one 64-bit word per field in hex (doubles as bit patterns).\n";
    std::size_t count = 0;
    for (const auto &rowsOf : kCases) {
        for (const Row &row : rowsOf()) {
            out << row.label;
            for (const std::uint64_t word : row.words)
                out << ' ' << hex(word);
            out << '\n';
            ++count;
        }
    }
    std::ofstream file(kGoldenPath, std::ios::trunc);
    file << out.str();
    ASSERT_TRUE(file.good()) << "cannot write " << kGoldenPath;
    std::printf("recorded %zu rows into %s\n", count, kGoldenPath);
}

} // namespace
} // namespace acdse

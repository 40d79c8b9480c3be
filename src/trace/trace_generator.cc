#include "trace/trace_generator.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace acdse
{

namespace
{

/** How a static branch decides its outcome on each execution. */
enum class BranchKind : std::uint8_t
{
    Unconditional,  //!< always taken
    Loop,           //!< backward branch with a trip count (exits once)
    Biased,         //!< strongly biased coin
    Pattern,        //!< deterministic periodic pattern
    Random,         //!< near-fair coin (unpredictable)
};

/** One static basic block of the synthetic CFG. */
struct StaticBlock
{
    std::uint64_t startPc;      //!< address of the first instruction
    int size;                   //!< instructions including the branch
    BranchKind kind;            //!< behaviour of the terminating branch
    double takenProb;           //!< for Biased/Random kinds
    double tripMean;            //!< mean trip count for Loop kind
    std::uint32_t patternMask;  //!< for Pattern kind
    int patternLen;             //!< pattern period (<= 16)
    std::uint32_t takenBlock;   //!< successor when taken
    std::uint32_t fallBlock;    //!< successor when not taken
};

constexpr std::uint64_t kCodeBase = 0x0040'0000;
constexpr std::uint64_t kDataBase = 0x1000'0000;
constexpr std::uint64_t kAddressSpace = std::uint64_t{1} << 32;
constexpr int kInstBytes = 4;

} // namespace

const char *
suiteName(Suite suite)
{
    switch (suite) {
      case Suite::SpecCpu2000: return "SPEC CPU 2000";
      case Suite::MiBench: return "MiBench";
      default: panic("bad suite");
    }
}

std::uint64_t
ProgramProfile::seedFromName(const std::string &name)
{
    // FNV-1a, then a SplitMix64 finaliser for avalanche.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

TraceGenerator::TraceGenerator(ProgramProfile profile)
    : profile_(std::move(profile))
{
    ACDSE_CHECK(profile_.branchFraction > 0.0 &&
                     profile_.branchFraction < 0.5,
                 "branch fraction must be in (0, 0.5)");
    ACDSE_CHECK(profile_.dataFootprintKb >= 1.0, "footprint too small");
}

Trace
TraceGenerator::generate(std::size_t length) const
{
    ACDSE_CHECK(length > 0, "cannot generate an empty trace");
    const ProgramProfile &p = profile_;
    Rng rng(p.seed ? p.seed : ProgramProfile::seedFromName(p.name));

    // --- Build the static CFG ------------------------------------------
    // One branch terminates each block, so the mean block size fixes the
    // dynamic branch fraction; the block count then fixes the static
    // code footprint.
    const double mean_block = std::max(2.0, 1.0 / p.branchFraction);
    const auto static_insts = static_cast<std::uint64_t>(
        std::max(64.0, p.codeFootprintKb * 1024.0 / kInstBytes));
    const auto num_blocks = static_cast<std::uint32_t>(std::max<double>(
        4.0, static_cast<double>(static_insts) / mean_block));

    std::vector<StaticBlock> blocks(num_blocks);
    // Total-visit budget per block: once exhausted, its branch falls
    // through. This bounds the dynamic iteration product of nested
    // loops (real loops have bounds) and guarantees forward progress.
    std::vector<std::uint32_t> visit_budget(num_blocks);
    std::uint64_t pc = kCodeBase;
    for (std::uint32_t i = 0; i < num_blocks; ++i) {
        StaticBlock &b = blocks[i];
        b.startPc = pc;
        b.size = static_cast<int>(std::clamp<std::uint64_t>(
            rng.nextGeometric(mean_block), 2, 32));
        pc += static_cast<std::uint64_t>(b.size) * kInstBytes;
        visit_budget[i] = 16 + static_cast<std::uint32_t>(
            std::min<std::uint64_t>(rng.nextGeometric(60.0), 240));

        // Jump locality scales with the code size so that large-code
        // programs keep an instruction working set that straddles the
        // L1I capacities of the design space.
        const std::int64_t span = std::max<std::int64_t>(
            32, static_cast<std::int64_t>(num_blocks) / 12);

        // Branch behaviour mix. Backward branches are explicit loops
        // with finite trip counts (taken until the trip expires), which
        // both matches real loop branches and guarantees the walk can
        // never be trapped in a cycle of always-taken branches. The
        // remaining conditionals are easy (biased) with probability
        // branchPredictability, else periodic patterns or near-fair
        // coins (irreducible mispredictions). Unconditional branches
        // always jump forward.
        if (rng.nextBool(0.12)) {
            b.kind = BranchKind::Unconditional;
            b.takenProb = 1.0;
            const std::uint32_t fwd = static_cast<std::uint32_t>(
                rng.nextRange(1, std::max<std::int64_t>(16, span / 2)));
            b.takenBlock = (i + fwd) % num_blocks;
        } else if (rng.nextBool(p.loopBackProb)) {
            b.kind = BranchKind::Loop;
            // Hard-to-predict programs have shorter, more erratic
            // loops (each loop exit is one mispredict).
            b.tripMean = rng.nextDouble(
                3.0, 8.0 + 56.0 * p.branchPredictability);
            const std::uint32_t back =
                static_cast<std::uint32_t>(rng.nextRange(1, 8));
            b.takenBlock = (i >= back) ? i - back : 0;
        } else {
            if (rng.nextBool(p.branchPredictability)) {
                b.kind = BranchKind::Biased;
                b.takenProb = rng.nextBool(0.5)
                                  ? rng.nextDouble(0.92, 0.995)
                                  : rng.nextDouble(0.005, 0.08);
            } else if (rng.nextBool(0.5)) {
                b.kind = BranchKind::Pattern;
                b.patternLen = static_cast<int>(rng.nextRange(2, 10));
                // Force both outcomes to occur within the period so
                // pattern cycles always terminate.
                b.patternMask =
                    (static_cast<std::uint32_t>(rng.next()) | 1u) & ~2u;
                b.takenProb = 0.5;
            } else {
                b.kind = BranchKind::Random;
                b.takenProb = rng.nextDouble(0.35, 0.65);
            }
            // Local jump within the hot region: execution advances
            // through the code as a slowly-moving working set,
            // concentrating dynamic executions on few static branches
            // at a time (as real programs do).
            const std::int64_t delta = rng.nextRange(-span, span);
            b.takenBlock = static_cast<std::uint32_t>(
                (static_cast<std::int64_t>(i) + delta +
                 num_blocks) % num_blocks);
        }
        b.fallBlock = (i + 1) % num_blocks;
    }

    // --- Data-memory state ----------------------------------------------
    const auto footprint = static_cast<std::uint64_t>(
        p.dataFootprintKb * 1024.0);
    // Code ends at pc and data at kDataBase + footprint; both regions
    // must fit the simulated machine's 32-bit address space.
    ACDSE_CHECK(pc <= kAddressSpace && kDataBase + footprint <= kAddressSpace,
                 "program '", p.name, "' does not fit a 32-bit address "
                 "space (code ends at ", pc, ", data at ",
                 kDataBase + footprint, ")");
    const auto hot_bytes = static_cast<std::uint64_t>(std::min(
        p.hotRegionKb * 1024.0, p.dataFootprintKb * 1024.0));
    const int num_streams = std::max(1, p.numStreams);
    std::vector<std::uint64_t> streams(num_streams);
    for (auto &s : streams)
        s = rng.nextBounded(footprint) & ~7ULL;

    auto next_addr = [&](bool irregular) -> std::uint64_t {
        if (irregular)
            return kDataBase + (rng.nextBounded(footprint) & ~7ULL);
        const double roll = rng.nextDouble();
        if (roll < p.probHot)
            return kDataBase + (rng.nextBounded(hot_bytes) & ~7ULL);
        if (roll < p.probHot + p.probStream) {
            auto &s = streams[rng.nextBounded(num_streams)];
            s = (s + static_cast<std::uint64_t>(p.strideBytes)) % footprint;
            return kDataBase + (s & ~7ULL);
        }
        return kDataBase + (rng.nextBounded(footprint) & ~7ULL);
    };

    // --- Instruction mix (non-branch classes) ---------------------------
    const std::vector<double> mix{p.wIntAlu, p.wIntMul, p.wFpAlu,
                                  p.wFpMul, p.wFpDiv, p.wLoad, p.wStore};
    constexpr std::array<InstClass, 7> mix_classes{
        InstClass::IntAlu, InstClass::IntMul, InstClass::FpAlu,
        InstClass::FpMul, InstClass::FpDiv, InstClass::Load,
        InstClass::Store};

    auto dep_dist = [&](std::size_t emitted) -> std::uint32_t {
        if (emitted == 0)
            return 0;
        const std::uint64_t d = rng.nextGeometric(p.meanDepDistance);
        return static_cast<std::uint32_t>(
            std::min<std::uint64_t>(d, emitted));
    };

    // --- Walk the CFG ----------------------------------------------------
    std::vector<TraceInstruction> insts;
    insts.reserve(length);
    std::vector<std::uint32_t> visit_counts(num_blocks, 0);
    std::vector<std::uint32_t> loop_remaining(num_blocks, 0);
    std::uint32_t cur = 0;
    std::size_t last_load = 0;      // index+1 of most recent load
    while (insts.size() < length) {
        const StaticBlock &b = blocks[cur];
        // Body instructions (all but the final branch).
        for (int k = 0; k + 1 < b.size && insts.size() < length; ++k) {
            TraceInstruction inst{};
            inst.pc = static_cast<std::uint32_t>(
                b.startPc + static_cast<std::uint64_t>(k) * kInstBytes);
            inst.cls = mix_classes[rng.nextDiscrete(mix)];
            const std::size_t emitted = insts.size();
            if (!rng.nextBool(p.independentFraction)) {
                inst.srcDist1 = dep_dist(emitted);
                if (rng.nextBool(p.twoSourceFraction))
                    inst.srcDist2 = dep_dist(emitted);
            }
            if (isMemClass(inst.cls)) {
                bool irregular = false;
                if (inst.cls == InstClass::Load && last_load &&
                    rng.nextBool(p.pointerChaseFraction)) {
                    // Pointer chase: address produced by the previous
                    // load, landing somewhere irregular.
                    const std::size_t dist = emitted - (last_load - 1);
                    if (dist <= 64) {
                        inst.srcDist1 = static_cast<std::uint32_t>(dist);
                        irregular = true;
                    }
                }
                inst.addr = static_cast<std::uint32_t>(next_addr(irregular));
                if (inst.cls == InstClass::Load)
                    last_load = emitted + 1;
            }
            insts.push_back(inst);
        }
        if (insts.size() >= length)
            break;

        // Terminating branch.
        const std::uint32_t visit = visit_counts[cur]++;
        const bool budget_spent = visit >= visit_budget[cur];
        TraceInstruction br{};
        br.pc = static_cast<std::uint32_t>(
            b.startPc + static_cast<std::uint64_t>(b.size - 1) * kInstBytes);
        br.cls = InstClass::Branch;
        br.conditional = b.kind != BranchKind::Unconditional;
        switch (budget_spent && b.kind != BranchKind::Unconditional
                    ? BranchKind::Biased
                    : b.kind) {
          case BranchKind::Unconditional:
            br.taken = true;
            break;
          case BranchKind::Loop:
            // Stay in the loop until the trip count expires, then exit
            // once and draw a fresh trip count.
            if (loop_remaining[cur] == 0)
                loop_remaining[cur] = static_cast<std::uint32_t>(
                    rng.nextGeometric(b.tripMean));
            br.taken = --loop_remaining[cur] > 0;
            break;
          case BranchKind::Biased:
          case BranchKind::Random:
            br.taken = budget_spent ? false : rng.nextBool(b.takenProb);
            break;
          case BranchKind::Pattern:
            br.taken = (b.patternMask >>
                        (visit % static_cast<std::uint32_t>(
                             b.patternLen))) & 1u;
            break;
        }
        if (br.conditional && rng.nextBool(0.3))
            br.srcDist1 = dep_dist(insts.size());
        const std::uint32_t next = br.taken ? b.takenBlock : b.fallBlock;
        br.addr = static_cast<std::uint32_t>(blocks[next].startPc);
        insts.push_back(br);
        cur = next;
    }

    return Trace(p.name, std::move(insts));
}

} // namespace acdse

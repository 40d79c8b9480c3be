/**
 * @file
 * Statistical profile of a benchmark program.
 *
 * A ProgramProfile is the knob set from which TraceGenerator produces a
 * deterministic dynamic-instruction trace. The profiles in suites.cc
 * are calibrated so that the generated programs exhibit the qualitative
 * behaviours the paper relies on: diverse, partially similar design
 * spaces with a few strong outliers (art, mcf).
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "trace/instruction.hh"

namespace acdse
{

/** Which benchmark suite a profile belongs to. */
enum class Suite
{
    SpecCpu2000,    //!< the paper's training/evaluation suite
    MiBench,        //!< the paper's cross-suite test set
};

/**
 * All generation knobs for one synthetic benchmark.
 *
 * Fractions need not be normalised; the generator normalises the mix.
 */
struct ProgramProfile
{
    std::string name;           //!< benchmark name (e.g. "applu")
    Suite suite;                //!< owning suite
    std::uint64_t seed;         //!< generation seed (derived from name)

    /** @name Instruction mix (relative weights, Branch excluded). */
    /** @{ */
    double wIntAlu = 4.0;       //!< integer ALU weight
    double wIntMul = 0.2;       //!< integer multiply weight
    double wFpAlu = 0.0;        //!< FP add weight
    double wFpMul = 0.0;        //!< FP multiply weight
    double wFpDiv = 0.0;        //!< FP divide weight
    double wLoad = 2.0;         //!< load weight
    double wStore = 1.0;        //!< store weight
    /** @} */

    /** Fraction of dynamic instructions that are branches. */
    double branchFraction = 0.15;

    /** @name Data-dependence structure. */
    /** @{ */
    /** Mean distance (instructions) to each operand's producer. */
    double meanDepDistance = 12.0;
    /** Probability an instruction has no register inputs at all. */
    double independentFraction = 0.15;
    /** Probability a second source operand exists. */
    double twoSourceFraction = 0.5;
    /**
     * Fraction of loads whose address depends on the previous load
     * (pointer chasing; dominates mcf-like programs).
     */
    double pointerChaseFraction = 0.0;
    /** @} */

    /** @name Data-memory behaviour. */
    /** @{ */
    double dataFootprintKb = 256.0; //!< total data working set
    double hotRegionKb = 16.0;      //!< hot subset hit with probHot
    double probHot = 0.6;           //!< P(access falls in hot region)
    /**
     * P(access continues a strided stream). probHot and probStream are
     * sequential thresholds: the effective stream share is
     * min(probStream, 1 - probHot) and the remainder is random within
     * the footprint.
     */
    double probStream = 0.25;
    int numStreams = 4;             //!< concurrent strided streams
    int strideBytes = 8;            //!< stream stride
    /** @} */

    /** @name Control-flow / code behaviour. */
    /** @{ */
    double codeFootprintKb = 24.0;  //!< static code size (drives IL1)
    /**
     * Branch predictability in [0, 1]: 1 = fully biased branches
     * (easy), 0 = coin flips (hopeless). Intermediate values mix biased
     * and pattern-following branches so a larger gshare table helps.
     */
    double branchPredictability = 0.85;
    double loopBackProb = 0.65;     //!< P(branch loops back locally)
    /** @} */

    /** Stable 64-bit seed derived from a benchmark name. */
    static std::uint64_t seedFromName(const std::string &name);
};

} // namespace acdse


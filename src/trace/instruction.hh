/**
 * @file
 * The dynamic-instruction representation consumed by the timing model.
 *
 * Traces are the substitute for SPEC CPU 2000 / MiBench binaries (see
 * DESIGN.md Section 2): a deterministic synthetic instruction stream
 * generated from a per-program statistical profile.
 */

#pragma once

#include <cstdint>

namespace acdse
{

/** Functional class of a dynamic instruction. */
enum class InstClass : std::uint8_t
{
    IntAlu,     //!< integer ALU op (also address generation)
    IntMul,     //!< integer multiply
    FpAlu,      //!< floating-point add/sub/compare
    FpMul,      //!< floating-point multiply
    FpDiv,      //!< floating-point divide (unpipelined)
    Load,       //!< memory load
    Store,      //!< memory store
    Branch,     //!< control transfer (conditional or not)
    NumClasses, //!< sentinel
};

/** Number of instruction classes. */
constexpr std::size_t kNumInstClasses =
    static_cast<std::size_t>(InstClass::NumClasses);

/** Whether the class reads/writes memory. */
inline bool
isMemClass(InstClass cls)
{
    return cls == InstClass::Load || cls == InstClass::Store;
}

/** Whether the class produces a register result. */
inline bool
producesResult(InstClass cls)
{
    return cls != InstClass::Store && cls != InstClass::Branch;
}

/**
 * One dynamic instruction (20 bytes).
 *
 * The simulated machine has a 32-bit address space: the code and data
 * regions sit well below 2^32 (TraceGenerator checks that they do), so
 * addresses -- and every simulator table indexed or tagged by them --
 * are 32 bits wide.
 *
 * Register dependences are encoded positionally: srcDist[k] is the
 * distance (in dynamic instructions) back to the producer of source
 * operand k, or 0 if the operand is absent / architecturally ready.
 * This removes the need for register renaming in the generator while
 * still exposing exact data-dependence structure to the core model.
 */
struct TraceInstruction
{
    std::uint32_t pc;        //!< instruction address (bytes)
    /**
     * Effective address for loads and stores, the target for branches
     * (the address of the next instruction), 0 otherwise.
     */
    std::uint32_t addr;
    std::uint32_t srcDist1;  //!< distance to first producer (0 = none)
    std::uint32_t srcDist2;  //!< distance to second producer (0 = none)
    InstClass cls;           //!< functional class
    bool taken;              //!< branch outcome (valid for branches)
    bool conditional;        //!< conditional branch?
};

} // namespace acdse


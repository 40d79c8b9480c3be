/**
 * @file
 * Per-instruction-class properties shared by the scalar core model
 * (core.cc) and the decoded-trace replay path (batch.cc).
 *
 * Both paths must map an InstClass to the *same* execution latency,
 * functional-unit pool and energy event, or the batched simulator's
 * bit-identity contract against scalar simulate() breaks. Keeping the
 * tables in one header makes divergence a link error instead of a
 * silently drifting copy.
 */

#pragma once

#include <cstddef>

#include "arch/parameter.hh"
#include "base/logging.hh"
#include "sim/energy.hh"
#include "trace/instruction.hh"

namespace acdse
{

/** Execution latency (excluding memory) for each class. */
inline int
execLatency(InstClass cls)
{
    const FixedParams &fp = fixedParams();
    switch (cls) {
      case InstClass::IntAlu: return fp.intAluLatency;
      case InstClass::IntMul: return fp.intMulLatency;
      case InstClass::FpAlu: return fp.fpAluLatency;
      case InstClass::FpMul: return fp.fpMulLatency;
      case InstClass::FpDiv: return fp.fpDivLatency;
      case InstClass::Load: return 1;  // address generation
      case InstClass::Store: return 1; // address generation
      case InstClass::Branch: return fp.intAluLatency;
      default: panic("bad instruction class");
    }
}

/** Which functional-unit pool a class issues to. */
enum class FuPool : std::size_t { IntAlu, IntMul, FpAlu, FpMulDiv, Count };

/** Number of functional-unit pools. */
constexpr std::size_t kNumFuPools =
    static_cast<std::size_t>(FuPool::Count);

/** The pool an instruction class issues to. */
inline FuPool
fuPoolFor(InstClass cls)
{
    switch (cls) {
      case InstClass::IntAlu:
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::Branch:
        return FuPool::IntAlu;
      case InstClass::IntMul:
        return FuPool::IntMul;
      case InstClass::FpAlu:
        return FuPool::FpAlu;
      case InstClass::FpMul:
      case InstClass::FpDiv:
        return FuPool::FpMulDiv;
      default:
        panic("bad instruction class");
    }
}

/** The dynamic-energy event one executed instruction of a class costs. */
inline EnergyEvent
fuEnergyFor(InstClass cls)
{
    switch (cls) {
      case InstClass::IntMul: return EnergyEvent::FuIntMul;
      case InstClass::FpAlu: return EnergyEvent::FuFpAlu;
      case InstClass::FpMul: return EnergyEvent::FuFpMul;
      case InstClass::FpDiv: return EnergyEvent::FuFpDiv;
      default: return EnergyEvent::FuIntAlu;
    }
}

} // namespace acdse

/**
 * @file
 * Portable fixed-width lane kernels for batched model inference.
 *
 * The batched predict path vectorises *across design points*: a block
 * of kLanes points travels through the network together, one point per
 * lane, with every feature-loop iteration applying the same operation
 * to all lanes. Because each lane performs exactly the scalar path's
 * operation sequence (same additions, in the same order, on the same
 * values), batched results are bit-identical to per-point prediction
 * -- vectorisation is a scheduling decision, never a numerical one,
 * matching the thread-pool determinism contract.
 *
 * On GCC and Clang the kernels work in Chunk, a compiler
 * vector-extension type of machine-register width (SSE2 xmm, NEON q):
 * element i of a vector multiply/add is the *same* IEEE operation the
 * scalar path performs, so the bit-exact contract is unaffected, and
 * an explicit vector type pins the codegen the design depends on --
 * accumulators stay in registers across a whole dot product, one
 * packed op per chunk. (Plain fixed-trip loops express the same
 * thing, but the autovectoriser is free to transpose the loop nest
 * into a shuffle-heavy form slower than scalar code.) The build
 * requires GCC or Clang, so the vector-extension path is the only one.
 *
 * Why lanes win even without wide registers: the scalar dot product
 * `acc += w[i] * x[i]` is a serial dependency chain through acc, so a
 * per-point forward pass is latency-bound on floating-point addition.
 * A block carries kLanes independent accumulator chains, which pipeline
 * and vectorise; the speedup is ILP first, SIMD second.
 */

#pragma once

#include <cstddef>
#include <cstring>

namespace acdse::simd
{

/**
 * Points per batch block: 8 doubles = four SSE2 / two AVX2 vectors,
 * enough independent chains to hide FP-add latency without spilling
 * the accumulator block out of registers.
 */
inline constexpr std::size_t kLanes = 8;

/**
 * One machine vector of doubles. 16 bytes is the portable native
 * width (SSE2 xmm, NEON q registers): a register-sized chunk is the
 * unit the compiler will actually keep in a register, so a block is
 * handled as kChunks of these rather than one oversized vector type
 * (which GCC lowers through stack slots -- putting the accumulators
 * back in memory, the exact thing the block design exists to avoid).
 *
 * Deliberately 16 bytes even when the build targets AVX/AVX-512
 * (-march=native): at a fixed 8-point block, wider chunks mean fewer
 * independent accumulator chains -- 64-byte chunks leave a single
 * latency-bound chain per neuron and measured ~30% *slower* than
 * four 16-byte chains on an AVX-512 host; 32-byte chunks measured
 * neutral. The chains, not the vector width, carry the speedup.
 */
typedef double Chunk __attribute__((vector_size(16)));

/** Lanes per machine vector. */
inline constexpr std::size_t kChunkLanes = sizeof(Chunk) / sizeof(double);

/** Machine vectors per block. */
inline constexpr std::size_t kChunks = kLanes / kChunkLanes;
static_assert(kLanes % kChunkLanes == 0,
              "block width must be a whole number of machine vectors");

/** Load one chunk from @p p (no alignment requirement). */
inline Chunk
chunkLoad(const double *p)
{
    Chunk c;
    std::memcpy(&c, p, sizeof c);
    return c;
}

/** Store one chunk to @p p (no alignment requirement). */
inline void
chunkStore(double *p, Chunk c)
{
    std::memcpy(p, &c, sizeof c);
}

/** A chunk with every lane set to @p v. */
inline Chunk
chunkBroadcast(double v)
{
    Chunk c;
    for (std::size_t l = 0; l < kChunkLanes; ++l)
        c[l] = v;
    return c;
}

/**
 * Transpose @p count (1..kLanes) row-major points (point l starts at
 * rows + l * d) into a feature-major block: soa[i * kLanes + l] =
 * feature i of point l. Lanes past @p count repeat the last point, so
 * a tail block runs the same kernels on real data and callers keep
 * only the first @p count results. Pure data movement -- done once
 * per block and shared by every consumer of the block (e.g. each
 * member of an ensemble).
 */
inline void
transposeBlock(const double *__restrict rows, std::size_t count,
               std::size_t d, double *__restrict soa)
{
    for (std::size_t l = 0; l < kLanes; ++l) {
        const double *row = rows + (l < count ? l : count - 1) * d;
        for (std::size_t i = 0; i < d; ++i)
            soa[i * kLanes + l] = row[i];
    }
}

} // namespace acdse::simd

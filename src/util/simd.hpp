/**
 * @file
 * KB_SIMD: the analyzers' two hand-vectorizable kernel families, behind
 * feature dispatch.
 *
 * 1. Compressed-row access (orderedAccess8). The set-associative
 *    Mattson pass (trace/reuse.hpp) keeps every set of a plane of at
 *    most 8 ways as one recency-ordered 64-byte row (contract below);
 *    one access is a probe plus a rotate-to-front.
 * 2. MarkRank block scans (popcountRange, sumRange16/32/64) for the
 *    fully associative pass (trace/rank_scan.inc): exact integer
 *    reductions over at most 63 elements per level, so every ISA
 *    returns the same value in any summation order.
 *
 * Each family has a `generic` body of plain loops (always compiled;
 * the only choice on targets with neither ISA). Hand-written
 * intrinsics stay only where they beat those loops, measured on a
 * 4-vCPU AVX2 host with GCC 12.2 (RelWithDebInfo, micro_perf medians):
 *
 *   AVX2  orderedAccess8: one compare + two table permutes, 23.5M/s
 *         against 10.5M/s for the plain early-exit loop
 *         (BM_MultiSetRowScan/1). The block scans are the generic
 *         loops compiled under the avx2 target (which also brings the
 *         popcnt instruction): 16.6M/s, level with the AVX2
 *         intrinsics they replaced (BM_MarkRankSimd), so no AVX2 scan
 *         intrinsics remain.
 *   SSE2  orderedAccess8 (vector probe, scalar rotate) and the block
 *         scans: at the x86-64 baseline the intrinsic scans run
 *         13.3M/s against 8.8M/s for the generic loops.
 *   NEON  orderedAccess8 (vector probe, scalar rotate) and the block
 *         scans (aarch64).
 *
 * On x86-64 the dispatch is at RUN time: both the SSE2 baseline and
 * the AVX2 variants (compiled via the function target attribute, so a
 * plain -march=x86-64 build still carries them) are always built, and
 * detectIsa() picks once per process with __builtin_cpu_supports. The
 * -march=x86-64 CI job runs the suite under KB_SIMD=sse2 to prove the
 * same binary's baseline path stays bit-exact on pre-AVX2 hardware.
 * Other targets dispatch at compile time.
 *
 * The kernels are far too short to survive an indirect call each, so
 * the analyzers stamp out their whole run loop (trace/plane_run.inc)
 * and rank query (trace/rank_scan.inc) once per ISA with these bodies
 * inlined, and pay one indirect call per run or per query.
 *
 * sumRange16's inputs must stay below 2^15 (MarkRank's level-1 counts
 * max out at 4096), which lets the SSE2 tier use the signed madd
 * instruction.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define KB_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define KB_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace kb::simd {

/** Dispatchable row-scan implementations (availability depends on the
 *  build target and, for Avx2, the host CPU). */
enum class Isa
{
    Avx2,
    Sse2,
    Neon,
    Generic,
};

inline const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Avx2:
        return "avx2";
    case Isa::Sse2:
        return "sse2";
    case Isa::Neon:
        return "neon";
    default:
        return "generic";
    }
}

/** Parse an ISA name ("avx2", "sse2", "neon", "generic"); false (out
 *  untouched) on anything else. Availability is a separate question —
 *  see isaAvailable(). */
inline bool
parseIsa(std::string_view name, Isa &out)
{
    if (name == "avx2")
        out = Isa::Avx2;
    else if (name == "sse2")
        out = Isa::Sse2;
    else if (name == "neon")
        out = Isa::Neon;
    else if (name == "generic")
        out = Isa::Generic;
    else
        return false;
    return true;
}

/** Best ISA this build+host pair supports. */
inline Isa
detectIsa()
{
#if defined(KB_SIMD_X86)
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Isa::Avx2 : Isa::Sse2;
#elif defined(KB_SIMD_NEON)
    return Isa::Neon;
#else
    return Isa::Generic;
#endif
}

/** Whether @p isa can run on this build+host (Generic always can —
 *  its bodies are plain loops). */
inline bool
isaAvailable(Isa isa)
{
    switch (isa) {
#if defined(KB_SIMD_X86)
    case Isa::Sse2:
        return true;
    case Isa::Avx2:
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2");
#elif defined(KB_SIMD_NEON)
    case Isa::Neon:
        return true;
#endif
    case Isa::Generic:
        return true;
    default:
        return false;
    }
}

/*
 * Recency-ordered compressed rows.
 *
 * When a plane has at most 8 ways and every trace address fits 32
 * bits, the analyzer keeps no stamps: each set's row is 8 u32
 * addresses in LRU order followed by 8 u32 dirty windows, one 64-byte
 * line per set. Lanes at or past the plane's way count stay
 * kOrderedEmpty for good. The probe's match position then IS the
 * stack distance (rank = the number of more-recent residents =
 * position in recency order), the eviction victim IS the last live
 * lane (empty lanes cluster at the tail, so tail-drop evicts an empty
 * slot first, else the LRU line — the same resident set the scalar
 * stamp rule keeps), and the update is a single table-driven
 * rotate-to-front. Outputs are bit-identical to the stamp formulation;
 * only the state representation differs. If a run ever exceeds the
 * 32-bit address range the analyzer converts the ordered rows back
 * into stamp rows once (order -> descending stamps) and continues on
 * the scalar oracle.
 */

/** Empty-lane sentinel; never equals a probed address because the
 *  compressed path only accepts addresses <= kOrderedMaxAddr. */
inline constexpr std::uint32_t kOrderedEmpty = 0xFFFFFFFFu;
/** Largest address the compressed path accepts. */
inline constexpr std::uint64_t kOrderedMaxAddr = 0xFFFFFFFEull;
/** Compressed-row encoding of the sticky cold dirty window. */
inline constexpr std::uint32_t kOrderedColdWindow = 0xFFFFFFFFu;

/** Result of one compressed-row access: `distance` is the stack
 *  distance (8 on a miss), `window` the front line's dirty window as
 *  of this access (the writeback window when the access is a write,
 *  which also resets the stored window to 0). */
struct Ordered8
{
    std::uint32_t distance;
    std::uint32_t window;
};

/** Rotate lane @p d to the front on a hit: lanes after d stay put. */
alignas(32) inline constexpr std::uint32_t kOrderedHitCtrl[8][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {1, 0, 2, 3, 4, 5, 6, 7},
    {2, 0, 1, 3, 4, 5, 6, 7}, {3, 0, 1, 2, 4, 5, 6, 7},
    {4, 0, 1, 2, 3, 5, 6, 7}, {5, 0, 1, 2, 3, 4, 6, 7},
    {6, 0, 1, 2, 3, 4, 5, 7}, {7, 0, 1, 2, 3, 4, 5, 6},
};

/** Miss rotate, indexed by the logical way count: drop lane ways-1
 *  (the LRU-or-empty tail), shift lanes 0..ways-2 back, keep the
 *  unused lanes >= ways in place (they stay the empty sentinel). Lane 0 is
 *  blended with the new address afterwards, so its control value is
 *  arbitrary. Index 0 is unused (a row always has >= 1 way). */
alignas(32) inline constexpr std::uint32_t kOrderedMissCtrl[9][8] = {
    {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7},
    {0, 0, 2, 3, 4, 5, 6, 7}, {0, 0, 1, 3, 4, 5, 6, 7},
    {0, 0, 1, 2, 4, 5, 6, 7}, {0, 0, 1, 2, 3, 5, 6, 7},
    {0, 0, 1, 2, 3, 4, 6, 7}, {0, 0, 1, 2, 3, 4, 5, 7},
    {7, 0, 1, 2, 3, 4, 5, 6},
};

/** Front-window seed, indexed by distance: on a hit at d the new
 *  window is max(old, d); on a miss (d = 8) it is the cold sentinel.
 *  Taking an unsigned lane max against [seed, 0, 0, ...] applies both
 *  rules and leaves every other lane untouched. */
inline constexpr std::uint32_t kOrderedWinSeed[9] = {
    0, 1, 2, 3, 4, 5, 6, 7, kOrderedColdWindow,
};

namespace generic {

/** Scalar rotate shared by every non-AVX2 compressed path: @p d is
 *  the probe result (8 = miss); see Ordered8 for the contract. */
inline Ordered8
orderedRotate8(std::uint32_t *row, std::uint32_t addr, std::uint32_t d,
               std::uint32_t ways, bool write)
{
    std::uint32_t *windows = row + 8;
    std::uint32_t window;
    if (d < 8) {
        const std::uint32_t w = windows[d];
        window = w > d ? w : d;
        for (std::uint32_t j = d; j > 0; --j) {
            row[j] = row[j - 1];
            windows[j] = windows[j - 1];
        }
    } else {
        window = kOrderedColdWindow;
        for (std::uint32_t j = ways - 1; j > 0; --j) {
            row[j] = row[j - 1];
            windows[j] = windows[j - 1];
        }
    }
    row[0] = addr;
    windows[0] = write ? 0 : window;
    return {d, window};
}

inline Ordered8
orderedAccess8(std::uint32_t *row, std::uint32_t addr,
               std::uint32_t ways, bool write)
{
    std::uint32_t d = 8;
    for (std::uint32_t j = 0; j < 8; ++j)
        if (row[j] == addr) {
            d = j;
            break;
        }
    return orderedRotate8(row, addr, d, ways, write);
}

inline std::uint64_t
popcountRange(const std::uint64_t *words, std::size_t n)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<std::uint64_t>(std::popcount(words[i]));
    return sum;
}

inline std::uint64_t
sumRange16(const std::uint16_t *values, std::size_t n)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += values[i];
    return sum;
}

inline std::uint64_t
sumRange32(const std::uint32_t *values, std::size_t n)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += values[i];
    return sum;
}

inline std::uint64_t
sumRange64(const std::uint64_t *values, std::size_t n)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += values[i];
    return sum;
}

} // namespace generic

#if defined(KB_SIMD_X86)

namespace avx2 {

__attribute__((target("avx2"))) inline Ordered8
orderedAccess8(std::uint32_t *row, std::uint32_t addr,
               std::uint32_t ways, bool write)
{
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(row));
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(row + 8));
    const __m256i target = _mm256_set1_epi32(static_cast<int>(addr));
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, target))));
    // Bit 8 turns an empty mask into distance 8 without a branch.
    const std::uint32_t d = static_cast<std::uint32_t>(
        std::countr_zero(m | 0x100u));
    const __m256i ctrl = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(
            d < 8 ? kOrderedHitCtrl[d] : kOrderedMissCtrl[ways]));
    // On a hit the permuted front lane already equals addr, so the
    // blend is only load-bearing on a miss (and harmless otherwise).
    const __m256i na = _mm256_blend_epi32(
        _mm256_permutevar8x32_epi32(a, ctrl), target, 0x1);
    __m256i nw = _mm256_max_epu32(
        _mm256_permutevar8x32_epi32(w, ctrl),
        _mm256_castsi128_si256(
            _mm_cvtsi32_si128(static_cast<int>(kOrderedWinSeed[d]))));
    const std::uint32_t window = static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm256_castsi256_si128(nw)));
    if (write)
        nw = _mm256_blend_epi32(nw, _mm256_setzero_si256(), 0x1);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(row), na);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(row + 8), nw);
    return {d, window};
}

} // namespace avx2

namespace sse2 {

inline Ordered8
orderedAccess8(std::uint32_t *row, std::uint32_t addr,
               std::uint32_t ways, bool write)
{
    // Vector probe (cmpeq_epi32 is baseline SSE2), scalar rotate: the
    // rotate is at most eight u32 moves and this path only carries
    // the pre-AVX2 fallback.
    const __m128i target = _mm_set1_epi32(static_cast<int>(addr));
    const unsigned m =
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
            _mm_cmpeq_epi32(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(row)),
                target)))) |
        (static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
             _mm_cmpeq_epi32(_mm_loadu_si128(
                                 reinterpret_cast<const __m128i *>(
                                     row + 4)),
                             target))))
         << 4);
    const std::uint32_t d = static_cast<std::uint32_t>(
        std::countr_zero(m | 0x100u));
    return generic::orderedRotate8(row, addr, d, ways, write);
}

// No pshufb at the SSE2 baseline, so the bit-twiddling popcount runs
// on both 64-bit lanes at once; SAD folds the per-byte counts.
inline std::uint64_t
popcountRange(const std::uint64_t *words, std::size_t n)
{
    const __m128i m1 = _mm_set1_epi64x(0x5555555555555555ll);
    const __m128i m2 = _mm_set1_epi64x(0x3333333333333333ll);
    const __m128i m4 = _mm_set1_epi64x(0x0f0f0f0f0f0f0f0fll);
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(words + i));
        v = _mm_sub_epi64(v,
                          _mm_and_si128(_mm_srli_epi64(v, 1), m1));
        v = _mm_add_epi64(_mm_and_si128(v, m2),
                          _mm_and_si128(_mm_srli_epi64(v, 2), m2));
        v = _mm_and_si128(_mm_add_epi64(v, _mm_srli_epi64(v, 4)), m4);
        acc = _mm_add_epi64(acc, _mm_sad_epu8(v, zero));
    }
    std::uint64_t lanes[2];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes), acc);
    std::uint64_t sum = lanes[0] + lanes[1];
    for (; i < n; ++i)
        sum += static_cast<std::uint64_t>(std::popcount(words[i]));
    return sum;
}

inline std::uint64_t
sumRange16(const std::uint16_t *values, std::size_t n)
{
    // madd against 1s pairs the signed 16-bit lanes into 32-bit
    // sums; inputs stay below 2^15 (header contract) so the signed
    // multiply is exact.
    const __m128i ones = _mm_set1_epi16(1);
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(values + i));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(v, ones));
    }
    std::uint32_t lanes[4];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes), acc);
    std::uint64_t sum =
        static_cast<std::uint64_t>(lanes[0]) + lanes[1] + lanes[2] +
        lanes[3];
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

inline std::uint64_t
sumRange32(const std::uint32_t *values, std::size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(values + i));
        acc = _mm_add_epi64(acc,
                            _mm_add_epi64(_mm_unpacklo_epi32(v, zero),
                                          _mm_unpackhi_epi32(v, zero)));
    }
    std::uint64_t lanes[2];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes), acc);
    std::uint64_t sum = lanes[0] + lanes[1];
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

inline std::uint64_t
sumRange64(const std::uint64_t *values, std::size_t n)
{
    __m128i acc = _mm_setzero_si128();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        acc = _mm_add_epi64(
            acc, _mm_loadu_si128(
                     reinterpret_cast<const __m128i *>(values + i)));
    std::uint64_t lanes[2];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(lanes), acc);
    std::uint64_t sum = lanes[0] + lanes[1];
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

} // namespace sse2

#elif defined(KB_SIMD_NEON)

namespace neon {

inline Ordered8
orderedAccess8(std::uint32_t *row, std::uint32_t addr,
               std::uint32_t ways, bool write)
{
    // Vector probe, scalar rotate (see the sse2 variant's note).
    const uint32x4_t target = vdupq_n_u32(addr);
    const uint32x4_t e0 = vceqq_u32(vld1q_u32(row), target);
    const uint32x4_t e1 = vceqq_u32(vld1q_u32(row + 4), target);
    std::uint32_t d = 8;
    alignas(16) std::uint32_t lanes[8];
    vst1q_u32(lanes, e0);
    vst1q_u32(lanes + 4, e1);
    for (std::uint32_t j = 0; j < 8; ++j)
        if (lanes[j] != 0) {
            d = j;
            break;
        }
    return generic::orderedRotate8(row, addr, d, ways, write);
}

inline std::uint64_t
popcountRange(const std::uint64_t *words, std::size_t n)
{
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v =
            vreinterpretq_u8_u64(vld1q_u64(words + i));
        sum += vaddlvq_u8(vcntq_u8(v));
    }
    for (; i < n; ++i)
        sum += static_cast<std::uint64_t>(std::popcount(words[i]));
    return sum;
}

inline std::uint64_t
sumRange16(const std::uint16_t *values, std::size_t n)
{
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        sum += vaddlvq_u16(vld1q_u16(values + i));
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

inline std::uint64_t
sumRange32(const std::uint32_t *values, std::size_t n)
{
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        sum += vaddlvq_u32(vld1q_u32(values + i));
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

inline std::uint64_t
sumRange64(const std::uint64_t *values, std::size_t n)
{
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        sum += vaddvq_u64(vld1q_u64(values + i));
    for (; i < n; ++i)
        sum += values[i];
    return sum;
}

} // namespace neon

#endif

} // namespace kb::simd

// AVX2 block decoder for zigzag-delta varints, shared by the AVX2 and
// AVX-512 backend TUs (both are compiled with at least -mavx2; AVX-512
// gains nothing here — the stream is byte-serial, and the batch below
// is bound by the 8-wide prefix sum, not lane count).
//
// Fast path: degree-sorted adjacency makes almost every delta a
// single-byte varint, so the decoder loads 8 stream bytes, tests their
// continuation bits with one movemask, and when all are clear decodes
// all 8 values at once — widen u8→u32, unzigzag, 8-lane prefix sum,
// add the running base, one unsigned range check. Any continuation bit
// or short tail falls back to the scalar reference for one value, then
// retries the block path.
//
// Bit-exactness with scalar::varint_decode_deltas: the lane arithmetic
// is u32 modular while the reference runs in i64. A wrapped negative
// prefix (true value in [-512, 0)) appears as >= 2^32 - 512, and a true
// value can only exceed u32 range when limit > 2^32 - 512 — so for
// limit <= 2^32 - 512 the unsigned >= limit check rejects exactly the
// values the reference rejects, and everything accepted is exact. The
// handful of callers with larger limits (none today — limit is a node
// count) take the scalar path entirely.
//
// Internal header: include only from src/kern/kernels_avx*.cpp. The
// decoder has internal linkage: each TU keeps the copy compiled under its
// own -m flags, so AVX-512 encodings can never reach the AVX2 backend.
#pragma once

#include <immintrin.h>

#include "kern/scalar_impl.hpp"

namespace rumor::kern::simd {
namespace {

inline std::size_t varint_decode_deltas_avx2(const std::uint8_t* src,
                                             std::size_t avail,
                                             std::uint32_t base,
                                             std::uint32_t limit,
                                             std::uint32_t* out,
                                             std::size_t count) {
  if (limit > 0xFFFFFE00u || count < 8) {
    return scalar::varint_decode_deltas(src, avail, base, limit, out, count);
  }
  const __m256i vlimit = _mm256_set1_epi32(static_cast<int>(limit));
  std::size_t pos = 0;
  std::size_t i = 0;
  std::uint32_t prev = base;
  while (i < count) {
    while (i + 8 <= count && pos + 8 <= avail) {
      const __m128i bytes = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(src + pos));
      if ((_mm_movemask_epi8(bytes) & 0xFF) != 0) break;  // multi-byte varint
      const __m256i z = _mm256_cvtepu8_epi32(bytes);
      // unzigzag: (z >> 1) ^ -(z & 1)
      const __m256i d = _mm256_xor_si256(
          _mm256_srli_epi32(z, 1),
          _mm256_sub_epi32(_mm256_setzero_si256(),
                           _mm256_and_si256(z, _mm256_set1_epi32(1))));
      // 8-lane inclusive prefix sum: two in-lane shifts, then carry the
      // low half's total into the high half.
      __m256i p = _mm256_add_epi32(d, _mm256_slli_si256(d, 4));
      p = _mm256_add_epi32(p, _mm256_slli_si256(p, 8));
      const __m256i low_total = _mm256_blend_epi32(
          _mm256_setzero_si256(),
          _mm256_permutevar8x32_epi32(p, _mm256_set1_epi32(3)), 0xF0);
      p = _mm256_add_epi32(p, low_total);
      const __m256i values =
          _mm256_add_epi32(p, _mm256_set1_epi32(static_cast<int>(prev)));
      // values >= limit (unsigned)  <=>  max_epu32(values, limit) == values
      const __m256i too_big = _mm256_cmpeq_epi32(
          _mm256_max_epu32(values, vlimit), values);
      if (_mm256_movemask_epi8(too_big) != 0) return 0;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), values);
      prev = out[i + 7];
      i += 8;
      pos += 8;
    }
    if (i >= count) break;
    // One value through the reference decoder (multi-byte varint, or
    // fewer than 8 stream bytes / output slots left), then retry blocks.
    const std::size_t used = scalar::varint_decode_deltas(
        src + pos, avail - pos, prev, limit, out + i, 1);
    if (used == 0) return 0;
    pos += used;
    prev = out[i];
    ++i;
  }
  return pos;
}

}  // namespace
}  // namespace rumor::kern::simd

/// \file kernels_avx2.cpp
/// \brief AVX2 + F16C observation sweep (8 particles per block).
///
/// A lane-for-lane port of ParticleFilter::observation_step (the scalar
/// determinism reference). Every arithmetic choice here exists to
/// reproduce the reference bit for bit on builds that do not contract
/// FMAs:
///
///  * The endpoint transform keeps the scalar association
///    ((x + c·bx) − s·by, (y + s·bx) + c·by) as separate mul/add/sub —
///    deliberately NO fused-multiply-add.
///  * cos/sin are evaluated per lane with the same scalar libm calls the
///    reference makes; there is no vector polynomial that would round
///    differently.
///  * Cell indexing reproduces QuantizedDistanceMap::code_at exactly:
///    widen the float endpoint to double, subtract the origin, DIVIDE by
///    the resolution (no reciprocal-multiply), floor, truncate — all in
///    IEEE double, all exact matches of the scalar ops.
///  * The map lookup stays in registers. The cell is cy·W + cx for lanes
///    inside the map and 0 outside. A masked 32-bit gather (scale 1)
///    reads the 4-byte window at start = min(cell, W·H − 4), and
///    (window >> 8·(cell − start)) & 0xFF is the cell's code; masked-off
///    lanes load nothing and keep 255, the off-map code. Since
///    0 ≤ start ≤ W·H − 4, every byte a gather touches lies inside the
///    W·H-byte code array, so the map needs no padding. Maps with
///    W·H < 4 (no whole window) or W·H > INT32_MAX (no int32 index) get
///    no vector blocks: the sweep returns 0 and the scalar reference runs.
///    A second gather reads the 256-entry LUT at the code.
///  * fp16 stores use F16C with round-to-nearest-even, which converts
///    bit-identically to the software tofmcl::Half path (pinned by
///    tests/test_half.cpp against an exhaustive oracle).
///
/// Vendor intrinsics are confined to this directory — enforced by the
/// `raw-intrinsics` lint rule.

#if defined(TOFMCL_KERNELS_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "core/kernels/observation_kernel.hpp"

namespace tofmcl::core::kernels {

namespace {

constexpr std::size_t kLanes = 8;

/// fp32 particle fields: plain unaligned vector loads/stores.
struct F32Io {
  static __m256 load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, __m256 v) { _mm256_storeu_ps(p, v); }
};

/// fp16 particle fields: F16C widen on load, RNE narrow on store — both
/// bit-identical to the software Half conversions.
struct F16Io {
  static __m256 load(const Half* p) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void store(Half* p, __m256 v) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(p),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
};

/// Cell coordinates of 8 float endpoints, as QuantizedDistanceMap::code_at
/// computes them: widen to double, subtract the origin, divide by the
/// resolution, floor, then truncate to int32 like its static_cast<int>.
inline __m256i cell_coords(__m256 e, __m256d origin, __m256d resolution) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(e));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1));
  const __m128i clo = _mm256_cvttpd_epi32(
      _mm256_floor_pd(_mm256_div_pd(_mm256_sub_pd(lo, origin), resolution)));
  const __m128i chi = _mm256_cvttpd_epi32(
      _mm256_floor_pd(_mm256_div_pd(_mm256_sub_pd(hi, origin), resolution)));
  return _mm256_inserti128_si256(_mm256_castsi128_si256(clo), chi, 1);
}

/// The map geometry the lookup needs, broadcast once per sweep.
struct CellGrid {
  __m256i width;
  __m256i height;
  __m256i last_window;  ///< W·H − 4: the highest in-bounds window start.
};

/// LUT factors of 8 cells under code_at's rule (off-map cells read code
/// 255), fetched with two gathers; see the file comment for the bounds.
inline __m256 lut_factor(const LutMapView& m, const CellGrid& g, __m256i cx,
                         __m256i cy) {
  const __m256i minus_one = _mm256_set1_epi32(-1);
  const __m256i inside = _mm256_and_si256(
      _mm256_and_si256(_mm256_cmpgt_epi32(cx, minus_one),
                       _mm256_cmpgt_epi32(g.width, cx)),
      _mm256_and_si256(_mm256_cmpgt_epi32(cy, minus_one),
                       _mm256_cmpgt_epi32(g.height, cy)));
  const __m256i cell = _mm256_and_si256(
      _mm256_add_epi32(_mm256_mullo_epi32(cy, g.width), cx), inside);
  const __m256i start = _mm256_min_epi32(cell, g.last_window);
  const __m256i window = _mm256_mask_i32gather_epi32(
      _mm256_set1_epi32(255), reinterpret_cast<const int*>(m.codes), start,
      inside, 1);
  const __m256i code = _mm256_and_si256(
      _mm256_srlv_epi32(window,
                        _mm256_slli_epi32(_mm256_sub_epi32(cell, start), 3)),
      _mm256_set1_epi32(0xFF));
  return _mm256_i32gather_ps(m.lut, code, 4);
}

template <typename Io, typename Spans>
std::size_t sweep(const LutMapView& m, const BeamSweepView& bv,
                  const Spans& p, std::size_t begin, std::size_t end) {
  const std::int64_t cells = std::int64_t{m.width} * m.height;
  if (cells < 4 || cells > INT32_MAX) return 0;
  const CellGrid grid{_mm256_set1_epi32(m.width), _mm256_set1_epi32(m.height),
                      _mm256_set1_epi32(static_cast<int>(cells - 4))};
  const std::size_t blocks = (end - begin) / kLanes;
  const __m256d origin_x = _mm256_set1_pd(m.origin_x);
  const __m256d origin_y = _mm256_set1_pd(m.origin_y);
  const __m256d resolution = _mm256_set1_pd(m.resolution);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t i0 = begin + blk * kLanes;
    const __m256 x = Io::load(p.x + i0);
    const __m256 y = Io::load(p.y + i0);
    alignas(32) float yaw[kLanes];
    _mm256_store_ps(yaw, Io::load(p.yaw + i0));
    alignas(32) float cl[kLanes];
    alignas(32) float sl[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      cl[l] = std::cos(yaw[l]);
      sl[l] = std::sin(yaw[l]);
    }
    const __m256 c = _mm256_load_ps(cl);
    const __m256 s = _mm256_load_ps(sl);
    __m256 w = Io::load(p.weight + i0);

    for (std::size_t b = 0; b < bv.count; ++b) {
      const SweepBeam& beam = bv.beams[b];
      const __m256 bx = _mm256_set1_ps(beam.endpoint_body.x);
      const __m256 by = _mm256_set1_ps(beam.endpoint_body.y);
      // ex = (x + c·bx) − s·by ; ey = (y + s·bx) + c·by — the reference
      // association, no FMA.
      const __m256 ex = _mm256_sub_ps(
          _mm256_add_ps(x, _mm256_mul_ps(c, bx)), _mm256_mul_ps(s, by));
      const __m256 ey = _mm256_add_ps(
          _mm256_add_ps(y, _mm256_mul_ps(s, bx)), _mm256_mul_ps(c, by));

      const __m256 factor =
          lut_factor(m, grid, cell_coords(ex, origin_x, resolution),
                     cell_coords(ey, origin_y, resolution));
      // w *= (factor + floor) * scale
      const __m256 f = _mm256_mul_ps(
          _mm256_add_ps(factor, _mm256_set1_ps(beam.floor)),
          _mm256_set1_ps(beam.scale));
      w = _mm256_mul_ps(w, f);
    }
    Io::store(p.weight + i0, w);
  }
  return blocks * kLanes;
}

}  // namespace

std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF32& particles,
                                   std::size_t begin, std::size_t end) {
  return sweep<F32Io>(map, beams, particles, begin, end);
}

std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF16& particles,
                                   std::size_t begin, std::size_t end) {
  return sweep<F16Io>(map, beams, particles, begin, end);
}

}  // namespace tofmcl::core::kernels

#endif  // defined(TOFMCL_KERNELS_AVX2)

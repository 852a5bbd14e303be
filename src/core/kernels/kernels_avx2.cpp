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
///  * LUT/code fetches are scalar per lane: the codes are bytes (no
///    useful gather) and scalar loads cannot read out of bounds past the
///    table the way a masked gather could be miscoded to.
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
  static constexpr bool kFp32Storage = true;
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
  static constexpr bool kFp32Storage = false;
};

/// Floors ((e − origin) / resolution) for 8 float endpoints, in double —
/// QuantizedDistanceMap::code_at's arithmetic, four lanes at a time.
inline void floor_cells(__m256 e, __m256d origin, __m256d resolution,
                        double out[kLanes]) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(e));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1));
  _mm256_storeu_pd(
      out, _mm256_floor_pd(_mm256_div_pd(_mm256_sub_pd(lo, origin),
                                         resolution)));
  _mm256_storeu_pd(
      out + 4, _mm256_floor_pd(_mm256_div_pd(_mm256_sub_pd(hi, origin),
                                             resolution)));
}

template <typename Io, typename Spans>
std::size_t sweep(const LutMapView& m, const BeamSweepView& bv,
                  const Spans& p, std::size_t begin, std::size_t end,
                  bool fp16_weights) {
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

      alignas(32) double fx[kLanes];
      alignas(32) double fy[kLanes];
      floor_cells(ex, origin_x, resolution, fx);
      floor_cells(ey, origin_y, resolution, fy);

      alignas(32) float factor[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        const int cx = static_cast<int>(fx[l]);
        const int cy = static_cast<int>(fy[l]);
        const std::uint8_t code =
            (cx < 0 || cx >= m.width || cy < 0 || cy >= m.height)
                ? std::uint8_t{255}
                : m.codes[static_cast<std::size_t>(cy) *
                              static_cast<std::size_t>(m.width) +
                          static_cast<std::size_t>(cx)];
        factor[l] = m.lut[code];
      }
      // w *= (factor + floor) * scale
      const __m256 f =
          _mm256_mul_ps(_mm256_add_ps(_mm256_load_ps(factor),
                                      _mm256_set1_ps(beam.floor)),
                        _mm256_set1_ps(beam.scale));
      w = _mm256_mul_ps(w, f);
    }

    if (Io::kFp32Storage && fp16_weights) {
      // MclConfig::weight_precision == kFp16: round the fp32 weight
      // through binary16 (RNE), identical to the software Half
      // round-trip the scalar path applies.
      w = _mm256_cvtph_ps(
          _mm256_cvtps_ph(w, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }
    Io::store(p.weight + i0, w);
  }
  return blocks * kLanes;
}

}  // namespace

std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF32& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights) {
  return sweep<F32Io>(map, beams, particles, begin, end, fp16_weights);
}

std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF16& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights) {
  return sweep<F16Io>(map, beams, particles, begin, end, fp16_weights);
}

}  // namespace tofmcl::core::kernels

#endif  // defined(TOFMCL_KERNELS_AVX2)

/// \file kernels_avx2.cpp
/// \brief AVX2 + F16C observation and motion sweeps (8 particles per
/// block).
///
/// Lane-for-lane ports of the scalar determinism references: the
/// observation step (ParticleFilter::observation_step) and the motion
/// block (Rng::gaussians plus the reference step in motion_kernel.cpp).
/// Every arithmetic choice here exists to reproduce the references bit
/// for bit on builds that do not contract FMAs:
///
///  * The endpoint transform keeps the scalar association
///    ((x + c·bx) − s·by, (y + s·bx) + c·by) as separate mul/add/sub —
///    deliberately NO fused-multiply-add. So does the motion rotation
///    ((x + c·dx) − s·dy, (y + s·dx) + c·dy).
///  * cos/sin (and the polar method's log) are evaluated per lane with the
///    same scalar libm calls the references make; there is no vector
///    polynomial that would round differently.
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
///  * The motion block's polar candidates come from Rng::next_n, the
///    generator's own steps, and are drawn in rounds of exactly as many
///    candidates as pairs are still missing (the last few one at a time,
///    through Rng::uniform), so the stream ends where the reference's
///    does. The u53 → double conversion is exact, and the accept test,
///    sqrt(−2·log s / s), the u·f, v·f products and each sample
///    mean + σ·z are the scalar IEEE operations, 4 lanes at a time. A yaw
///    outside (−π, π] takes the reference wrap (wrap_yaw) lane by lane.
///    The per-lane sincosf calls run in an order grouped by the branch
///    they take; the order changes no result.
///  * fp16 stores use F16C with round-to-nearest-even, which converts
///    bit-identically to the software tofmcl::Half path (pinned by
///    tests/test_half.cpp against an exhaustive oracle).
///
/// Vendor intrinsics are confined to this directory — enforced by the
/// `raw-intrinsics` lint rule.

#if defined(TOFMCL_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/angles.hpp"
#include "core/kernels/motion_kernel.hpp"
#include "core/kernels/observation_kernel.hpp"

// The file is compiled at the baseline ISA, and only the kernel namespace
// below targets AVX2 + F16C. Every header is included above the pragma, so
// the inline functions the kernels share with scalar code (libm wrappers,
// Rng, <algorithm>) keep their baseline encoding even where this file
// emits an out-of-line copy, as an unoptimized build does; the linker
// keeps one copy of each for the whole program. The ctest entry
// kernels_isa_clean checks the -O0 object.
#pragma GCC push_options
#pragma GCC target("avx2,f16c")

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

// ---------------------------------------------------------------------
// Motion
// ---------------------------------------------------------------------

/// Polar pairs one motion block needs at most (3·kMotionBlock normals).
constexpr std::size_t kMaxPairs = (3 * kMotionBlock + 1) / 2;

/// Elements past the live ones in each scratch array: a 4-lane store or
/// load may run up to three lanes past the last live element.
constexpr std::size_t kSlack = 4;

/// A group of 4 candidates c..c+3 sits in the double lanes 0, 2, 1, 3
/// (_mm256_unpack*_epi64 of two interleaved u/v loads): lane of candidate
/// c + j.
constexpr int kCandidateLane[4] = {0, 2, 1, 3};

/// Row m holds _mm256_permutevar8x32 indices that move the double lanes
/// whose bits are set in m to the front, in candidate order.
struct CompressTable {
  alignas(32) std::int32_t idx[16][8];
};

constexpr CompressTable make_compress_table() {
  CompressTable t{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (const int lane : kCandidateLane) {
      if (((m >> lane) & 1) != 0) {
        t.idx[m][2 * k] = 2 * lane;
        t.idx[m][2 * k + 1] = 2 * lane + 1;
        ++k;
      }
    }
  }
  return t;
}

constexpr CompressTable kCompress = make_compress_table();

/// Lane mask of the first `live` candidates of a group (1..4).
constexpr int kLiveLanes[5] = {0b0000, 0b0001, 0b0101, 0b0111, 0b1111};

/// Rng::uniform(-1.0, 1.0) of 4 raw outputs r, bit for bit. With
/// x = r >> 11 < 2⁵³, the reference computes −1 + 2·(x·2⁻⁵³) with every
/// step exact, so its result is x·2⁻⁵² − 1 exactly (a multiple of 2⁻⁵²
/// inside [−1, 1) is a double). AVX2 has no u64 → double conversion;
/// placing the bits under two exponents gives hi = 2³² + (x >> 32)·2⁻²⁰
/// and lo = 1 + (x mod 2³²)·2⁻⁵², and (hi − (2³² + 2)) + lo is that same
/// value: the subtraction is exact, and so is the sum, whose exact value is
/// a double.
inline __m256d uniform_pm1(__m256i r) {
  const __m256i x = _mm256_srli_epi64(r, 11);
  const __m256d lo = _mm256_castsi256_pd(_mm256_blend_epi32(
      x, _mm256_castpd_si256(_mm256_set1_pd(1.0)), 0xAA));
  const __m256d hi = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_srli_epi64(x, 32), _mm256_castpd_si256(_mm256_set1_pd(0x1p32))));
  return _mm256_add_pd(_mm256_sub_pd(hi, _mm256_set1_pd(0x1.00000002p32)), lo);
}

/// Stores the lanes of `v` selected by `perm` (a kCompress row) at `dst`.
inline void compress_store(double* dst, __m256d v, __m256i perm) {
  _mm256_storeu_pd(dst, _mm256_castsi256_pd(_mm256_permutevar8x32_epi32(
                            _mm256_castpd_si256(v), perm)));
}

/// Accepted polar candidates (u, v, s = u² + v²) in acceptance order.
struct PolarPairs {
  alignas(32) double u[kMaxPairs + kSlack];
  alignas(32) double v[kMaxPairs + kSlack];
  alignas(32) double s[kMaxPairs + kSlack];
};

/// Vector rounds run while at least this many pairs are missing. Each
/// round ends two loops of data-dependent length, so the last few pairs
/// are cheaper drawn one candidate at a time.
constexpr std::size_t kMinRound = 16;

/// Draws polar candidates from `rng` until `pairs` are accepted, exactly
/// the candidates Rng::gaussians draws for them. Candidate c is raw
/// outputs 2c (u) and 2c + 1 (v); it is accepted when 0 < s < 1. Each
/// vector round draws as many candidates as pairs are still missing, so
/// none is drawn past the last one the reference uses; the last few pairs
/// are drawn like the reference draws them.
void draw_pairs(Rng& rng, std::size_t pairs, PolarPairs& out) {
  alignas(32) std::uint64_t raw[2 * (kMaxPairs + kSlack)];
  // A round's last group reads up to 6 outputs past the round (masked
  // off below). No round is longer than the first, so defining the slack
  // after the longest one defines them all.
  std::fill_n(raw + 2 * pairs, 2 * kSlack, std::uint64_t{0});
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t m = 0;
  while (pairs - m >= kMinRound) {
    const std::size_t need = pairs - m;
    rng.next_n(std::span(raw, 2 * need));
    for (std::size_t c = 0; c < need; c += 4) {
      const __m256i r0 =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(raw + 2 * c));
      const __m256i r1 = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(raw + 2 * c + 4));
      // r0 = (u0 v0 u1 v1), r1 = (u2 v2 u3 v3): u = (u0 u2 u1 u3) and
      // v = (v0 v2 v1 v3); kCompress restores the candidate order.
      const __m256d u = uniform_pm1(_mm256_unpacklo_epi64(r0, r1));
      const __m256d v = uniform_pm1(_mm256_unpackhi_epi64(r0, r1));
      const __m256d s = _mm256_add_pd(_mm256_mul_pd(u, u), _mm256_mul_pd(v, v));
      const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(s, one, _CMP_LT_OQ),
                                       _mm256_cmp_pd(s, zero, _CMP_NEQ_UQ));
      const int accepted = _mm256_movemask_pd(ok) &
                           kLiveLanes[std::min<std::size_t>(need - c, 4)];
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompress.idx[accepted]));
      compress_store(out.u + m, u, perm);
      compress_store(out.v + m, v, perm);
      compress_store(out.s + m, s, perm);
      m += static_cast<std::size_t>(std::popcount(
          static_cast<unsigned>(accepted)));
    }
  }
  // The reference's own loop: a rejected candidate is overwritten.
  while (m < pairs) {
    const double u = rng.uniform(-1.0, 1.0);
    const double v = rng.uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    out.u[m] = u;
    out.v[m] = v;
    out.s[m] = s;
    m += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
  }
}

/// Fills `z` with what rng.gaussians(z) fills it with, and leaves `rng` as
/// that call leaves it: a pending spare is emitted first, the pairs'
/// deviates follow as (u·f, v·f) with f = sqrt(−2·log s / s), and the last
/// pair's v·f becomes the spare value (pending if z had no room for it).
void gaussians(Rng& rng, std::span<double> z) {
  if (z.empty()) return;
  Rng::Snapshot spare = rng.snapshot();
  // The deviates in stream order, spare first. The last pair may add one
  // past z.size(), and the last 4-pair group up to six more.
  alignas(32) double normals[2 * (kMaxPairs + kSlack) + 1];
  std::size_t k = 0;
  if (spare.has_cached) {
    normals[k++] = spare.cached;
    spare.has_cached = false;
  }
  const std::size_t pairs = (z.size() - k + 1) / 2;
  PolarPairs pp;
  draw_pairs(rng, pairs, pp);
  alignas(32) double log_s[kMaxPairs + kSlack];
  for (std::size_t j = 0; j < pairs; ++j) log_s[j] = std::log(pp.s[j]);
  for (std::size_t j = pairs; j < pairs + kSlack; ++j) {
    pp.u[j] = 0.0;
    pp.v[j] = 0.0;
    pp.s[j] = 1.0;
    log_s[j] = 0.0;
  }
  for (std::size_t j = 0; j < pairs; j += 4) {
    const __m256d s = _mm256_load_pd(pp.s + j);
    const __m256d f = _mm256_sqrt_pd(_mm256_div_pd(
        _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_load_pd(log_s + j)), s));
    const __m256d uf = _mm256_mul_pd(_mm256_load_pd(pp.u + j), f);
    const __m256d vf = _mm256_mul_pd(_mm256_load_pd(pp.v + j), f);
    const __m256d lo = _mm256_unpacklo_pd(uf, vf);  // uf0 vf0 uf2 vf2
    const __m256d hi = _mm256_unpackhi_pd(uf, vf);  // uf1 vf1 uf3 vf3
    double* out = normals + k + 2 * j;
    _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  std::copy(normals, normals + z.size(), z.begin());
  spare.state = rng.snapshot().state;
  if (pairs > 0) spare.cached = normals[k + 2 * pairs - 1];
  spare.has_cached = k + 2 * pairs > z.size();
  rng.restore(spare);
}

/// static_cast<float>(mean + σ·z) of 4 consecutive normals.
inline __m128 sample4(const double* z, __m256d mean, __m256d sigma) {
  return _mm256_cvtpd_ps(
      _mm256_add_pd(mean, _mm256_mul_pd(sigma, _mm256_loadu_pd(z))));
}

/// kLaneList[m] lists the lanes whose bits are set in m, ascending, one
/// per byte from the low byte up.
constexpr std::array<std::uint64_t, 256> make_lane_lists() {
  std::array<std::uint64_t, 256> lists{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned k = 0;
    for (unsigned l = 0; l < kLanes; ++l) {
      if (((m >> l) & 1u) != 0) lists[m] |= std::uint64_t{l} << (8 * k++);
    }
  }
  return lists;
}

constexpr std::array<std::uint64_t, 256> kLaneList = make_lane_lists();

/// Writes cos and sin of the yaws of particles [0, n) of `yaw` (n a
/// multiple of 8, at most kMotionBlock) to `cl` and `sl`, with the scalar
/// libm calls the reference makes. The results do not depend on the order
/// of the calls, so they run grouped over the whole block by the branch
/// glibc's sincosf takes (|y| < 0.75, else the parity of the quadrant
/// round(y·2/π)): its branches then repeat instead of alternating. A lane
/// put in the wrong group costs a misprediction, not a different result.
template <typename Io, typename T>
void sincos_block(const T* yaw, std::size_t n, float* cl, float* sl) {
  alignas(32) float lane[kMotionBlock];
  unsigned group[3][kMotionBlock / kLanes];
  const std::size_t chunks = n / kLanes;
  for (std::size_t q = 0; q < chunks; ++q) {
    const __m256 y = Io::load(yaw + q * kLanes);
    _mm256_store_ps(lane + q * kLanes, y);
    const auto near = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_andnot_ps(_mm256_set1_ps(-0.0f), y),
                      _mm256_set1_ps(0.75f), _CMP_LT_OQ)));
    const auto odd = static_cast<unsigned>(_mm256_movemask_ps(
                         _mm256_castsi256_ps(_mm256_slli_epi32(
                             _mm256_cvtps_epi32(_mm256_mul_ps(
                                 y, _mm256_set1_ps(0.63661977f))),
                             31)))) &
                     ~near;
    group[0][q] = near;
    group[1][q] = ~(near | odd) & 0xFFu;
    group[2][q] = odd;
  }
  // Each group's particles in turn, 8 lanes at a time: chunk q's lane list
  // plus 8q in every byte (no byte passes 63, so no carry). The bytes past
  // a list are overwritten by the next one or unused.
  std::uint8_t order[kMotionBlock + kLanes];
  std::size_t k = 0;
  for (const auto& members : group) {
    for (std::size_t q = 0; q < chunks; ++q) {
      const std::uint64_t lanes =
          kLaneList[members[q]] + q * 0x0808080808080808ULL;
      std::memcpy(order + k, &lanes, sizeof lanes);
      k += static_cast<std::size_t>(std::popcount(members[q]));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = order[i];
    cl[l] = std::cos(lane[l]);
    sl[l] = std::sin(lane[l]);
  }
}

/// Every third of the 24 floats a‖b‖c (samples 0–7, 8–15, 16–23) in
/// order. A sample sits at lane (sample mod 8) of its register, and the
/// wanted ones fall on distinct lanes: the blends (masks kAb, kAbc) take
/// each from its register, and `idx` puts them in order.
template <int kAb, int kAbc>
inline __m256 pick3(__m256 a, __m256 b, __m256 c, __m256i idx) {
  return _mm256_permutevar8x32_ps(
      _mm256_blend_ps(_mm256_blend_ps(a, b, kAb), c, kAbc), idx);
}

/// Bit l set when lane l of `t` lies in (−π, π] — wrap_pi's own test,
/// done in double.
inline int in_pi_range(__m256 t) {
  const __m256d lo_bound = _mm256_set1_pd(-kPi);
  const __m256d hi_bound = _mm256_set1_pd(kPi);
  const auto test = [&](__m256d d) {
    return _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(d, lo_bound, _CMP_GT_OQ),
                      _mm256_cmp_pd(d, hi_bound, _CMP_LE_OQ)));
  };
  return test(_mm256_cvtps_pd(_mm256_castps256_ps128(t))) |
         (test(_mm256_cvtps_pd(_mm256_extractf128_ps(t, 1))) << 4);
}

/// Moves the whole 8-particle blocks of [begin, begin + n) from the
/// block's normals `z` (dx, dy, dyaw per particle); returns how many
/// particles moved.
template <typename Io, typename Spans>
std::size_t move_blocks(const MotionParams& mp, const double* z,
                        const Spans& p, std::size_t begin, std::size_t n) {
  // Normal k samples component k mod 3, so the (mean, σ) lane patterns
  // repeat every 12 normals: three registers.
  const __m256d m0 = _mm256_setr_pd(mp.dx0, mp.dy0, mp.dyaw0, mp.dx0);
  const __m256d m1 = _mm256_setr_pd(mp.dy0, mp.dyaw0, mp.dx0, mp.dy0);
  const __m256d m2 = _mm256_setr_pd(mp.dyaw0, mp.dx0, mp.dy0, mp.dyaw0);
  const __m256d s0 = _mm256_setr_pd(mp.sxy, mp.sxy, mp.syaw, mp.sxy);
  const __m256d s1 = _mm256_setr_pd(mp.sxy, mp.syaw, mp.sxy, mp.sxy);
  const __m256d s2 = _mm256_setr_pd(mp.syaw, mp.sxy, mp.sxy, mp.syaw);
  const __m256i dx_idx = _mm256_setr_epi32(0, 3, 6, 1, 4, 7, 2, 5);
  const __m256i dy_idx = _mm256_setr_epi32(1, 4, 7, 2, 5, 0, 3, 6);
  const __m256i dyaw_idx = _mm256_setr_epi32(2, 5, 0, 3, 6, 1, 4, 7);
  const std::size_t blocks = n / kLanes;
  alignas(32) float cl[kMotionBlock];
  alignas(32) float sl[kMotionBlock];
  sincos_block<Io>(p.yaw + begin, blocks * kLanes, cl, sl);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t i0 = begin + blk * kLanes;
    const double* zb = z + 3 * kLanes * blk;
    // The block's 24 samples in order, 8 per register.
    const __m256 a =
        _mm256_set_m128(sample4(zb + 4, m1, s1), sample4(zb, m0, s0));
    const __m256 b =
        _mm256_set_m128(sample4(zb + 12, m0, s0), sample4(zb + 8, m2, s2));
    const __m256 c =
        _mm256_set_m128(sample4(zb + 20, m2, s2), sample4(zb + 16, m1, s1));
    // Samples 3l (dx), 3l + 1 (dy) and 3l + 2 (dyaw) of particle l.
    const __m256 dx = pick3<0x92, 0x24>(a, b, c, dx_idx);
    const __m256 dy = pick3<0x24, 0x49>(a, b, c, dy_idx);
    const __m256 dyaw = pick3<0x49, 0x92>(a, b, c, dyaw_idx);

    const __m256 yaw = Io::load(p.yaw + i0);
    const __m256 cs = _mm256_load_ps(cl + blk * kLanes);
    const __m256 sn = _mm256_load_ps(sl + blk * kLanes);
    // x + c·dx − s·dy ; y + s·dx + c·dy — the reference association.
    Io::store(p.x + i0,
              _mm256_sub_ps(_mm256_add_ps(Io::load(p.x + i0),
                                          _mm256_mul_ps(cs, dx)),
                            _mm256_mul_ps(sn, dy)));
    Io::store(p.y + i0,
              _mm256_add_ps(_mm256_add_ps(Io::load(p.y + i0),
                                          _mm256_mul_ps(sn, dx)),
                            _mm256_mul_ps(cs, dy)));
    __m256 t = _mm256_add_ps(yaw, dyaw);
    const int in_range = in_pi_range(t);
    if (in_range != 0xFF) {
      alignas(32) float lane[kLanes];
      _mm256_store_ps(lane, t);
      for (std::size_t l = 0; l < kLanes; ++l) {
        if (((in_range >> l) & 1) == 0) lane[l] = wrap_yaw(lane[l]);
      }
      t = _mm256_load_ps(lane);
    }
    Io::store(p.yaw + i0, t);
  }
  return blocks * kLanes;
}

template <typename Io, typename Spans>
std::size_t motion_block(const MotionParams& mp, Rng& rng,
                         std::span<double> z, const Spans& p,
                         std::size_t begin) {
  gaussians(rng, z);
  return move_blocks<Io>(mp, z.data(), p, begin, z.size() / 3);
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

std::size_t motion_block_avx2(const MotionParams& mp, Rng& rng,
                              std::span<double> z,
                              const MotionSpansF32& particles,
                              std::size_t begin) {
  return motion_block<F32Io>(mp, rng, z, particles, begin);
}

std::size_t motion_block_avx2(const MotionParams& mp, Rng& rng,
                              std::span<double> z,
                              const MotionSpansF16& particles,
                              std::size_t begin) {
  return motion_block<F16Io>(mp, rng, z, particles, begin);
}

}  // namespace tofmcl::core::kernels

#pragma GCC pop_options

#endif  // defined(TOFMCL_KERNELS_AVX2)

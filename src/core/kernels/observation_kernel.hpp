#pragma once
/// \file observation_kernel.hpp
/// \brief SIMD entry points for the observation sweep.
///
/// The ParticleFilter's observation sweep (particle_filter.hpp,
/// observation_step) is the hot loop of the whole system: particles ×
/// beams endpoint transforms + quantized-map lookups + weight products.
/// This header is the seam between the header-template filter and the
/// backend translation units: plain-old-data views of everything the
/// sweep reads (no templates, no intrinsics), plus one dispatch function
/// per particle-scalar layout.
///
/// Contract with the caller (ParticleFilter::observation_sweep):
///  * observation_sweep() processes a PREFIX of [begin, end) — whole
///    vector blocks only — and returns how many particles it handled
///    (0 when the backend is scalar/unavailable). The caller runs the
///    scalar reference kernel over the remainder, so the tail arithmetic
///    is the reference arithmetic by construction, never a re-coded copy.
///  * Only the LUT observation model is vectorized: its factor is a pure
///    table gather. The DirectObservationModel (float EDT + expf) stays
///    on the scalar path — the caller never dispatches it here.
///  * Backends replicate the scalar kernel's exact float association
///    (see particle_filter.hpp observation_step) and the quantized map's
///    double-precision cell indexing (map/distance_map.hpp code_at), so
///    equivalence holds to bit level wherever the build does not contract
///    FMAs; the tests gate on weight ULP + pose ATE.

#include <cstddef>
#include <cstdint>

#include "core/filter_state.hpp"
#include "core/kernels/kernel_backend.hpp"
#include "fp16/half.hpp"

namespace tofmcl::core::kernels {

/// Quantized map + likelihood table, flattened for the kernels. Geometry
/// stays in double — the cell-index arithmetic of
/// QuantizedDistanceMap::code_at is double-precision and the kernels must
/// reproduce it exactly. Out-of-bounds cells read code 255 (the map's
/// sentinel), which the 256-entry LUT maps like any other code.
struct LutMapView {
  const std::uint8_t* codes = nullptr;
  int width = 0;
  int height = 0;
  double origin_x = 0.0;
  double origin_y = 0.0;
  double resolution = 0.0;
  const float* lut = nullptr;  ///< 256 entries.
};

/// The update's sweep beams (ParticleFilter::prepare_beams): each one
/// multiplies the weight by (factor + floor) * scale. Gated beams are
/// already left out.
struct BeamSweepView {
  const SweepBeam* beams = nullptr;
  std::size_t count = 0;
};

/// SoA particle field pointers, fp32 layout (Fp32QmTraits).
struct SweepSpansF32 {
  const float* x = nullptr;
  const float* y = nullptr;
  const float* yaw = nullptr;
  float* weight = nullptr;
};

/// SoA particle field pointers, fp16 layout (Fp16QmTraits).
struct SweepSpansF16 {
  const Half* x = nullptr;
  const Half* y = nullptr;
  const Half* yaw = nullptr;
  Half* weight = nullptr;
};

/// Runs the backend's observation sweep over a whole-block prefix of
/// [begin, end); returns the number of particles processed (a multiple of
/// the backend's lane width; 0 if the backend has no kernel in this
/// build). `fp16_weights` additionally rounds each final weight through
/// binary16 before the fp32 store (MclConfig::weight_precision::kFp16).
std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF32& particles,
                              std::size_t begin, std::size_t end,
                              bool fp16_weights);
std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF16& particles,
                              std::size_t begin, std::size_t end,
                              bool fp16_weights);

/// Backend entry points (defined in kernels_<backend>.cpp when compiled
/// in — call through observation_sweep(), which guards availability).
std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF32& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights);
std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF16& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights);

}  // namespace tofmcl::core::kernels

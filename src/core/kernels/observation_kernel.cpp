#include "core/kernels/observation_kernel.hpp"

namespace tofmcl::core::kernels {

namespace {

template <typename Spans>
std::size_t dispatch(KernelBackend backend, const LutMapView& map,
                     const BeamSweepView& beams, const Spans& particles,
                     std::size_t begin, std::size_t end) {
  switch (backend) {
    case KernelBackend::kAvx2:
#if defined(TOFMCL_KERNELS_AVX2)
      return observation_sweep_avx2(map, beams, particles, begin, end);
#else
      break;
#endif
    case KernelBackend::kScalar:
      break;
  }
  return 0;  // caller falls back to the scalar reference kernel
}

}  // namespace

std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF32& particles,
                              std::size_t begin, std::size_t end) {
  return dispatch(backend, map, beams, particles, begin, end);
}

std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF16& particles,
                              std::size_t begin, std::size_t end) {
  return dispatch(backend, map, beams, particles, begin, end);
}

}  // namespace tofmcl::core::kernels

#include "core/kernels/motion_kernel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "common/angles.hpp"

namespace tofmcl::core::kernels {

float wrap_yaw(float yaw) {
  return static_cast<float>(wrap_pi(static_cast<double>(yaw)));
}

namespace {

/// The motion step for one particle, the determinism reference: the
/// sampled body-frame delta, rounded to float, rotated into the world
/// frame. The association is the contract the SIMD ports replicate
/// (mul/add/sub, no FMA), and the yaw is wrapped to (-π, π] in double.
template <typename Spans>
void motion_step(const Spans& p, std::size_t i, double dx_sample,
                 double dy_sample, double dyaw_sample) {
  using T = std::remove_pointer_t<decltype(p.x)>;
  const float dx = static_cast<float>(dx_sample);
  const float dy = static_cast<float>(dy_sample);
  const float dyaw = static_cast<float>(dyaw_sample);
  const float yaw = static_cast<float>(p.yaw[i]);
  const float c = std::cos(yaw);
  const float s = std::sin(yaw);
  p.x[i] = T(static_cast<float>(p.x[i]) + c * dx - s * dy);
  p.y[i] = T(static_cast<float>(p.y[i]) + s * dx + c * dy);
  p.yaw[i] = T(wrap_yaw(yaw + dyaw));
}

template <typename Spans>
void sweep(KernelBackend backend, const MotionParams& mp, Rng& rng,
           const Spans& p, std::size_t begin, std::size_t end) {
  std::array<double, 3 * kMotionBlock> z;
  for (std::size_t b = begin; b < end; b += kMotionBlock) {
    const std::size_t n = std::min(kMotionBlock, end - b);
    const std::span<double> block = std::span(z).first(3 * n);
    std::size_t j = 0;
    switch (backend) {
      case KernelBackend::kAvx2:
#if defined(TOFMCL_KERNELS_AVX2)
        j = motion_block_avx2(mp, rng, block, p, b);
        break;
#endif
      case KernelBackend::kScalar:
        rng.gaussians(block);
        break;
    }
    // Each sample is mean + σ·z, the expression inside
    // Rng::gaussian(mean, σ).
    for (; j < n; ++j) {
      motion_step(p, b + j, mp.dx0 + mp.sxy * z[3 * j],
                  mp.dy0 + mp.sxy * z[3 * j + 1],
                  mp.dyaw0 + mp.syaw * z[3 * j + 2]);
    }
  }
}

}  // namespace

void motion_sweep(KernelBackend backend, const MotionParams& mp, Rng& rng,
                  const MotionSpansF32& particles, std::size_t begin,
                  std::size_t end) {
  sweep(backend, mp, rng, particles, begin, end);
}

void motion_sweep(KernelBackend backend, const MotionParams& mp, Rng& rng,
                  const MotionSpansF16& particles, std::size_t begin,
                  std::size_t end) {
  sweep(backend, mp, rng, particles, begin, end);
}

}  // namespace tofmcl::core::kernels

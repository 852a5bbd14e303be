#pragma once
/// \file motion_kernel.hpp
/// \brief The motion phase's sweep: the scalar reference and its SIMD
/// entry points.
///
/// ParticleFilter::motion_update (a gated-out tick) and the fused
/// motion_observation_update (a correction) both run motion_sweep() over
/// each chunk, drawing from that chunk's Rng stream. The sweep walks the
/// chunk in noise blocks of kMotionBlock particles. For each block it
///  1. draws the block's normals, three per particle (dx, dy, dyaw) in
///     particle order: exactly what one Rng::gaussians call draws, and
///     leaving the generator in the state that call leaves, spare deviate
///     included (its value too, which Rng::Snapshot keeps even when no
///     spare is pending);
///  2. lets the backend move a PREFIX of the block, whole vector blocks
///     only, from those normals;
///  3. runs the scalar reference step (motion_kernel.cpp) over the rest,
///     from the same normals.
/// With the scalar backend, step 1 is Rng::gaussians and step 2 moves
/// nothing: that is the determinism reference, one gaussians call per
/// block and one reference step per particle. A backend reproduces both
/// bit for bit — the generator words, the spare and every particle field
/// — which tests/test_kernels.cpp checks after every call.

#include <cstddef>
#include <span>

#include "common/rng.hpp"
#include "core/kernels/kernel_backend.hpp"
#include "fp16/half.hpp"

namespace tofmcl::core::kernels {

/// Per-update motion constants (ParticleFilter::motion_params), hoisted
/// out of the particle loop. Kept in double: each sample mean + σ·z is
/// formed in double, as Rng::gaussian(mean, σ) forms it.
struct MotionParams {
  double dx0, dy0, dyaw0;
  double sxy, syaw;
};

/// Particles per noise block; a block's 3·kMotionBlock normals sit on the
/// stack.
inline constexpr std::size_t kMotionBlock = 64;

/// SoA pose field pointers, fp32 layout (Fp32Traits, Fp32QmTraits).
struct MotionSpansF32 {
  float* x = nullptr;
  float* y = nullptr;
  float* yaw = nullptr;
};

/// SoA pose field pointers, fp16 layout (Fp16QmTraits).
struct MotionSpansF16 {
  Half* x = nullptr;
  Half* y = nullptr;
  Half* yaw = nullptr;
};

/// The yaw wrap of the reference step: float(wrap_pi(double(yaw))). It
/// is out of line in the baseline-ISA translation unit, so a backend's
/// out-of-range lanes fall back to this one definition.
float wrap_yaw(float yaw);

/// Moves particles [begin, end) by the odometry delta in `mp`, drawing
/// the noise from `rng`. Any backend leaves the particles and `rng` in
/// exactly the state the scalar backend leaves them in.
void motion_sweep(KernelBackend backend, const MotionParams& mp, Rng& rng,
                  const MotionSpansF32& particles, std::size_t begin,
                  std::size_t end);
void motion_sweep(KernelBackend backend, const MotionParams& mp, Rng& rng,
                  const MotionSpansF16& particles, std::size_t begin,
                  std::size_t end);

/// Backend entry points (defined in kernels_<backend>.cpp when compiled
/// in — call through motion_sweep(), which guards availability). Each
/// fills `z` (3·n normals, n ≤ kMotionBlock) with what rng.gaussians(z)
/// would, moves the whole vector blocks of particles [begin, begin + n)
/// and returns how many particles it moved.
std::size_t motion_block_avx2(const MotionParams& mp, Rng& rng,
                              std::span<double> z,
                              const MotionSpansF32& particles,
                              std::size_t begin);
std::size_t motion_block_avx2(const MotionParams& mp, Rng& rng,
                              std::span<double> z,
                              const MotionSpansF16& particles,
                              std::size_t begin);

}  // namespace tofmcl::core::kernels

#pragma once
/// \file kernel_backend.hpp
/// \brief Runtime-dispatched SIMD backend selection for the hot kernels.
///
/// The scalar code is the determinism reference — the observation step in
/// particle_filter.hpp, and Rng::gaussians plus the motion step in
/// motion_kernel.cpp — and the committed golden digests of the scenario,
/// serving and campaign traces pin it. The SIMD backend in this directory
/// is a hand-written port of the same arithmetic:
///
///  * kAvx2 — 8-wide AVX2 + F16C, for the motion sweep (every precision)
///    and the LUT observation sweep. Written to match the scalar code
///    operation for operation (same float association, no FMA
///    contraction, cell-index math in the map's double precision, scalar
///    libm trig and log per lane, the generator's own steps), so on x86
///    builds it is bit-identical to the reference; tests/test_kernels.cpp
///    gates particles, weights and generator states at 0 ULP, and the
///    golden digests run on both backends.
///
/// A backend is compiled in per architecture (TOFMCL_KERNELS_AVX2, set by
/// src/core/CMakeLists.txt), probed at runtime, and selectable via the
/// TOFMCL_KERNEL environment variable (`scalar`, `avx2`). Unknown or
/// unsupported requests fall back to scalar — the safe reference — both
/// here and in ParticleFilter::set_kernel_backend, so the dispatch
/// functions only ever see a supported backend. Without an override the
/// best supported backend is used. A port to another ISA adds an enum
/// value, a kernels_<isa>.cpp and a dispatch case per sweep.
///
/// The backend is deliberately NOT part of MclConfig / the scoring
/// fingerprint: it changes how fast the sweeps run, not what they compute,
/// and serving shares ScoringContexts across sessions that may pick
/// different backends in tests.

namespace tofmcl::core::kernels {

enum class KernelBackend {
  kScalar,  ///< The reference loops (particle_filter.hpp, motion_kernel.cpp).
  kAvx2,    ///< 8-wide AVX2 + F16C (x86-64).
};

const char* to_string(KernelBackend backend);

/// True if the backend's translation unit was compiled into this build.
bool backend_compiled(KernelBackend backend);

/// True if the backend is compiled in AND the running CPU supports it.
bool backend_supported(KernelBackend backend);

/// Best supported backend on this machine (kScalar when nothing else is).
KernelBackend best_supported_backend();

/// Process-wide default: TOFMCL_KERNEL env override when set (invalid or
/// unsupported values resolve to kScalar), else best_supported_backend().
/// Resolved once on first use.
KernelBackend default_backend();

}  // namespace tofmcl::core::kernels

#pragma once
/// \file particle_soa.hpp
/// \brief Structure-of-arrays particle storage for the MCL hot path.
///
/// The filter's four phases stream over every particle touching one or two
/// of its four fields at a time. Array-of-structures storage
/// (x,y,yaw,w | x,y,yaw,w | …) makes those streams strided, which defeats
/// auto-vectorization of the motion/observation kernels; keeping each
/// field in its own contiguous array gives the compiler unit-stride loads
/// and lets the observation loop vectorize across particles — the same
/// layout argument the GAP9 port makes for its L1 tiles.
///
/// Total memory is unchanged: four arrays of N Scalars is exactly
/// N · sizeof(Particle<Scalar>) bytes, so the Fig 9 accounting in
/// particle.hpp still holds.

#include <cstddef>
#include <vector>

namespace tofmcl::core {

/// Particle storage: one contiguous array per field.
template <typename Scalar>
struct ParticleSoA {
  std::vector<Scalar> x;
  std::vector<Scalar> y;
  std::vector<Scalar> yaw;
  std::vector<Scalar> weight;

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    yaw.resize(n);
    weight.resize(n);
  }

  /// Pre-sizes the backing arrays (arena size classes) without changing
  /// size(); later resizes within the reservation never reallocate.
  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    yaw.reserve(n);
    weight.reserve(n);
  }

  std::size_t size() const { return x.size(); }
  std::size_t capacity() const { return x.capacity(); }

  /// Copies one particle (all four fields) from `other[src]` to
  /// `(*this)[dst]` — the resampling "draw" in SoA form.
  void copy_from(const ParticleSoA& other, std::size_t dst, std::size_t src) {
    x[dst] = other.x[src];
    y[dst] = other.y[src];
    yaw[dst] = other.yaw[src];
    weight[dst] = other.weight[src];
  }

  void swap(ParticleSoA& other) noexcept {
    x.swap(other.x);
    y.swap(other.y);
    yaw.swap(other.yaw);
    weight.swap(other.weight);
  }
};

}  // namespace tofmcl::core

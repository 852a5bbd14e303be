#pragma once
/// \file golden_digest.hpp
/// \brief Committed-digest helpers shared by the golden trace suites.
///
/// Run-vs-run gates cannot see a change that moves every run the same way.
/// A golden test hashes a hexfloat trace dump with 64-bit FNV-1a and
/// compares it against a constant committed next to the test. A change
/// that alters a trace on purpose updates the constant in the same diff;
/// the failure message prints the recomputed digest.
///
/// The digests pin the scalar kernel backend, and they depend on libm's
/// float trig/exp, so they hold for the toolchain they came from: Debian
/// glibc 2.36, GCC 12, x86-64. tests/CMakeLists.txt registers every golden
/// suite as its own ctest entry with TOFMCL_KERNEL=scalar.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/kernels/kernel_backend.hpp"

namespace tofmcl::golden {

inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Expects fnv1a64(trace()) == golden. `trace` runs only on the scalar
/// reference backend; any other backend skips the calling test.
template <typename TraceFn>
void expect_digest(const std::string& label, std::uint64_t golden,
                   TraceFn&& trace) {
  if (core::kernels::default_backend() !=
      core::kernels::KernelBackend::kScalar) {
    GTEST_SKIP() << "golden digests pin the scalar reference; run with "
                    "TOFMCL_KERNEL=scalar";
  }
  const std::uint64_t digest = fnv1a64(trace());
  char recomputed[32];
  std::snprintf(recomputed, sizeof(recomputed), "0x%016llx",
                static_cast<unsigned long long>(digest));
  EXPECT_EQ(digest, golden) << label << ": recomputed digest " << recomputed;
}

}  // namespace tofmcl::golden

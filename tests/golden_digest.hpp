#pragma once
/// \file golden_digest.hpp
/// \brief Committed-digest helpers shared by the golden trace suites.
///
/// Run-vs-run gates cannot see a change that moves every run the same way.
/// A golden test hashes a hexfloat trace dump with 64-bit FNV-1a and
/// compares it against a constant committed next to the test. A change
/// that alters a trace on purpose updates the constant in the same diff;
/// the failure message prints the recomputed digest and the file that
/// holds the bytes behind it.
///
/// Every kernel backend must reproduce the scalar reference bit for bit,
/// so one constant pins them all. tests/CMakeLists.txt registers every
/// golden suite twice against the same constants: `<binary>_golden` with
/// TOFMCL_KERNEL=scalar and `<binary>_golden_default` on the default
/// backend (AVX2 where the host has it). Digests of dumps that no kernel
/// computes (test_worldgen, test_map_mutation) run once, in their
/// binary's main ctest entry. The digests depend on libm's
/// float trig/exp, so they hold for the toolchain they came from: Debian
/// glibc 2.36, GCC 12, x86-64.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
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

/// Expects fnv1a64(trace()) == golden, on whichever backend
/// kernels::default_backend() selects; the failure names it. On a mismatch
/// the hashed bytes go to `golden_<label>_<backend>.trace` in the working
/// directory (build/tests under ctest), and the failure names that file.
/// The backend is in the name because the `_golden` and `_golden_default`
/// entries of one suite run concurrently.
template <typename TraceFn>
void expect_digest(const std::string& label, std::uint64_t golden,
                   TraceFn&& trace) {
  const std::string bytes = trace();
  const std::uint64_t digest = fnv1a64(bytes);
  if (digest == golden) return;
  const char* backend =
      core::kernels::to_string(core::kernels::default_backend());
  std::string name = "golden_" + label + "_" + backend;
  std::replace_if(
      name.begin(), name.end(),
      [](char c) { return std::isalnum(static_cast<unsigned char>(c)) == 0; },
      '_');
  const std::filesystem::path path =
      std::filesystem::absolute(name + ".trace");
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  out.close();
  char digests[64];
  std::snprintf(digests, sizeof(digests), "0x%016llx (committed 0x%016llx)",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(golden));
  ADD_FAILURE() << label << " (" << backend << " backend): recomputed digest "
                << digests << "; trace bytes "
                << (out ? "written to " : "could not be written to ")
                << path.string();
}

}  // namespace tofmcl::golden

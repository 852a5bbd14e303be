#include "core/kernels/kernel_backend.hpp"

#include <cstdlib>
#include <cstring>

namespace tofmcl::core::kernels {

const char* to_string(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool backend_compiled(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(TOFMCL_KERNELS_AVX2)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_supported(KernelBackend backend) {
  if (!backend_compiled(backend)) return false;
  if (backend == KernelBackend::kAvx2) {
    // The AVX2 kernel also uses F16C for the fp16 weight path; require
    // both so one probe covers every entry point.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
    return false;
#endif
  }
  return true;
}

KernelBackend best_supported_backend() {
  return backend_supported(KernelBackend::kAvx2) ? KernelBackend::kAvx2
                                                 : KernelBackend::kScalar;
}

KernelBackend default_backend() {
  static const KernelBackend resolved = [] {
    if (const char* env = std::getenv("TOFMCL_KERNEL")) {
      // "scalar", anything unknown, or an unsupported request: the
      // reference path is always safe.
      return std::strcmp(env, "avx2") == 0 &&
                     backend_supported(KernelBackend::kAvx2)
                 ? KernelBackend::kAvx2
                 : KernelBackend::kScalar;
    }
    return best_supported_backend();
  }();
  return resolved;
}

}  // namespace tofmcl::core::kernels

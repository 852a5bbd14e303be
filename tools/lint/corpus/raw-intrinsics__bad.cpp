// lint-path: src/core/particle_filter.cpp
// Corpus: raw SIMD in the filter core. Intrinsics outside the kernel
// layer fork the arithmetic away from the scalar determinism reference.
#include <immintrin.h>  // flagged (header)

float sum8(const float* p) {
  const __m256 v = _mm256_loadu_ps(p);              // flagged (type + call)
  const __m128 lo = _mm256_castps256_ps128(v);      // flagged
  float out[4];
  _mm_storeu_ps(out, lo);                           // flagged
  return out[0] + out[1] + out[2] + out[3];
}

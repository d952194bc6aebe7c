#include "nn/simd.hpp"

#include <atomic>

#include "util/env.hpp"
#include "util/log.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define WF_SIMD_HAVE_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#define WF_SIMD_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace wf::nn {

namespace {

// Each kernel starts on a cache line. They run once per (query, row) pair,
// and under the default 16-byte function alignment their speed depended on
// the size of unrelated code linked before them: moving dot_avx2 from offset
// 0 to 16 within its cache line slowed a 1M-row k-means build by 10-20 %
// (4-vCPU Xeon, AVX2, gcc 12).
#define WF_KERNEL_ALIGN __attribute__((aligned(64)))

// The scalar reference kernel: eight independent accumulator lanes, mul
// then add, reduced pairwise. Every vector kernel below replays exactly
// this operation sequence (lane l holds the same partial sums), so all
// modes return bit-identical floats. Keep the three implementations in
// lockstep — a change to one is a change to all.
WF_KERNEL_ALIGN float dot_scalar(const float* a, const float* b, std::size_t k) {
  float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < k8; i += 8)
    for (std::size_t l = 0; l < 8; ++l) acc[l] += a[i + l] * b[i + l];
  float tail = 0.0f;
  for (std::size_t i = k8; i < k; ++i) tail += a[i] * b[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) +
         tail;
}

#ifdef WF_SIMD_HAVE_AVX2
// One 8-float register = the scalar kernel's eight lanes. Separate multiply
// and add (no FMA: target("avx2") does not enable it, and a fused step
// would change the rounding and break bit-identity with scalar).
WF_KERNEL_ALIGN __attribute__((target("avx2"))) float dot_avx2(const float* a, const float* b,
                                                               std::size_t k) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < k8; i += 8)
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  alignas(32) float lane[8];
  _mm256_store_ps(lane, acc);
  float tail = 0.0f;
  for (std::size_t i = k8; i < k; ++i) tail += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7])) + tail;
}
#endif

#ifdef WF_SIMD_HAVE_NEON
// Two 4-float registers = lanes 0-3 and 4-7. vmulq + vaddq, not vmlaq: the
// fused multiply-add would change the rounding vs the scalar kernel.
WF_KERNEL_ALIGN float dot_neon(const float* a, const float* b, std::size_t k) {
  float32x4_t lo = vdupq_n_f32(0.0f);
  float32x4_t hi = vdupq_n_f32(0.0f);
  const std::size_t k8 = k & ~static_cast<std::size_t>(7);
  for (std::size_t i = 0; i < k8; i += 8) {
    lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    hi = vaddq_f32(hi, vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  float lane[8];
  vst1q_f32(lane, lo);
  vst1q_f32(lane + 4, hi);
  float tail = 0.0f;
  for (std::size_t i = k8; i < k; ++i) tail += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7])) + tail;
}
#endif

SimdMode resolve_mode() {
  const std::string requested = util::Env::simd();
  if (requested == "scalar") return SimdMode::kScalar;
  if (requested == "avx2" || requested == "neon") {
    const SimdMode mode = requested == "avx2" ? SimdMode::kAvx2 : SimdMode::kNeon;
    if (simd_supported(mode)) return mode;
    util::log_warn() << "WF_SIMD=" << requested
                     << " is not supported on this machine; falling back to scalar";
    return SimdMode::kScalar;
  }
  if (requested != "auto")
    util::log_warn() << "WF_SIMD=\"" << requested << "\" is not a known mode; using auto";
  if (simd_supported(SimdMode::kAvx2)) return SimdMode::kAvx2;
  if (simd_supported(SimdMode::kNeon)) return SimdMode::kNeon;
  return SimdMode::kScalar;
}

std::atomic<int>& cached_mode() {
  static std::atomic<int> mode{-1};
  return mode;
}

}  // namespace

const char* simd_mode_name(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kNeon:
      return "neon";
    case SimdMode::kScalar:
      break;
  }
  return "scalar";
}

bool simd_supported(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar:
      return true;
    case SimdMode::kAvx2:
#ifdef WF_SIMD_HAVE_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdMode::kNeon:
#ifdef WF_SIMD_HAVE_NEON
      return true;  // NEON is baseline on every AArch64 CPU
#else
      return false;
#endif
  }
  return false;
}

std::vector<SimdMode> supported_simd_modes() {
  std::vector<SimdMode> modes{SimdMode::kScalar};
  if (simd_supported(SimdMode::kAvx2)) modes.push_back(SimdMode::kAvx2);
  if (simd_supported(SimdMode::kNeon)) modes.push_back(SimdMode::kNeon);
  return modes;
}

SimdMode simd_mode() {
  int mode = cached_mode().load(std::memory_order_acquire);
  if (mode < 0) {
    mode = static_cast<int>(resolve_mode());
    cached_mode().store(mode, std::memory_order_release);
  }
  return static_cast<SimdMode>(mode);
}

bool set_simd_mode(SimdMode mode) {
  if (!simd_supported(mode)) return false;
  cached_mode().store(static_cast<int>(mode), std::memory_order_release);
  return true;
}

float simd_dot(const float* a, const float* b, std::size_t k) {
  return detail::active_dot_kernel()(a, b, k);
}

namespace detail {

DotFn dot_kernel(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAvx2:
#ifdef WF_SIMD_HAVE_AVX2
      return &dot_avx2;
#else
      break;
#endif
    case SimdMode::kNeon:
#ifdef WF_SIMD_HAVE_NEON
      return &dot_neon;
#else
      break;
#endif
    case SimdMode::kScalar:
      break;
  }
  return &dot_scalar;
}

DotFn active_dot_kernel() { return dot_kernel(simd_mode()); }

}  // namespace detail

}  // namespace wf::nn

#include "ml/activations.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

// The 8-lane tanh body and the FMA build of the scalar one are x86-64
// only; elsewhere the scalar reference is the one body.
#if defined(__x86_64__)
#define BHPO_TANH_X86 1
#include <immintrin.h>
#else
#define BHPO_TANH_X86 0
#endif

namespace bhpo {

Result<Activation> ActivationFromString(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "logistic") return Activation::kLogistic;
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  return Status::InvalidArgument("unknown activation '" + name + "'");
}

const char* ActivationToString(Activation activation) {
  switch (activation) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kLogistic:
      return "logistic";
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
  }
  return "?";
}

void ApplyActivation(Activation activation, MatrixView values) {
  double* x = values.data;
  size_t n = values.size();
  switch (activation) {
    case Activation::kIdentity:
      return;
    case Activation::kLogistic:
      for (size_t i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
      return;
    case Activation::kTanh:
      internal::TanhInPlace(internal::DispatchedTanhBody(), x, n);
      return;
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) x[i] = std::max(0.0, x[i]);
      return;
  }
}

void MultiplyByActivationDerivative(Activation activation,
                                    ConstMatrixView activated,
                                    MatrixView values) {
  BHPO_CHECK(activated.rows == values.rows && activated.cols == values.cols);
  const double* a = activated.data;
  double* v = values.data;
  size_t n = values.size();
  switch (activation) {
    case Activation::kIdentity:
      return;
    case Activation::kLogistic:
      for (size_t i = 0; i < n; ++i) v[i] *= a[i] * (1.0 - a[i]);
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) v[i] *= 1.0 - a[i] * a[i];
      return;
    case Activation::kRelu: {
      // Branch-free: ReLU outputs are positive or zero at random, so a
      // branch per entry mispredicts about half the time.
      size_t i = 0;
#if defined(__SSE2__)
      const __m128d zero = _mm_setzero_pd();
      const __m128d one = _mm_set1_pd(1.0);
      for (; i + 2 <= n; i += 2) {
        __m128d d = _mm_and_pd(_mm_cmpgt_pd(_mm_loadu_pd(a + i), zero), one);
        _mm_storeu_pd(v + i, _mm_mul_pd(_mm_loadu_pd(v + i), d));
      }
#endif
      for (; i < n; ++i) v[i] *= a[i] > 0.0 ? 1.0 : 0.0;
      return;
    }
  }
}

void SoftmaxRows(MatrixView logits) {
  for (size_t r = 0; r < logits.rows; ++r) {
    double* p = logits.Row(r);
    double row_max = p[0];
    for (size_t c = 1; c < logits.cols; ++c) {
      row_max = std::max(row_max, p[c]);
    }
    double total = 0.0;
    for (size_t c = 0; c < logits.cols; ++c) {
      p[c] = std::exp(p[c] - row_max);
      total += p[c];
    }
    for (size_t c = 0; c < logits.cols; ++c) p[c] /= total;
  }
}

// ---------------------------------------------------------------------------
// tanh, bit for bit as glibc 2.36's FMA build computes it.
//
// The formula and the constants are fdlibm's (s_tanh.c and s_expm1.c):
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// glibc compiles that C with FMA contraction for its FMA/AVX2 ifunc
// (__expm1_fma), so a mul + add is fused at exactly the std::fma calls and
// _mm512_f*madd/_mm512_f*msub intrinsics below and nowhere else
// (-ffp-contract=off keeps every other mul and add two roundings).
// DESIGN.md §12.1 has the branch and k tables.

namespace {

constexpr double kOne = 1.0;
constexpr double kTiny = 1.0e-300;
constexpr double kLn2Hi = 0x1.62e42feep-1;       // 6.93147180369123816490e-01
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;  // 1.90821492927058770002e-10
constexpr double kInvLn2 = 0x1.71547652b82fep+0;  // 1.44269504088896338700e+00
// expm1's scaled rational coefficients Q1..Q5.
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

inline uint64_t BitsOf(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

inline double FromBits(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// y * 2^k for a y whose exponent stays normal: k is added to the exponent
// field (fdlibm's SET_HIGH_WORD(y, high + (k << 20))).
inline double AddToExponent(double y, int k) {
  return FromBits(BitsOf(y) + (static_cast<uint64_t>(static_cast<int64_t>(k))
                               << 52));
}

// fdlibm's expm1 on the arguments tanh gives it: 2|x| in [2, 44) and -2|x|
// in (-2, -2^-54]. The filters for |x| >= 56 ln2 and |x| < 2^-54 change
// nothing there and are left out, and so is k = 1024 (here k <= 63).
[[gnu::always_inline]] inline double Expm1Body(double x) {
  const uint32_t high = static_cast<uint32_t>(BitsOf(x) >> 32);
  const bool negative = (high >> 31) != 0;
  const uint32_t hx = high & 0x7fffffff;  // high word of |x|

  // Argument reduction: x = k ln2 + r, |r| <= 0.5 ln2, with r = x - c
  // carried as a head x and a correction c.
  int k = 0;
  double c = 0.0;
  if (hx > 0x3fd62e42) {  // |x| > 0.5 ln2
    double hi, lo;
    if (hx < 0x3ff0a2b2) {  // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int>(kInvLn2 * x + (negative ? -0.5 : 0.5));
      const double t = k;
      hi = std::fma(-t, kLn2Hi, x);
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }

  // x is now in the primary range.
  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double r1_1 = std::fma(hxs, kQ1, kOne);
  const double h2 = hxs * hxs;
  const double r1_2 = std::fma(hxs, kQ3, kQ2);
  const double h4 = h2 * h2;
  const double r1_3 = std::fma(hxs, kQ5, kQ4);
  const double r1 = std::fma(h4, r1_3, std::fma(h2, r1_2, r1_1));
  const double t = std::fma(-r1, hfx, 3.0);
  double e = hxs * ((r1 - t) / std::fma(-x, t, 6.0));
  if (k == 0) return x - std::fma(x, e, -hxs);  // c is 0
  e = std::fma(e - c, x, -c);
  e -= hxs;
  if (k == -1) return std::fma(0.5, x - e, -0.5);
  if (k == 1) {  // fdlibm's case; tanh never reaches it (its 2|x| >= 2)
    if (x < -0.25) return -2.0 * (e - (x + 0.5));
    return std::fma(2.0, x - e, kOne);
  }
  if (k <= -2 || k > 56) return AddToExponent(kOne - (e - x), k) - kOne;
  if (k < 20) {
    const double one_minus = FromBits(  // 1 - 2^-k
        static_cast<uint64_t>(0x3ff00000 - (0x200000 >> k)) << 32);
    return AddToExponent(one_minus - (e - x), k);
  }
  const double two_minus_k = FromBits(static_cast<uint64_t>(0x3ff - k) << 52);
  double y = x - (e + two_minus_k);
  y += kOne;
  return AddToExponent(y, k);
}

[[gnu::always_inline]] inline double TanhOne(double x) {
  const uint64_t bits = BitsOf(x);
  const bool negative = (bits >> 63) != 0;
  const uint32_t ix = static_cast<uint32_t>(bits >> 32) & 0x7fffffff;
  if (ix >= 0x7ff00000) {  // +-inf or NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }
  double z;
  if (ix < 0x40360000) {  // |x| < 22
    // |x| < 2^-55, +-0 and the subnormals included: tanh(x) = x(1 + x).
    if (ix < 0x3c800000) return x * (kOne + x);
    if (ix >= 0x3ff00000) {  // |x| >= 1
      const double t = Expm1Body(2.0 * std::fabs(x));
      z = kOne - 2.0 / (t + 2.0);
    } else {
      const double t = Expm1Body(-2.0 * std::fabs(x));
      z = -t / (t + 2.0);
    }
  } else {  // |x| >= 22: +-1
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

#if BHPO_TANH_X86
// The same code with std::fma compiled to vfmadd instead of a libm call.
[[gnu::target("fma")]] void TanhFma(double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = TanhOne(x[i]);
}

// v * 2^k for integral k. The all-lanes mask only keeps GCC 12's unmasked
// scalef (and roundscale) from reading an uninitialized pass-through.
[[gnu::always_inline, gnu::target("avx512f")]] inline __m512d Scale(
    __m512d v, __m512d k) {
  return _mm512_maskz_scalef_pd(0xFF, v, k);
}

// Eight lanes of TanhOne: every branch is computed and the lane's own is
// blended in by mask. Lanes off a branch may hold Inf or NaN there; their
// values never reach the result. tanh's last step takes one division: the
// numerator is 2 (|x| >= 1), -t (below) or 1 (+-inf and NaN, divided by x).
[[gnu::always_inline, gnu::target("avx512f")]] inline __m512d Tanh8(
    __m512d x) {
  const __m512i sign_bit = _mm512_set1_epi64(INT64_MIN);
  const __m512d one = _mm512_set1_pd(kOne);
  const __m512i sign = _mm512_and_si512(_mm512_castpd_si512(x), sign_bit);
  const __mmask8 negative = _mm512_test_epi64_mask(_mm512_castpd_si512(x),
                                                   sign_bit);
  const __m512d ax = _mm512_abs_pd(x);
  const __mmask8 special = _mm512_cmp_pd_mask(
      ax, _mm512_set1_pd(HUGE_VAL), _CMP_NLT_UQ);  // +-inf or NaN
  const __mmask8 large =
      _mm512_cmp_pd_mask(ax, _mm512_set1_pd(22.0), _CMP_GE_OQ);
  const __mmask8 tiny =
      _mm512_cmp_pd_mask(ax, _mm512_set1_pd(0x1p-55), _CMP_LT_OQ);
  const __mmask8 ge1 = _mm512_cmp_pd_mask(ax, one, _CMP_GE_OQ);

  // expm1(y) for y = 2|x| (|x| >= 1) or -2|x| (below), so y > 0 means
  // y >= 2 and k >= 3: the k = 1 case never arises.
  const __m512d ay = _mm512_add_pd(ax, ax);
  const __m512d y =
      _mm512_mask_mov_pd(_mm512_mul_pd(ax, _mm512_set1_pd(-2.0)), ge1, ay);
  // The high-word thresholds 0x3fd62e42 (k = 0 at or below) and
  // 0x3ff0a2b2 (k = -1 below) as doubles.
  const __mmask8 k0 =
      _mm512_cmp_pd_mask(ay, _mm512_set1_pd(0x1.62e43p-2), _CMP_LT_OQ);
  const auto km1 = static_cast<__mmask8>(
      _mm512_cmp_pd_mask(ay, _mm512_set1_pd(0x1.0a2b2p+0), _CMP_LT_OQ) &
      ~k0 & ~ge1);
  const __m512d half =
      _mm512_mask_mov_pd(_mm512_set1_pd(-0.5), ge1, _mm512_set1_pd(0.5));
  // k = (int)(invln2 y +- 0.5): a separate multiply and add, truncated.
  const __m512d kd = _mm512_maskz_roundscale_pd(
      0xFF, _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kInvLn2), y), half),
      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512d ln2_hi = _mm512_set1_pd(kLn2Hi);
  const __m512d hi = _mm512_mask_add_pd(_mm512_fnmadd_pd(kd, ln2_hi, y), km1,
                                        y, ln2_hi);
  const __m512d lo =
      _mm512_mask_mov_pd(_mm512_mul_pd(kd, _mm512_set1_pd(kLn2Lo)), km1,
                         _mm512_set1_pd(-kLn2Lo));
  const __m512d rh = _mm512_sub_pd(hi, lo);
  const __m512d c = _mm512_sub_pd(_mm512_sub_pd(hi, rh), lo);
  const __m512d r = _mm512_mask_mov_pd(rh, k0, y);

  const __m512d hfx = _mm512_mul_pd(_mm512_set1_pd(0.5), r);
  const __m512d hxs = _mm512_mul_pd(r, hfx);
  const __m512d r1_1 = _mm512_fmadd_pd(hxs, _mm512_set1_pd(kQ1), one);
  const __m512d h2 = _mm512_mul_pd(hxs, hxs);
  const __m512d r1_2 =
      _mm512_fmadd_pd(hxs, _mm512_set1_pd(kQ3), _mm512_set1_pd(kQ2));
  const __m512d h4 = _mm512_mul_pd(h2, h2);
  const __m512d r1_3 =
      _mm512_fmadd_pd(hxs, _mm512_set1_pd(kQ5), _mm512_set1_pd(kQ4));
  const __m512d r1 =
      _mm512_fmadd_pd(h4, r1_3, _mm512_fmadd_pd(h2, r1_2, r1_1));
  const __m512d t = _mm512_fnmadd_pd(r1, hfx, _mm512_set1_pd(3.0));
  const __m512d e0 = _mm512_mul_pd(
      hxs, _mm512_div_pd(_mm512_sub_pd(r1, t),
                         _mm512_fnmadd_pd(r, t, _mm512_set1_pd(6.0))));
  const __m512d e = _mm512_sub_pd(
      _mm512_fmsub_pd(_mm512_sub_pd(e0, c), r, c), hxs);
  const __m512d e_minus_r = _mm512_sub_pd(e, r);

  // y * 2^k: scalef is exact wherever fdlibm's exponent-field add is (the
  // scaled values here are normal), and so is 2^-k.
  const __m512d two_minus_k = Scale(one, _mm512_sub_pd(
      _mm512_setzero_pd(), kd));
  const __m512d wide_k = _mm512_sub_pd(  // k <= -2 or k > 56
      Scale(_mm512_sub_pd(one, e_minus_r), kd), one);
  const __m512d low_k = Scale(  // 2 <= k < 20
      _mm512_sub_pd(_mm512_sub_pd(one, two_minus_k), e_minus_r), kd);
  const __m512d high_k = Scale(  // 20 <= k <= 56
      _mm512_add_pd(_mm512_sub_pd(r, _mm512_add_pd(e, two_minus_k)), one),
      kd);
  const __mmask8 below20 =
      _mm512_cmp_pd_mask(kd, _mm512_set1_pd(20.0), _CMP_LT_OQ);
  const auto wide = static_cast<__mmask8>(
      _mm512_cmp_pd_mask(kd, _mm512_set1_pd(-2.0), _CMP_LE_OQ) |
      _mm512_cmp_pd_mask(kd, _mm512_set1_pd(56.0), _CMP_GT_OQ));
  __m512d expm1_y = _mm512_mask_mov_pd(high_k, below20, low_k);
  expm1_y = _mm512_mask_mov_pd(expm1_y, wide, wide_k);
  expm1_y = _mm512_mask_mov_pd(  // k = -1
      expm1_y, km1,
      _mm512_fmsub_pd(_mm512_set1_pd(0.5), _mm512_sub_pd(r, e),
                      _mm512_set1_pd(0.5)));
  expm1_y = _mm512_mask_mov_pd(  // k = 0
      expm1_y, k0, _mm512_sub_pd(r, _mm512_fmsub_pd(r, e0, hxs)));

  // |x| >= 1: 1 - 2/(t + 2); below: -t/(t + 2); then the sign of x.
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d minus_t = _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(expm1_y), sign_bit));
  const __m512d num = _mm512_mask_mov_pd(
      _mm512_mask_mov_pd(minus_t, ge1, two), special, one);
  const __m512d den =
      _mm512_mask_mov_pd(_mm512_add_pd(expm1_y, two), special, x);
  const __m512d q = _mm512_div_pd(num, den);
  __m512d z = _mm512_mask_sub_pd(q, ge1, one, q);
  z = _mm512_mask_mov_pd(z, large, _mm512_set1_pd(kOne - kTiny));
  z = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(z), sign));
  z = _mm512_mask_mov_pd(z, tiny, _mm512_mul_pd(x, _mm512_add_pd(one, x)));
  // +-inf and NaN: 1/x + 1 with the sign bit clear, 1/x - 1 with it set.
  z = _mm512_mask_add_pd(z, static_cast<__mmask8>(special & ~negative), q,
                         one);
  return _mm512_mask_sub_pd(z, static_cast<__mmask8>(special & negative), q,
                            one);
}

[[gnu::target("avx512f")]] void TanhAvx512(double* x, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, Tanh8(_mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask8>(0xFF >> (8 - (n - i)));
    _mm512_mask_storeu_pd(x + i, tail,
                          Tanh8(_mm512_maskz_loadu_pd(tail, x + i)));
  }
}
#endif

}  // namespace

namespace internal {

bool TanhBodySupported(TanhBody body) {
  if (body == TanhBody::kScalar) return true;
#if BHPO_TANH_X86
  // __builtin_cpu_supports also requires the OS to save the YMM (and, for
  // avx512f, the ZMM and mask) state.
  static const bool fma = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("fma") != 0;
  }();
  static const bool avx512 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return body == TanhBody::kAvx512 ? avx512 : fma;
#else
  return false;
#endif
}

TanhBody DispatchedTanhBody() {
  static const TanhBody body =
      TanhBodySupported(TanhBody::kAvx512) ? TanhBody::kAvx512
      : TanhBodySupported(TanhBody::kFma)  ? TanhBody::kFma
                                           : TanhBody::kScalar;
  return body;
}

const char* TanhBodyName(TanhBody body) {
  switch (body) {
    case TanhBody::kAvx512:
      return "avx512";
    case TanhBody::kFma:
      return "fma";
    case TanhBody::kScalar:
      break;
  }
  return "scalar";
}

double Tanh(double x) { return TanhOne(x); }

void TanhInPlace(TanhBody body, double* x, size_t n) {
  BHPO_CHECK(TanhBodySupported(body))
      << "the " << TanhBodyName(body)
      << " tanh body needs a CPU (and a build) that has it";
#if BHPO_TANH_X86
  if (body == TanhBody::kAvx512) return TanhAvx512(x, n);
  if (body == TanhBody::kFma) return TanhFma(x, n);
#endif
  for (size_t i = 0; i < n; ++i) x[i] = TanhOne(x[i]);
}

}  // namespace internal

}  // namespace bhpo

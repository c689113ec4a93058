// The in-tree tanh (src/ml/activations.cc) must give std::tanh's bits as
// glibc 2.36's FMA build computes them, at every body: the scalar reference,
// its FMA build and the 8-lane AVX-512F body. The recorded pairs check that
// on any host; the libm sweep re-checks it wherever std::tanh is that build.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "ml/activations.h"

namespace bhpo {
namespace internal {

// Names the body in test output instead of dumping the enum's bytes.
void PrintTo(TanhBody body, std::ostream* os) { *os << TanhBodyName(body); }

}  // namespace internal

namespace {

using internal::TanhBody;

struct BitsPair {
  uint64_t x;
  uint64_t tanh;
};

constexpr BitsPair kRecorded[] = {
#include "tests/ml/tanh_recorded_bits.inc"
};

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

std::string Hex(uint64_t bits) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

class TanhTest : public ::testing::TestWithParam<TanhBody> {
 protected:
  void SetUp() override {
    if (!internal::TanhBodySupported(GetParam())) {
      GTEST_SKIP() << "this CPU has no " << internal::TanhBodyName(GetParam())
                   << " tanh body";
    }
  }
};

TEST_P(TanhTest, MatchesRecordedBits) {
  std::vector<double> x;
  for (const BitsPair& pair : kRecorded) x.push_back(FromBits(pair.x));
  internal::TanhInPlace(GetParam(), x.data(), x.size());
  int mismatches = 0;
  for (size_t i = 0; i < x.size() && mismatches < 20; ++i) {
    const BitsPair& pair = kRecorded[i];
    const uint64_t reference = Bits(internal::Tanh(FromBits(pair.x)));
    if (Bits(x[i]) == pair.tanh && reference == pair.tanh) continue;
    ++mismatches;
    ADD_FAILURE() << "tanh of " << Hex(pair.x) << ": " << Hex(Bits(x[i]))
                  << ", scalar reference " << Hex(reference) << ", recorded "
                  << Hex(pair.tanh);
  }
}

TEST_P(TanhTest, MatchesLibm) {
#if defined(__GLIBC__) && defined(__x86_64__)
  const std::string libc = gnu_get_libc_version();
  __builtin_cpu_init();
  // glibc runs its FMA build of expm1 only where the CPU has FMA and AVX2.
  const bool fma = __builtin_cpu_supports("fma") != 0 &&
                   __builtin_cpu_supports("avx2") != 0;
  if (libc != "2.36" || !fma) {
    GTEST_SKIP() << "std::tanh here is not glibc 2.36's FMA build (glibc "
                 << libc << ", FMA and AVX2 " << (fma ? "present" : "absent")
                 << "); the recorded bits still apply";
  }
#else
  GTEST_SKIP() << "std::tanh here is not glibc's; the recorded bits still "
                  "apply";
#endif
  // 2^20 inputs: half uniform on [-25, 25], half random bit patterns with
  // exponents from -63 to 6.
  std::mt19937_64 gen(16);
  std::uniform_real_distribution<double> uniform(-25.0, 25.0);
  std::vector<double> x(1 << 20);
  for (size_t i = 0; i < x.size(); i += 2) {
    x[i] = uniform(gen);
    uint64_t mantissa = gen() & ((uint64_t{1} << 52) - 1);
    uint64_t exponent = 1023 - 63 + gen() % 70;
    x[i + 1] = FromBits((gen() & (uint64_t{1} << 63)) | (exponent << 52) |
                        mantissa);
  }
  std::vector<double> y = x;
  internal::TanhInPlace(GetParam(), y.data(), y.size());
  int mismatches = 0;
  for (size_t i = 0; i < x.size() && mismatches < 20; ++i) {
    if (Bits(y[i]) == Bits(std::tanh(x[i]))) continue;
    ++mismatches;
    ADD_FAILURE() << "tanh of " << Hex(Bits(x[i])) << ": "
                  << Hex(Bits(y[i])) << ", std::tanh "
                  << Hex(Bits(std::tanh(x[i])));
  }
}

// The 8-lane body finishes with a masked load and store: no length may
// write past the end of the view, whatever the alignment.
TEST_P(TanhTest, StoresStopAtTheEnd) {
  const uint64_t kSentinel = 0x7ff4deadbeef0001;
  for (size_t n = 0; n <= 17; ++n) {
    std::vector<double> input(n);
    for (size_t i = 0; i < n; ++i) input[i] = 0.37 * static_cast<double>(i) - 3.0;
    std::vector<double> buffer(1 + n + 8, FromBits(kSentinel));
    double* x = buffer.data() + 1;
    std::copy(input.begin(), input.end(), x);
    internal::TanhInPlace(GetParam(), x, n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(Bits(x[i]), Bits(internal::Tanh(input[i])))
          << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(Bits(buffer[0]), kSentinel) << "n=" << n;
    for (size_t i = n; i < n + 8; ++i) {
      EXPECT_EQ(Bits(x[i]), kSentinel) << "n=" << n << " wrote x[" << i << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TanhBodies, TanhTest,
    ::testing::Values(TanhBody::kScalar, TanhBody::kFma, TanhBody::kAvx512),
    [](const ::testing::TestParamInfo<TanhBody>& info) {
      return std::string(internal::TanhBodyName(info.param));
    });

TEST(TanhDispatchTest, PicksTheWidestSupportedBody) {
  EXPECT_TRUE(internal::TanhBodySupported(TanhBody::kScalar));
  TanhBody widest = internal::TanhBodySupported(TanhBody::kAvx512)
                        ? TanhBody::kAvx512
                    : internal::TanhBodySupported(TanhBody::kFma)
                        ? TanhBody::kFma
                        : TanhBody::kScalar;
  EXPECT_EQ(internal::DispatchedTanhBody(), widest);
}

}  // namespace
}  // namespace bhpo

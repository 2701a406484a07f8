#include "mnc/util/random.h"

#include <cmath>

#include "mnc/util/check.h"

namespace mnc {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t state = a + 0x9E3779B97F4A7C15ULL * (b + 0x632BE59BD9B4E019ULL);
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  MNC_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x;
  do {
    x = Next();
  } while (x >= limit);
  return static_cast<int64_t>(x % un);
}

double Rng::Exponential(double lambda) {
  MNC_CHECK_GT(lambda, 0.0);
  // Uniform() is in [0, 1); 1 - Uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - Uniform()) / lambda;
}

double Rng::Gaussian() {
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  MNC_CHECK_GE(n, 0);
  MNC_CHECK_GE(k, 0);
  MNC_CHECK_LE(k, n);
  // Floyd's algorithm would avoid the O(n) vector, but k is usually a
  // constant fraction of n in our use, so reservoir-style selection
  // sampling keeps the output sorted without an extra sort.
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  int64_t remaining = k;
  for (int64_t i = 0; i < n && remaining > 0; ++i) {
    // P(select i) = remaining / (n - i).
    if (UniformInt(n - i) < remaining) {
      out.push_back(i);
      --remaining;
    }
  }
  return out;
}

ZipfDistribution::ZipfDistribution(int64_t n, double s) : n_(n), s_(s) {
  MNC_CHECK_GT(n, 0);
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[static_cast<size_t>(k)] = acc;
  }
  const double total = acc;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // Guard against round-off in the final bucket.
}

int64_t ZipfDistribution::operator()(Rng& rng) const {
  const double u = rng.Uniform();
  // Binary search for the first bucket with cdf >= u.
  int64_t lo = 0;
  int64_t hi = n_ - 1;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (cdf_[static_cast<size_t>(mid)] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace mnc

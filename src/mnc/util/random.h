// Seeded pseudo-random number generation for data generators and estimators.
//
// All randomized components of the library (matrix generators, probabilistic
// rounding in sketch propagation, sampling estimators, layered-graph
// r-vectors) draw from an explicitly seeded Rng so that experiments and tests
// are reproducible. The engine is xoshiro256**, seeded via splitmix64.
//
// Next(), Uniform() and Bernoulli() are defined inline below: propagation
// rounding (RoundInto in mnc/core/mnc_propagation.cc) draws once per
// fractional count entry, and the build has no LTO to inline an
// out-of-line draw. Inlining changes neither the engine nor the sequence.

#ifndef MNC_UTIL_RANDOM_H_
#define MNC_UTIL_RANDOM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mnc {

// Mixes two 64-bit values into a well-distributed derived seed (splitmix64
// finalizer). Used to derive independent per-block PRNG streams from a base
// seed and a stream/block index: Rng(MixSeed(MixSeed(seed, stream), block)).
uint64_t MixSeed(uint64_t a, uint64_t b);

// A small, fast, explicitly seeded PRNG (xoshiro256**).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Raw 64 random bits.
  uint64_t Next() {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): 53 random mantissa bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  // Bernoulli trial with success probability p (clamped to [0, 1]). Draws
  // only when 0 < p < 1.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return Uniform() < p;
  }

  // Exponentially distributed value with rate lambda (> 0).
  double Exponential(double lambda = 1.0);

  // Standard normal via Box-Muller.
  double Gaussian();

  // Fisher-Yates shuffle of v.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (int64_t i = static_cast<int64_t>(v.size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap(v[static_cast<size_t>(i)], v[static_cast<size_t>(j)]);
    }
  }

  // Draws k distinct integers from [0, n) (k <= n), in ascending order.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

 private:
  uint64_t s_[4];
};

// Samples from a Zipf(s) distribution over {0, 1, ..., n-1}: value k has
// probability proportional to 1 / (k+1)^s. Uses the inverse-CDF method over a
// precomputed cumulative table, so construction is O(n) and sampling is
// O(log n). Suitable for the power-law column/degree distributions used by
// the SparsEst data generators.
class ZipfDistribution {
 public:
  ZipfDistribution(int64_t n, double s);

  int64_t operator()(Rng& rng) const;

  int64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  int64_t n_;
  double s_;
  std::vector<double> cdf_;
};

}  // namespace mnc

#endif  // MNC_UTIL_RANDOM_H_

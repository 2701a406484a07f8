// Vectorized kernel layer for the estimator / SpGEMM hot loops.
//
// The library's five hottest inner loops — the Algorithm 1 histogram dot
// products (Thm 3.1 / Eq. 8), the density-map combine (Eq. 4), the bitset
// word AND/OR + popcount (Eq. 3), the Eq. 11/15 propagation scaling, and the
// Gustavson SpGEMM row scatter/gather — are expressed here as flat
// pointer-based kernels. The data-parallel ones are dispatched through a
// per-process function table (scalar / AVX2 / NEON — see mnc/util/simd.h);
// the scatter-bound SpGEMM row accumulator is deliberately scalar on every
// level (AVX2 has no scatter store) and lives here so every sparse product
// path shares one implementation.
//
// Determinism contract, per kernel:
//   * dot_counts / dot_counts_diff: vector levels use multiple accumulators,
//     so the result may differ from scalar by float reassociation only. The
//     summands are products of integer counts, hence integer-valued doubles:
//     whenever every partial sum stays below 2^53 the reduction is EXACT and
//     therefore bit-identical across levels (true for all realistic
//     sketches; the differential harness asserts it).
//   * density_combine: bit-identical across levels by construction. The
//     vector path only evaluates the elementwise prologue (convert,
//     subtract, multiply, divide, min — each a single correctly-rounded IEEE
//     operation, identical to scalar); the log1p accumulation runs in scalar
//     source order on the surviving lanes.
//   * scale_counts / ewise_*_est: purely elementwise with the same rounding
//     sequence per element — bit-identical across levels.
//   * bitset word kernels: integer — bit-identical across levels.
//
// Precondition shared by the count kernels: counts are non-negative and
// < 2^51 (the AVX2 int64->double conversion uses the 2^52 bias trick).
// MncSketch count vectors satisfy this by construction for any matrix whose
// dimensions fit in 2^51.

#ifndef MNC_KERNELS_KERNELS_H_
#define MNC_KERNELS_KERNELS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mnc/util/arena.h"
#include "mnc/util/simd.h"

namespace mnc {
namespace kernels {

// Result of a density-map combine range: the log-space zero-probability
// accumulated over the range, and whether a certain hit (cell_prob >= 1)
// ended the scan early. When `certain` is true the caller must treat the
// range as probability-1 and ignore `log_zero_prob` (matching the scalar
// early break in Eq. 4).
struct CombineAccum {
  double log_zero_prob = 0.0;
  bool certain = false;
};

// The dispatchable kernel table. All pointers are non-null in every table.
struct KernelTable {
  // sum_k double(u[k]) * double(v[k]).
  double (*dot_counts)(const int64_t* u, const int64_t* v, int64_t n);

  // sum_k (double(u[k]) - double(du[k])) * double(v[k]); du == nullptr is
  // treated as all zeros (then identical to dot_counts).
  double (*dot_counts_diff)(const int64_t* u, const int64_t* du,
                            const int64_t* v, int64_t n);

  // Eq. 4 over [0, n): for each k with (u[k]-du[k]) > 0 and (v[k]-dv[k]) > 0
  // accumulates log1p(-min(1, (u-du)(v-dv)/p)) in index order; stops at the
  // first certain hit. du/dv may be nullptr (no offsets). Requires p > 0.
  CombineAccum (*density_combine)(const int64_t* u, const int64_t* du,
                                  const int64_t* v, const int64_t* dv,
                                  int64_t n, double p);

  // Eq. 11 staging: out[k] = double(counts[k]) * scale (one rounding per
  // element; the caller rounds/clamps, keeping the PRNG order scalar).
  void (*scale_counts)(const int64_t* counts, int64_t n, double scale,
                       double* out);

  // Eq. 15 elementwise collision estimates (ha = double(a[k]), hb likewise):
  //   mult: out[k] = min((ha * hb) * lambda, min(ha, hb))
  //   add:  out[k] = clamp(ha + hb - mult[k], max(ha, hb), cap)
  // Multiplication order is fixed as (ha * hb) * lambda to match the scalar
  // propagation loops bit-for-bit.
  void (*ewise_mult_est)(const int64_t* a, const int64_t* b, int64_t n,
                         double lambda, double* out);
  void (*ewise_add_est)(const int64_t* a, const int64_t* b, int64_t n,
                        double lambda, double cap, double* out);

  // dst[k] |= src[k]. dst and src must not partially overlap.
  void (*or_into)(uint64_t* dst, const uint64_t* src, int64_t n);

  // dst[k] = a[k] | b[k] and dst[k] = a[k] & b[k].
  void (*or_words)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   int64_t n);
  void (*and_words)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                    int64_t n);

  // Total set bits of w[0..n); fused popcount(a[k] & b[k]) without
  // materializing the AND (Eq. 3 row intersection).
  int64_t (*popcount_words)(const uint64_t* w, int64_t n);
  int64_t (*and_popcount_words)(const uint64_t* a, const uint64_t* b,
                                int64_t n);
};

// The portable reference table (always available; the baseline every other
// level must agree with).
const KernelTable& ScalarKernels();

// The table for a specific level; falls back to ScalarKernels() when the
// level is not compiled in or not runnable on this CPU.
const KernelTable& KernelsForLevel(SimdLevel level);

// The dispatched table: KernelsForLevel(BestSupportedSimdLevel()), resolved
// once per process. Overrides take precedence in this order:
// ScopedForceKernels (tests/benches) > tuned table (calibration profile,
// see mnc/tuning/machine_profile.h) > dispatched.
const KernelTable& Active();

// The level Active() currently resolves to (reflects a ScopedForceKernels
// override; a tuned table mixes levels per kernel and reports the
// dispatched level it was built from).
SimdLevel ActiveLevel();

// Installs a per-kernel tuned table from a calibration profile (nullptr
// uninstalls). The pointer must stay valid until replaced — the tuning
// layer keeps the storage alive for the process lifetime. Like
// ScopedForceKernels, publication is atomic but not synchronized against
// in-flight kernels: install before spawning parallel work. Every entry of
// a tuned table computes bit-identical results to every other table (the
// per-kernel determinism contract above), so swapping it never changes
// output, only throughput.
void SetTunedKernelTable(const KernelTable* table);
const KernelTable* TunedKernelTable();

// Test/bench hook: forces Active() to a given level for the lifetime of the
// object (nesting restores the previous override). The override is published
// atomically so concurrent kernel *callers* are safe, but installation is
// not synchronized against them — install before spawning parallel work.
class ScopedForceKernels {
 public:
  explicit ScopedForceKernels(SimdLevel level);
  ~ScopedForceKernels();

  ScopedForceKernels(const ScopedForceKernels&) = delete;
  ScopedForceKernels& operator=(const ScopedForceKernels&) = delete;

 private:
  SimdLevel previous_;
  bool had_previous_;
};

// --- Gustavson SpGEMM row accumulator (dispatch-invariant scalar) --------
//
// One row kernel serves every sparse product path: the blind sequential and
// two-pass parallel SpGEMM (including its symbolic pass and
// ProductNnzExact), and the guided sequential and single-pass parallel
// SpGEMM. Output row i of C = A B is scattered into a dense value
// accumulator plus an occupancy bitmap (bit j set once column j is touched)
// and gathered in ascending column order by walking the bitmap words with
// count-trailing-zeros, so no row is ever sorted on the common path. The
// scatter sets bits without a data-dependent branch; because B's rows are
// sorted, the row's span of touched words costs two compares per A entry,
// not per contribution.
//
// The walk costs O(span words). A very wide, sparse row, whose span exceeds
// kSparseSpanWordsPerFlop words per contribution (the contribution count
// bounds the touched count from above), instead re-collects its touched
// columns from B's rows and sorts that short list. Either way the gather's
// cost is bounded by the row's contribution count (with a log factor for
// the sort), never by the column count.
//
// Values: each column sums av * bv over ascending k into a 0.0-seeded
// accumulator and exactly-cancelled columns (== 0.0) are dropped, so every
// path produces bit-identical output whichever gather order it took.
//
// Clean buffers: the accumulator borrows a ScratchArena's scatter buffers,
// all-zero at rest. Gather(), Discard() and PatternCountAndReset() clear
// exactly the bitmap words and accumulator entries the row touched. A row
// abandoned by an exception leaves them dirty; the ScratchPool lease then
// discards the arena instead of recycling it (mnc/util/arena.h).
class SpGemmRowAccumulator {
 public:
  static constexpr int64_t kSparseSpanWordsPerFlop = 4;

  // B given by its CSR arrays; b_values may be null for pattern-only use.
  // The arena must stay leased for the accumulator's lifetime.
  SpGemmRowAccumulator(ScratchArena& arena, int64_t b_cols,
                       const int64_t* b_row_ptr, const int64_t* b_col_idx,
                       const double* b_values)
      : b_row_ptr_(b_row_ptr),
        b_col_idx_(b_col_idx),
        b_values_(b_values),
        popcount_words_(Active().popcount_words),
        list_(arena.scatter_list()) {
    arena.EnsureScatterCols(b_cols);
    acc_ = arena.scatter_acc();
    bits_ = arena.scatter_bits();
  }

  // Scatters the row sum_t a_val[t] * B[a_idx[t], :] (a_idx ascending).
  // Exactly one of Gather() / Discard() must follow before the next row.
  void Scatter(const int64_t* a_idx, const double* a_val, int64_t na) {
    const int64_t* bp = b_row_ptr_;
    const int64_t* bi = b_col_idx_;
    const double* bv = b_values_;
    double* acc = acc_;
    uint64_t* bits = bits_;
    int64_t lo = kEmptyLo;
    int64_t hi = -1;
    int64_t flops = 0;
    for (int64_t ka = 0; ka < na; ++ka) {
      const int64_t begin = bp[a_idx[ka]];
      const int64_t end = bp[a_idx[ka] + 1];
      if (begin == end) continue;
      lo = std::min(lo, bi[begin] >> 6);
      hi = std::max(hi, bi[end - 1] >> 6);
      flops += end - begin;
      const double av = a_val[ka];
      for (int64_t t = begin; t < end; ++t) {
        const int64_t j = bi[t];
        bits[j >> 6] |= uint64_t{1} << (j & 63);
        acc[j] += av * bv[t];
      }
    }
    BeginRow(a_idx, na, lo, hi, flops);
  }

  // Pattern-only scatter for the symbolic pass; PatternCountAndReset() must
  // follow before the next row.
  void ScatterPattern(const int64_t* a_idx, int64_t na) {
    const int64_t* bp = b_row_ptr_;
    const int64_t* bi = b_col_idx_;
    uint64_t* bits = bits_;
    int64_t lo = kEmptyLo;
    int64_t hi = -1;
    int64_t flops = 0;
    for (int64_t ka = 0; ka < na; ++ka) {
      const int64_t begin = bp[a_idx[ka]];
      const int64_t end = bp[a_idx[ka] + 1];
      if (begin == end) continue;
      lo = std::min(lo, bi[begin] >> 6);
      hi = std::max(hi, bi[end - 1] >> 6);
      flops += end - begin;
      for (int64_t t = begin; t < end; ++t) {
        const int64_t j = bi[t];
        bits[j >> 6] |= uint64_t{1} << (j & 63);
      }
    }
    BeginRow(a_idx, na, lo, hi, flops);
  }

  // Contributions scattered into the current row: an upper bound on
  // Count(), known without touching the bitmap.
  int64_t flops() const { return flops_; }

  // Distinct columns the current (numeric) row touched.
  int64_t Count() {
    if (SparseSpan()) {
      CollectTouched();
      return static_cast<int64_t>(list_.size());
    }
    return SpanWords() == 0 ? 0 : popcount_words_(bits_ + lo_, SpanWords());
  }

  // Writes the row's non-cancelled entries in ascending column order,
  // returns their number and resets the row. out_idx/out_val need room for
  // Count() entries (flops() always suffices); nothing is written past that.
  int64_t Gather(int64_t* out_idx, double* out_val) {
    double* acc = acc_;
    int64_t written = 0;
    if (SparseSpan()) {
      CollectTouched();
      std::sort(list_.begin(), list_.end());
      for (int64_t j : list_) {
        const double v = acc[j];
        acc[j] = 0.0;
        out_idx[written] = j;
        out_val[written] = v;
        written += v != 0.0;
      }
      list_.clear();
    } else {
      uint64_t* bits = bits_;
      for (int64_t w = lo_; w <= hi_; ++w) {
        uint64_t word = bits[w];
        if (word == 0) continue;
        bits[w] = 0;
        const int64_t base = w << 6;
        do {
          const int64_t j = base + std::countr_zero(word);
          word &= word - 1;
          const double v = acc[j];
          acc[j] = 0.0;
          out_idx[written] = j;
          out_val[written] = v;
          written += v != 0.0;
        } while (word != 0);
      }
    }
    EndRow();
    return written;
  }

  // Resets the current (numeric) row without writing it: the guided
  // kernels' overflow path.
  void Discard() {
    double* acc = acc_;
    if (SparseSpan()) {
      CollectTouched();
      for (int64_t j : list_) acc[j] = 0.0;
      list_.clear();
    } else {
      uint64_t* bits = bits_;
      for (int64_t w = lo_; w <= hi_; ++w) {
        for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
          acc[(w << 6) + std::countr_zero(word)] = 0.0;
        }
        bits[w] = 0;
      }
    }
    EndRow();
  }

  // Distinct columns of the current pattern row; resets the row.
  int64_t PatternCountAndReset() {
    int64_t count = 0;
    if (SparseSpan()) {
      CollectTouched();
      count = static_cast<int64_t>(list_.size());
      list_.clear();
    } else if (SpanWords() > 0) {
      count = popcount_words_(bits_ + lo_, SpanWords());
      std::fill(bits_ + lo_, bits_ + hi_ + 1, uint64_t{0});
    }
    EndRow();
    return count;
  }

 private:
  static constexpr int64_t kEmptyLo = INT64_MAX;

  void BeginRow(const int64_t* a_idx, int64_t na, int64_t lo, int64_t hi,
                int64_t flops) {
    a_idx_ = a_idx;
    na_ = na;
    lo_ = lo;
    hi_ = hi;
    flops_ = flops;
  }

  void EndRow() {
    lo_ = kEmptyLo;
    hi_ = -1;
    flops_ = 0;
    collected_ = false;
  }

  int64_t SpanWords() const { return hi_ < lo_ ? 0 : hi_ - lo_ + 1; }

  bool SparseSpan() const {
    return SpanWords() > kSparseSpanWordsPerFlop * flops_;
  }

  // Moves the row's touched columns from the bitmap into list_ (first-touch
  // order), clearing their bits, by re-walking B's rows: O(flops).
  void CollectTouched() {
    if (collected_) return;
    collected_ = true;
    for (int64_t ka = 0; ka < na_; ++ka) {
      const int64_t k = a_idx_[ka];
      for (int64_t t = b_row_ptr_[k]; t < b_row_ptr_[k + 1]; ++t) {
        const int64_t j = b_col_idx_[t];
        const uint64_t bit = uint64_t{1} << (j & 63);
        if (bits_[j >> 6] & bit) {
          bits_[j >> 6] &= ~bit;
          list_.push_back(j);
        }
      }
    }
  }

  const int64_t* b_row_ptr_;
  const int64_t* b_col_idx_;
  const double* b_values_;
  // Resolved once per accumulator, not per row.
  int64_t (*popcount_words_)(const uint64_t*, int64_t);
  std::vector<int64_t>& list_;
  double* acc_ = nullptr;
  uint64_t* bits_ = nullptr;
  const int64_t* a_idx_ = nullptr;
  int64_t na_ = 0;
  int64_t lo_ = kEmptyLo;
  int64_t hi_ = -1;
  int64_t flops_ = 0;
  bool collected_ = false;
};

}  // namespace kernels
}  // namespace mnc

#endif  // MNC_KERNELS_KERNELS_H_

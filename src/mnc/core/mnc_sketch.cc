#include "mnc/core/mnc_sketch.h"

#include <algorithm>
#include <optional>

#include "mnc/util/check.h"

namespace mnc {

MncSketch MncSketch::FromCsr(const CsrMatrix& a) {
  MncSketch s;
  s.rows_ = a.rows();
  s.cols_ = a.cols();
  s.hr_ = a.NnzPerRow();
  s.hc_ = a.NnzPerCol();
  s.RecomputeSummary();

  // Second scan for the extension vectors, only when some row or column has
  // more than one non-zero (otherwise they carry no information beyond
  // hr/hc — Theorem 3.1 already applies).
  if (s.max_hr_ > 1 || s.max_hc_ > 1) {
    s.her_.assign(static_cast<size_t>(s.rows_), 0);
    s.hec_.assign(static_cast<size_t>(s.cols_), 0);
    for (int64_t i = 0; i < s.rows_; ++i) {
      const bool single_row = s.hr_[static_cast<size_t>(i)] == 1;
      for (int64_t j : a.RowIndices(i)) {
        if (s.hc_[static_cast<size_t>(j)] == 1) {
          ++s.her_[static_cast<size_t>(i)];
        }
        if (single_row) {
          ++s.hec_[static_cast<size_t>(j)];
        }
      }
    }
  }

  s.diagonal_ = a.IsFullyDiagonal();
  return s;
}

MncSketch MncSketch::FromCsc(const CscMatrix& a) {
  // Column-major construction, symmetric to FromCsr.
  MncSketch s;
  s.rows_ = a.rows();
  s.cols_ = a.cols();
  s.hr_ = a.NnzPerRow();
  s.hc_ = a.NnzPerCol();
  s.RecomputeSummary();

  if (s.max_hr_ > 1 || s.max_hc_ > 1) {
    s.her_.assign(static_cast<size_t>(s.rows_), 0);
    s.hec_.assign(static_cast<size_t>(s.cols_), 0);
    for (int64_t j = 0; j < s.cols_; ++j) {
      const bool single_col = s.hc_[static_cast<size_t>(j)] == 1;
      for (int64_t i : a.ColIndices(j)) {
        if (single_col) {
          ++s.her_[static_cast<size_t>(i)];
        }
        if (s.hr_[static_cast<size_t>(i)] == 1) {
          ++s.hec_[static_cast<size_t>(j)];
        }
      }
    }
  }

  // Fully diagonal check: square, one entry per column, on the diagonal.
  s.diagonal_ = s.rows_ == s.cols_ && s.nnz_ == s.rows_;
  for (int64_t j = 0; j < s.cols_ && s.diagonal_; ++j) {
    const auto idx = a.ColIndices(j);
    s.diagonal_ = idx.size() == 1 && idx[0] == j;
  }
  return s;
}

MncSketch MncSketch::FromDense(const DenseMatrix& a) {
  // Direct dense scan — avoids materializing a CSR copy (footnote 3 of the
  // paper: dense formats require a scan over all m*n cells, nothing more).
  MncSketch s;
  s.rows_ = a.rows();
  s.cols_ = a.cols();
  s.hr_.assign(static_cast<size_t>(a.rows()), 0);
  s.hc_.assign(static_cast<size_t>(a.cols()), 0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    int64_t count = 0;
    for (int64_t j = 0; j < a.cols(); ++j) {
      if (row[j] != 0.0) {
        ++count;
        ++s.hc_[static_cast<size_t>(j)];
      }
    }
    s.hr_[static_cast<size_t>(i)] = count;
  }
  s.RecomputeSummary();

  if (s.max_hr_ > 1 || s.max_hc_ > 1) {
    s.her_.assign(static_cast<size_t>(s.rows_), 0);
    s.hec_.assign(static_cast<size_t>(s.cols_), 0);
    for (int64_t i = 0; i < a.rows(); ++i) {
      const double* row = a.row(i);
      const bool single_row = s.hr_[static_cast<size_t>(i)] == 1;
      for (int64_t j = 0; j < a.cols(); ++j) {
        if (row[j] == 0.0) continue;
        if (s.hc_[static_cast<size_t>(j)] == 1) {
          ++s.her_[static_cast<size_t>(i)];
        }
        if (single_row) {
          ++s.hec_[static_cast<size_t>(j)];
        }
      }
    }
  }

  // Diagonal check without conversion.
  s.diagonal_ = s.rows_ == s.cols_ && s.nnz_ == s.rows_;
  if (s.diagonal_) {
    for (int64_t i = 0; i < a.rows() && s.diagonal_; ++i) {
      s.diagonal_ = a.At(i, i) != 0.0;
    }
  }
  return s;
}

MncSketch MncSketch::FromMatrix(const Matrix& a) {
  if (a.is_dense()) return FromDense(a.dense());
  return FromCsr(a.csr());
}

MncSketch MncSketch::FromCounts(int64_t rows, int64_t cols,
                                std::vector<int64_t> hr,
                                std::vector<int64_t> hc, bool diagonal) {
  MncSketch s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.hr_ = std::move(hr);
  s.hc_ = std::move(hc);
  MNC_CHECK_EQ(static_cast<int64_t>(s.hr_.size()), rows);
  MNC_CHECK_EQ(static_cast<int64_t>(s.hc_.size()), cols);
  s.diagonal_ = diagonal;
  s.RecomputeSummary();
  return s;
}

MncSketch MncSketch::FromCountsExtended(int64_t rows, int64_t cols,
                                        std::vector<int64_t> hr,
                                        std::vector<int64_t> hc,
                                        std::vector<int64_t> her,
                                        std::vector<int64_t> hec,
                                        bool diagonal) {
  MncSketch s = FromCounts(rows, cols, std::move(hr), std::move(hc), diagonal);
  if (!her.empty()) {
    MNC_CHECK_EQ(static_cast<int64_t>(her.size()), rows);
    s.her_ = std::move(her);
  }
  if (!hec.empty()) {
    MNC_CHECK_EQ(static_cast<int64_t>(hec.size()), cols);
    s.hec_ = std::move(hec);
  }
  return s;
}

MncSketch MncSketch::MergeRowPartitions(const std::vector<MncSketch>& parts) {
  MNC_CHECK(!parts.empty());
  const int64_t cols = parts.front().cols();
  std::vector<int64_t> hr;
  std::vector<int64_t> hc(static_cast<size_t>(cols), 0);
  for (const MncSketch& part : parts) {
    MNC_CHECK_EQ(part.cols(), cols);
    hr.insert(hr.end(), part.hr().begin(), part.hr().end());
    for (size_t j = 0; j < hc.size(); ++j) hc[j] += part.hc()[j];
  }
  const int64_t rows = static_cast<int64_t>(hr.size());
  return FromCounts(rows, cols, std::move(hr), std::move(hc));
}

StatusOr<MncSketch> MncSketch::MergeRowPartitionsTolerant(
    const std::vector<StatusOr<MncSketch>>& parts,
    PartitionMergeReport* report) {
  PartitionMergeReport local;
  PartitionMergeReport& rep = report != nullptr ? *report : local;
  rep = PartitionMergeReport();
  rep.total_partitions = static_cast<int>(parts.size());

  if (parts.empty()) {
    return Status::InvalidArgument("no partitions to merge");
  }

  int64_t cols = -1;
  std::vector<const MncSketch*> healthy;
  for (size_t p = 0; p < parts.size(); ++p) {
    const int idx = static_cast<int>(p);
    if (!parts[p].ok()) {
      rep.failed_partitions.emplace_back(
          idx, parts[p].status().WithContext("partition " +
                                             std::to_string(idx)));
      continue;
    }
    const MncSketch& sketch = *parts[p];
    if (cols == -1) {
      cols = sketch.cols();
    } else if (sketch.cols() != cols) {
      return Status::InvalidArgument(
          "partition " + std::to_string(idx) + " has " +
          std::to_string(sketch.cols()) + " columns but earlier healthy "
          "partitions have " + std::to_string(cols));
    }
    rep.merged_partitions.push_back(idx);
    rep.merged_rows += sketch.rows();
    healthy.push_back(&sketch);
  }

  if (healthy.empty()) {
    Status cause = rep.failed_partitions.front().second;
    return std::move(cause).WithContext(
        "all " + std::to_string(parts.size()) + " partitions failed; first "
        "cause");
  }

  std::vector<int64_t> hr;
  hr.reserve(static_cast<size_t>(rep.merged_rows));
  std::vector<int64_t> hc(static_cast<size_t>(cols), 0);
  for (const MncSketch* part : healthy) {
    hr.insert(hr.end(), part->hr().begin(), part->hr().end());
    for (size_t j = 0; j < hc.size(); ++j) hc[j] += part->hc()[j];
  }
  const int64_t rows = static_cast<int64_t>(hr.size());
  return FromCounts(rows, cols, std::move(hr), std::move(hc));
}

MncSketch MncSketch::MergeColPartitions(const std::vector<MncSketch>& parts) {
  MNC_CHECK(!parts.empty());
  const int64_t rows = parts.front().rows();
  std::vector<int64_t> hc;
  std::vector<int64_t> hr(static_cast<size_t>(rows), 0);
  for (const MncSketch& part : parts) {
    MNC_CHECK_EQ(part.rows(), rows);
    hc.insert(hc.end(), part.hc().begin(), part.hc().end());
    for (size_t i = 0; i < hr.size(); ++i) hr[i] += part.hr()[i];
  }
  const int64_t cols = static_cast<int64_t>(hc.size());
  return FromCounts(rows, cols, std::move(hr), std::move(hc));
}

MncSketch MncSketch::FromCsr(const CsrMatrix& a, const ParallelConfig& orig,
                             ThreadPool* pool) {
  // Calibrated dispatch: below the measured crossover the parallel build
  // loses to sequential, so fall back (bit-identical either way; the merge
  // below is grain-invariant, so a calibrated grain is also safe).
  const ParallelConfig config =
      orig.ForStage(TunedStage::kSketchBuild, a.rows() + a.NumNonZeros());
  const int64_t num_blocks = config.NumBlocks(a.rows());
  if (!config.enabled() || pool == nullptr || num_blocks <= 1) {
    return FromCsr(a);
  }

  // Per-block sub-sketches of the row partitions (§3.1's distributed
  // construction run in-process): hr slices concatenate, hc partials add —
  // both order-insensitive integer merges, so the merged sketch equals the
  // sequential one exactly.
  std::vector<std::optional<MncSketch>> blocks(
      static_cast<size_t>(num_blocks));
  ParallelForBlocks(pool, config, a.rows(),
                    [&](int64_t block, int64_t begin, int64_t end) {
    std::vector<int64_t> hr(static_cast<size_t>(end - begin), 0);
    std::vector<int64_t> hc(static_cast<size_t>(a.cols()), 0);
    for (int64_t i = begin; i < end; ++i) {
      hr[static_cast<size_t>(i - begin)] = a.RowNnz(i);
      for (int64_t j : a.RowIndices(i)) ++hc[static_cast<size_t>(j)];
    }
    blocks[static_cast<size_t>(block)] =
        FromCounts(end - begin, a.cols(), std::move(hr), std::move(hc));
  });
  std::vector<MncSketch> parts;
  parts.reserve(blocks.size());
  for (auto& block : blocks) parts.push_back(std::move(*block));
  MncSketch s = MergeRowPartitions(parts);

  // Extension vectors in a second parallel scan: her writes to disjoint row
  // ranges; hec needs per-block accumulation like hc.
  if (s.max_hr_ > 1 || s.max_hc_ > 1) {
    s.her_.assign(static_cast<size_t>(s.rows_), 0);
    std::vector<std::vector<int64_t>> hec_parts(
        static_cast<size_t>(num_blocks));
    ParallelForBlocks(pool, config, a.rows(),
                      [&](int64_t block, int64_t begin, int64_t end) {
      std::vector<int64_t>& hec = hec_parts[static_cast<size_t>(block)];
      hec.assign(static_cast<size_t>(a.cols()), 0);
      for (int64_t i = begin; i < end; ++i) {
        const bool single_row = s.hr_[static_cast<size_t>(i)] == 1;
        for (int64_t j : a.RowIndices(i)) {
          if (s.hc_[static_cast<size_t>(j)] == 1) {
            ++s.her_[static_cast<size_t>(i)];
          }
          if (single_row) ++hec[static_cast<size_t>(j)];
        }
      }
    });
    s.hec_.assign(static_cast<size_t>(a.cols()), 0);
    for (const auto& part : hec_parts) {
      for (size_t j = 0; j < part.size(); ++j) s.hec_[j] += part[j];
    }
  }

  s.diagonal_ = a.IsFullyDiagonal();
  return s;
}

MncSketch MncSketch::FromMatrix(const Matrix& a, const ParallelConfig& config,
                                ThreadPool* pool) {
  if (a.is_dense()) return FromDense(a.dense());
  return FromCsr(a.csr(), config, pool);
}

MncSketch MncSketch::FromCsrParallel(const CsrMatrix& a, ThreadPool& pool) {
  ParallelConfig config;
  config.num_threads = std::max(2, pool.num_threads());
  config.min_rows_per_task = 1;  // legacy behavior: always fan out
  config.deterministic = false;
  return FromCsr(a, config, &pool);
}

double MncSketch::Sparsity() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz_) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

MncSketch MncSketch::ToBasic() const {
  MncSketch s = *this;
  s.her_.clear();
  s.hec_.clear();
  s.diagonal_ = false;
  return s;
}

int64_t MncSketch::SizeBytes() const {
  const int64_t vectors = static_cast<int64_t>(
      (hr_.size() + hc_.size() + her_.size() + hec_.size()) *
      sizeof(int64_t));
  return vectors + static_cast<int64_t>(sizeof(MncSketch));
}

int64_t MncSketch::MemoryBytes() const {
  const int64_t allocated = static_cast<int64_t>(
      (hr_.capacity() + hc_.capacity() + her_.capacity() + hec_.capacity()) *
      sizeof(int64_t));
  return allocated + static_cast<int64_t>(sizeof(MncSketch));
}

namespace {

struct CountSummary {
  int64_t sum = 0;
  int64_t max = 0;
  int64_t non_empty = 0;
  int64_t half_full = 0;
  int64_t single = 0;
};

// One branch-free sweep over a count vector: each statistic is a max or a
// 0/1 add, so interleaved empty and non-empty rows cost no mispredictions.
CountSummary Summarize(const std::vector<int64_t>& counts, int64_t other_dim) {
  CountSummary s;
  for (const int64_t c : counts) {
    s.sum += c;
    s.max = std::max(s.max, c);
    s.non_empty += c > 0;
    s.half_full += 2 * c > other_dim;
    s.single += c == 1;
  }
  return s;
}

}  // namespace

void MncSketch::RecomputeSummary() {
  // Propagated sketches round probabilistically, so row and column totals
  // may drift apart slightly; the row total is canonical (sketches built
  // from matrices agree on both, checked in tests).
  const CountSummary r = Summarize(hr_, cols_);
  const CountSummary c = Summarize(hc_, rows_);
  nnz_ = r.sum;
  max_hr_ = r.max;
  non_empty_rows_ = r.non_empty;
  half_full_rows_ = r.half_full;
  single_nnz_rows_ = r.single;
  max_hc_ = c.max;
  non_empty_cols_ = c.non_empty;
  half_full_cols_ = c.half_full;
  single_nnz_cols_ = c.single;
}

}  // namespace mnc

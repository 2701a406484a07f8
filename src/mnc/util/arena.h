// Reusable scratch memory for the row-wise hot paths.
//
// The Gustavson SpGEMM passes and the parallel density-map combine each need
// per-worker scratch (a dense accumulator, an occupancy bitmap, staging
// vectors). Before this layer every parallel block allocated and
// zero-initialized its own copies — O(cols) work per block that dwarfs the
// useful work for narrow blocks. A ScratchArena owns those buffers and is
// reused across rows, blocks and calls; a ScratchPool recycles arenas across
// concurrent workers so a w-thread SpGEMM allocates at most w arenas per
// process lifetime, not one per block.
//
// Clean-buffer invariant: scatter_acc() and scatter_bits() are all-zero
// whenever the arena is at rest, and scatter_list() is empty. The SpGEMM
// row accumulator (kernels::SpGemmRowAccumulator in mnc/kernels/kernels.h)
// preserves this: every gather or reset clears exactly the bitmap words and
// accumulator entries its row touched, so EnsureScatterCols() only pays a
// zero-fill when the buffers actually grow. Code that touches these buffers
// outside the accumulator must restore the invariant before the arena goes
// back to the pool.
//
// Exception safety: a Lease returned while an exception is unwinding
// *discards* its arena instead of recycling it — a throw mid-row leaves the
// scatter buffers dirty, and a dirty arena must never re-enter the pool.

#ifndef MNC_UTIL_ARENA_H_
#define MNC_UTIL_ARENA_H_

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

namespace mnc {

// Per-worker scratch buffers. Not thread-safe; one arena per worker.
class ScratchArena {
 public:
  // Grows the scatter buffers to cover `cols` columns. New space is
  // zero-filled; existing space is already zero by the clean-buffer
  // invariant, so repeat calls with the same width are free.
  void EnsureScatterCols(int64_t cols) {
    const size_t n = static_cast<size_t>(cols);
    if (scatter_acc_.size() < n) {
      scatter_acc_.resize(n, 0.0);
      scatter_bits_.resize((n + 63) / 64, 0);
    }
  }

  // Dense value accumulator and occupancy bitmap (bit j of word j / 64 set
  // when column j was touched) over the column space. All-zero on
  // acquisition (see the clean-buffer invariant above).
  double* scatter_acc() { return scatter_acc_.data(); }
  uint64_t* scatter_bits() { return scatter_bits_.data(); }

  // Touched-column list for rows whose bitmap span is too sparse to walk;
  // empty between rows, capacity retained.
  std::vector<int64_t>& scatter_list() { return scatter_list_; }

  // General staging vectors (per-block partials, Eq. 11/15 estimate
  // buffers). Resized to n with unspecified contents; capacity is retained
  // across uses.
  std::vector<double>& StageDoubles(size_t n) {
    stage_doubles_.resize(n);
    return stage_doubles_;
  }
  std::vector<char>& StageBytes(size_t n) {
    stage_bytes_.resize(n);
    return stage_bytes_;
  }

  // Integer staging (gathered count vectors for the per-row product
  // estimates). Two independent vectors so a caller can stage aligned
  // (hr, her) pairs without aliasing.
  std::vector<int64_t>& StageInts(size_t n) {
    stage_ints_.resize(n);
    return stage_ints_;
  }
  std::vector<int64_t>& StageInts2(size_t n) {
    stage_ints2_.resize(n);
    return stage_ints2_;
  }

  // Grow-only all-ones vector: the neutral operand for the count-dot /
  // density-combine kernels when one side is a gathered vector and the
  // other is implicitly 1. Callers must not modify the contents.
  const int64_t* StageOnes(size_t n) {
    if (stage_ones_.size() < n) stage_ones_.resize(n, 1);
    return stage_ones_.data();
  }

 private:
  std::vector<double> scatter_acc_;
  std::vector<uint64_t> scatter_bits_;
  std::vector<int64_t> scatter_list_;
  std::vector<double> stage_doubles_;
  std::vector<char> stage_bytes_;
  std::vector<int64_t> stage_ints_;
  std::vector<int64_t> stage_ints2_;
  std::vector<int64_t> stage_ones_;
};

// A mutex-guarded free list of arenas. Acquire() pops a recycled arena (or
// makes a fresh one); the Lease returns it on destruction.
class ScratchPool {
 public:
  class Lease {
   public:
    explicit Lease(ScratchPool* pool)
        : pool_(pool),
          arena_(pool->Pop()),
          uncaught_on_entry_(std::uncaught_exceptions()) {}

    ~Lease() {
      // Recycle only on clean exit; see the exception-safety note above.
      if (std::uncaught_exceptions() == uncaught_on_entry_) {
        pool_->Push(std::move(arena_));
      }
    }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ScratchArena& operator*() { return *arena_; }
    ScratchArena* operator->() { return arena_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<ScratchArena> arena_;
    int uncaught_on_entry_;
  };

  Lease Acquire() { return Lease(this); }

  // Process-wide pool shared by the estimator, propagation and SpGEMM entry
  // points (including service-level EstimateBatch workers, which reach it
  // transitively through those kernels).
  static ScratchPool& Global();

 private:
  friend class Lease;

  std::unique_ptr<ScratchArena> Pop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<ScratchArena> arena = std::move(free_.back());
        free_.pop_back();
        return arena;
      }
    }
    return std::make_unique<ScratchArena>();
  }

  void Push(std::unique_ptr<ScratchArena> arena) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(arena));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<ScratchArena>> free_;
};

}  // namespace mnc

#endif  // MNC_UTIL_ARENA_H_

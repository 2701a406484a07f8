// EstimationService — a thread-safe, long-lived front end for repeated
// sparsity-estimation traffic.
//
// The paper's premise is that MNC sketches are cheap to build once and
// reusable across many estimation queries (§3.3, §5); inside SystemDS the
// optimizer exploits exactly this reuse. This service provides the same
// amortization as a standalone subsystem:
//
//   - Sketch catalog: RegisterMatrix stores the MncSketch of a base matrix
//     keyed by its content fingerprint (CRC32-based, MatrixFingerprint), so
//     re-registering identical data — under the same or another name — is a
//     hit that reuses the existing sketch. Catalog entries are permanent
//     (names never disappear), but their sketches can spill: see below.
//   - Streaming registrations: RegisterMatrixStreaming builds a sketch
//     straight from files via chunked ingestion (mnc/ingest) — the matrix
//     itself is never materialized; peak memory is O(chunk + sketch). The
//     catalog leaf is a sketch-only ExprNode::SketchLeaf: estimation over
//     it works exactly as for matrix-backed leaves, while materializing
//     Execute of a DAG containing one fails with kFailedPrecondition.
//   - Spill-to-disk catalog tier: with catalog_resident_budget_bytes > 0
//     and a spill_dir, cold sketches are evicted (LRU) to checksummed disk
//     segments (ingest::SpillStore, sketch wire format v2) when resident
//     sketch bytes exceed the budget, and transparently faulted back in on
//     the next catalog hit. A corrupted or unreadable segment degrades:
//     matrix-backed leaves silently re-sketch; sketch-only leaves fall
//     through to the fallback chain like any other MNC-path failure.
//   - Memoized propagation: every query DAG is canonicalized
//     (CanonicalizeExpr) and each sub-expression's propagated sketch is
//     memoized in a SketchMemoCache keyed by structural hash, with LRU
//     eviction under a configurable byte budget (accounted via
//     MncSketch::MemoryBytes). Two differently-parenthesized but equivalent
//     product chains share one memo entry; a repeated query is answered
//     from the root entry without propagating anything.
//   - Graceful degradation: sketch construction poisoned by the
//     "service.sketch_build" fail point (or any other failure of the MNC
//     path) degrades the query to the PR-1 FallbackEstimator chain
//     (MNC -> DMap -> MetaAC) instead of failing; a poisoned cache entry
//     (simulated by "service.memo_poison") is dropped on lookup and
//     recomputed. Only when the fallback is disabled or unusable does
//     Estimate return an error Status.
//   - Batch/concurrent API: Estimate is safe to call from many threads
//     concurrently (catalog and memo take shared locks on the read path;
//     all per-query estimator state is call-local); EstimateBatch fans a
//     batch out over an internal thread pool and returns per-query
//     StatusOr results in order.
//
// Determinism: propagation uses the configured rounding mode with an Rng
// seeded per node from the node's structural hash, so a given canonical
// expression always propagates to the same sketch regardless of thread
// interleaving or cache state — memoization never changes answers.

#ifndef MNC_SERVICE_ESTIMATION_SERVICE_H_
#define MNC_SERVICE_ESTIMATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mnc/core/mnc_propagation.h"
#include "mnc/core/mnc_sketch.h"
#include "mnc/ingest/spill_store.h"
#include "mnc/ir/expr.h"
#include "mnc/ir/expr_hash.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/service/packed_operand.h"
#include "mnc/service/plan_cache.h"
#include "mnc/service/sketch_cache.h"
#include "mnc/util/deadline.h"
#include "mnc/util/parallel.h"
#include "mnc/util/status.h"
#include "mnc/util/thread_pool.h"

namespace mnc {

struct EstimationServiceOptions {
  // Memo-table budget in bytes; <= 0 disables sub-expression memoization
  // (the catalog still works).
  int64_t memo_budget_bytes = 8LL << 20;  // 8 MB

  // Threads for EstimateBatch; <= 0 selects the hardware concurrency.
  int num_threads = 0;

  // Degrade to the FallbackEstimator chain when the MNC path fails; when
  // false such queries return an error Status instead.
  bool enable_fallback = true;

  // Seed mixed into the per-node propagation Rngs.
  uint64_t seed = 42;

  // Rounding for propagated count vectors (§3.3). Probabilistic rounding is
  // the paper's choice; determinism across repeated queries is preserved
  // anyway because the Rng is re-seeded per node from the structural hash.
  RoundingMode rounding = RoundingMode::kProbabilistic;

  // Intra-query parallelism. The default (num_threads == 1) runs every
  // kernel sequentially and reproduces the historical estimates exactly.
  // With num_threads != 1, sketch construction, Algorithm 1 estimation and
  // Eq. 11/15 propagation run on the internal pool; propagation then draws
  // from per-block PRNG streams seeded from (node_hash ^ seed), so results
  // stay deterministic at any thread count (see mnc/util/parallel.h) but
  // are distribution-equal — not draw-for-draw equal — to the sequential
  // default.
  ParallelConfig parallel;

  // Resident-sketch byte budget for the catalog spill tier; <= 0 (default)
  // keeps every sketch resident. Spilling requires spill_dir too: evicting
  // without a segment store would lose sketches, so a positive budget with
  // an empty spill_dir is ignored.
  int64_t catalog_resident_budget_bytes = 0;

  // Directory for spill segments (created on first use); empty disables the
  // spill tier.
  std::string spill_dir;

  // Triplets per chunk for RegisterMatrixStreaming (the peak-memory knob of
  // streaming ingestion).
  int64_t ingest_chunk_entries = int64_t{1} << 16;

  // Sketch-guided execution for Execute/ExecuteSource: products are
  // pre-sized and format-dispatched from cataloged/propagated sketches (see
  // mnc/ir/evaluator.h). Values are bit-identical with the flag on or off;
  // only performance and the guided counters in ServiceStats change.
  bool guided_exec = false;

  // Machine calibration profile (mnc/tuning/machine_profile.h, produced by
  // `mnc_tool calibrate`): steers seq-vs-par dispatch of sketch build /
  // estimation / propagation / SpGEMM and the guided-execution break-evens
  // for this service instance. nullptr falls back to the process-wide
  // active profile (lazily loaded from disk), then to the built-in
  // constants. Purely a performance knob — every profile-driven choice is
  // bit-identical to the uncalibrated path.
  std::shared_ptr<const tuning::MachineProfile> profile;

  // Warm-path plan cache byte budget (mnc/service/plan_cache.h): repeated
  // guided Execute over the same expression + operands replays recorded
  // decisions and skips sketch propagation and per-row estimation entirely.
  // <= 0 disables; only effective together with guided_exec (plans record
  // guided decisions). Replayed results are bit-identical to cold guided
  // execution (enforced by the differential harness).
  int64_t plan_cache_budget_bytes = 16LL << 20;  // 16 MB

  // Packed-operand store byte budget (mnc/service/packed_operand.h):
  // per-operand packing — format verdict, leaf row table, cached exact
  // transpose — precomputed at RegisterMatrix time. <= 0 disables.
  int64_t packed_operand_budget_bytes = 32LL << 20;  // 32 MB
};

struct EstimateResult {
  double sparsity = 1.0;
  int64_t rows = 0;
  int64_t cols = 0;
  // True when the root answer came straight from the memo table (or the
  // catalog, for a bare leaf query) without any propagation.
  bool memo_hit = false;
  // "mnc" for the precise path, "memo" for a root cache hit, otherwise the
  // fallback tier that served ("DMap", "MetaAC", ...).
  std::string served_by;
};

struct ServiceStats {
  // Catalog.
  int64_t registered_names = 0;
  int64_t registered_sketches = 0;  // distinct fingerprints
  int64_t register_dedup_hits = 0;  // RegisterMatrix found existing content
  int64_t catalog_hits = 0;         // query leaves served from the catalog
  int64_t catalog_misses = 0;       // query leaves sketched on the fly
  // Queries.
  int64_t estimates = 0;
  int64_t batch_queries = 0;
  int64_t fallback_estimates = 0;
  int64_t failed_estimates = 0;
  // Execution.
  int64_t executions = 0;
  GuidedExecStats guided;
  // Warm-path plan cache + packed-operand store.
  int64_t plan_hits = 0;
  int64_t plan_canonical_hits = 0;  // second-chance hits (also in plan_hits)
  int64_t plan_misses = 0;
  int64_t plan_invalidations = 0;  // dropped by an invalidation edge
  int64_t plan_entries = 0;
  int64_t plan_bytes = 0;
  int64_t packed_operands = 0;
  int64_t packed_operand_bytes = 0;
  // Memo table.
  SketchMemoStats memo;
  // Streaming ingestion and the spill tier.
  int64_t streaming_registrations = 0;  // RegisterMatrixStreaming successes
  int64_t resident_bytes = 0;           // bytes of sketches currently in RAM
  int64_t spilled_sketches = 0;         // entries currently on disk only
  int64_t catalog_spills = 0;           // cumulative evictions to disk
  int64_t catalog_faults = 0;           // cumulative fault-backs from disk
  int64_t spill_read_failures = 0;
  int64_t spill_write_failures = 0;
};

// Multi-file composition mode for RegisterMatrixStreaming.
struct StreamRegisterOptions {
  enum class MultiFile {
    kRBind,  // files are row shards, concatenated vertically
    kUnion,  // files are same-shaped pieces of one matrix, added
  };
  MultiFile multi = MultiFile::kRBind;
};

class EstimationService {
 public:
  explicit EstimationService(EstimationServiceOptions options = {});

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // Registers `m` under `name`, building its MNC sketch unless a matrix
  // with identical content is already cataloged (then the existing sketch
  // and leaf are reused and the name becomes an alias). Returns the catalog
  // leaf to build query expressions from. Re-registering an existing name
  // rebinds it. Fails (kUnavailable) when sketch construction is poisoned
  // by the "service.sketch_build" fail point.
  StatusOr<ExprPtr> RegisterMatrix(const std::string& name, const Matrix& m);

  // Registers the matrix stored in `path` (Matrix-Market or MNCT binary
  // triplets, sniffed) under `name` by streaming ingestion: the sketch is
  // built in O(chunk + sketch) memory and the matrix is never materialized.
  // Content-dedups against earlier streaming registrations via
  // ingest::SketchFingerprint (a space disjoint from MatrixFingerprint).
  // Returns a sketch-only catalog leaf.
  StatusOr<ExprPtr> RegisterMatrixStreaming(const std::string& name,
                                            const std::string& path);

  // Multi-file form: row shards concatenated (kRBind, tolerant merge — the
  // result then carries no extension vectors) or same-shaped pieces added
  // (kUnion, exact for disjoint supports).
  StatusOr<ExprPtr> RegisterMatrixStreaming(
      const std::string& name, const std::vector<std::string>& paths,
      const StreamRegisterOptions& opts);

  // The catalog leaf registered under `name`, or null when absent.
  ExprPtr LookupLeaf(const std::string& name) const;

  // The cataloged sketch for `name`, faulting it back from its spill
  // segment if evicted. kNotFound for unknown names; a spilled sketch whose
  // segment is unreadable surfaces that read error (after a matrix-backed
  // re-sketch attempt, when possible).
  StatusOr<std::shared_ptr<const MncSketch>> LookupSketch(
      const std::string& name);

  // Estimates the output sparsity of the DAG rooted at `root`. Leaves need
  // not be registered (unregistered leaves are fingerprinted and sketched
  // per query, and their sketches memoized like any sub-expression).
  //
  // A non-null `ctx` bounds the request: the deadline/cancel token is
  // checked cooperatively before every node's sketch is computed, and an
  // expired request returns kDeadlineExceeded from the next node boundary.
  // Deadline failures never degrade to the fallback chain and are never
  // memoized; work already stored in catalog/memo stays valid.
  StatusOr<EstimateResult> Estimate(const ExprPtr& root,
                                    const RequestContext* ctx = nullptr);

  // Parses `source` (expression or multi-statement script, see
  // mnc/lang/parser.h) over the registered matrices and estimates it.
  StatusOr<EstimateResult> EstimateSource(const std::string& source,
                                          const RequestContext* ctx = nullptr);

  // Estimates a batch concurrently on the internal pool; results align with
  // `roots` (null roots yield kInvalidArgument entries). The shared `ctx`
  // bounds the whole batch: entries dispatched after expiry return
  // kDeadlineExceeded without computing anything.
  std::vector<StatusOr<EstimateResult>> EstimateBatch(
      const std::vector<ExprPtr>& roots, const RequestContext* ctx = nullptr);

  // Evaluates the DAG on the internal pool. With options.guided_exec set,
  // execution is sketch-guided: cataloged leaf sketches are reused (ad-hoc
  // leaves are sketched on the fly) and every product consults the
  // estimates; the guided counters are folded into stats(). Values are
  // identical either way. `ctx` is checked at the execution boundary
  // (evaluation itself is not interrupted mid-kernel).
  StatusOr<Matrix> Execute(const ExprPtr& root,
                           const RequestContext* ctx = nullptr);

  // Parses `source` over the registered matrices and executes it.
  StatusOr<Matrix> ExecuteSource(const std::string& source,
                                 const RequestContext* ctx = nullptr);

  ServiceStats stats() const;
  void ClearMemo() { memo_.Clear(); }

  // Drops every catalog entry (names, fingerprints, storage keys, resident
  // bytes) along with every packed operand and cached plan — the coarse
  // invalidation edge. Spill segments already on disk are left behind;
  // cleared entries can never reference them again. Roots held by callers
  // stay executable (their leaves pin the matrices), they just lose warm
  // service state.
  void ClearCatalog();

  const EstimationServiceOptions& options() const { return options_; }

 private:
  struct CatalogEntry {
    std::string first_name;  // first name this content was registered under
    uint64_t fingerprint = 0;
    ExprPtr leaf;
    bool streaming = false;    // sketch-only leaf (no backing matrix)
    int64_t sketch_bytes = 0;  // MemoryBytes of the sketch, for the budget

    // Mutable under catalog_mu_ (exclusive): null while spilled to disk.
    std::shared_ptr<const MncSketch> sketch;
    // A spill segment for this fingerprint exists on disk; re-evicting a
    // faulted-back entry is then free (the pointer is just dropped).
    bool spilled = false;
    // LRU clock for eviction; atomic so catalog hits can touch it under the
    // shared lock.
    std::atomic<uint64_t> last_use{0};
  };

  struct QueryCtx {
    ExprHasher hasher;
    LeafFingerprintFn resolver;
    // Per-query pointer-keyed cache so shared subtrees resolve once.
    std::unordered_map<const ExprNode*, std::shared_ptr<const MncSketch>>
        local;
    // Request bounds (deadline/cancellation); may be null.
    const RequestContext* request = nullptr;

    explicit QueryCtx(LeafFingerprintFn fn, const RequestContext* rc = nullptr)
        : hasher(fn), resolver(std::move(fn)), request(rc) {}
  };

  LeafFingerprintFn MakeResolver() const;

  // Parses `source` over a shared-lock snapshot of the catalog leaves
  // (matrix-backed and sketch-only alike), so repeated sources share DAG
  // identity with the catalog and with each other. A parse failure is
  // kInvalidArgument "parse error: ...". Shared by EstimateSource and
  // ExecuteSource.
  StatusOr<ExprPtr> ParseSource(const std::string& source) const;

  // Registers a streaming-built sketch under `name` (shared tail of the
  // RegisterMatrixStreaming overloads).
  StatusOr<ExprPtr> RegisterSketch(const std::string& name, MncSketch sketch);

  // Bumps the entry's LRU clock (safe under the shared lock).
  void TouchEntry(CatalogEntry& entry) const;

  // Restores a spilled entry's sketch from its segment; `entry->leaf` is
  // used to re-sketch from the backing matrix when the segment is
  // unreadable. Takes catalog_mu_ internally (caller must NOT hold it).
  StatusOr<std::shared_ptr<const MncSketch>> FaultBackSketch(
      const std::shared_ptr<CatalogEntry>& entry);

  // Evicts least-recently-used resident sketches (never `keep`) until the
  // resident total fits the budget. Requires catalog_mu_ held exclusively.
  // A failed segment write stops eviction (budget temporarily exceeded)
  // rather than dropping an unreplicated sketch.
  void EnforceCatalogBudgetLocked(const CatalogEntry* keep);

  // Sketch of `node`, via catalog/memo or by building/propagating.
  StatusOr<std::shared_ptr<const MncSketch>> ComputeSketch(
      const ExprPtr& node, QueryCtx& ctx);

  // Stores a computed sketch in the memo table under `hash`; the
  // "service.memo_poison" fail point corrupts the stored estimate so tests
  // can exercise the cache's poisoned-entry drop path.
  void InsertMemo(uint64_t hash, const ExprPtr& canonical,
                  const std::shared_ptr<const MncSketch>& sketch);

  // Derives the sketch of a non-leaf canonical node from its children's
  // sketches (deterministic per node: Rng seeded from the structural hash).
  MncSketch PropagateNode(const ExprPtr& node, uint64_t node_hash,
                          const MncSketch& left,
                          const MncSketch* right) const;

  StatusOr<EstimateResult> EstimateDegraded(const ExprPtr& canonical,
                                            const Status& cause);

  // The calibration profile token plans are recorded/validated under: the
  // instance profile, else the process-wide active profile pointer. A
  // change of active profile flips the token and invalidates at lookup.
  const void* ProfileToken() const;

  // Evaluator hook resolving a cataloged leaf's pre-packed transpose (null
  // hook when the packed store is disabled).
  std::function<std::shared_ptr<const Matrix>(const ExprNode&)>
  MakeTransposeHook();

  // Evaluator hook resolving cataloged leaf sketches for guided execution.
  std::function<std::shared_ptr<const MncSketch>(const ExprNode&)>
  MakeLeafSketchHook();

  // Assembles and inserts the plan recorded during a cold guided Execute.
  void RecordPlan(uint64_t key, const ExprPtr& root,
                  const LeafFingerprintFn& resolver, const void* profile_token,
                  std::unordered_map<const ExprNode*, ProductPlanEntry>
                      products,
                  const Evaluator& evaluator);

  const EstimationServiceOptions options_;

  mutable std::shared_mutex catalog_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<CatalogEntry>> by_fp_;
  std::unordered_map<std::string, std::shared_ptr<CatalogEntry>> by_name_;
  // Spill tier (null when disabled); guarded by catalog_mu_ together with
  // the residency bookkeeping below.
  std::unique_ptr<ingest::SpillStore> spill_;
  int64_t resident_bytes_ = 0;
  // Storage-block identity -> fingerprint for registered matrices: lets
  // query leaves that share storage with a cataloged matrix (e.g. parser
  // bindings) skip the O(nnz) fingerprint rescan. Keys stay valid because
  // catalog entries pin the storage.
  std::unordered_map<const void*, uint64_t> storage_fp_;

  SketchMemoCache memo_;
  // Warm-path serving tier: recorded execution plans keyed by raw
  // structural hash, and per-operand packing keyed by fingerprint. Their
  // internal locks are only ever acquired after (never before) catalog_mu_.
  PlanCache plan_cache_;
  PackedOperandStore packed_;
  // mutable: the pool carries no logical service state, and const query
  // paths (PropagateNode) schedule work on it.
  mutable ThreadPool pool_;

  mutable std::atomic<int64_t> register_dedup_hits_{0};
  mutable std::atomic<int64_t> catalog_hits_{0};
  mutable std::atomic<int64_t> catalog_misses_{0};
  mutable std::atomic<int64_t> estimates_{0};
  mutable std::atomic<int64_t> batch_queries_{0};
  mutable std::atomic<int64_t> fallback_estimates_{0};
  mutable std::atomic<int64_t> failed_estimates_{0};
  mutable std::atomic<int64_t> executions_{0};
  mutable std::atomic<int64_t> streaming_registrations_{0};
  mutable std::atomic<int64_t> catalog_spills_{0};
  mutable std::atomic<int64_t> catalog_faults_{0};
  mutable std::atomic<int64_t> spill_read_failures_{0};
  mutable std::atomic<int64_t> spill_write_failures_{0};
  // LRU clock source for CatalogEntry::last_use.
  mutable std::atomic<uint64_t> use_tick_{0};

  // Guided-execution counters merged from per-call Evaluators.
  mutable std::mutex exec_mu_;
  GuidedExecStats guided_stats_;
};

}  // namespace mnc

#endif  // MNC_SERVICE_ESTIMATION_SERVICE_H_

#include "mnc/service/estimation_service.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>
#include <utility>

#include "mnc/estimators/fallback_estimator.h"
#include "mnc/ingest/stream_sketch.h"
#include "mnc/ir/evaluator.h"
#include "mnc/ir/sketch_propagator.h"
#include "mnc/lang/parser.h"
#include "mnc/tuning/machine_profile.h"
#include "mnc/util/fail_point.h"
#include "mnc/util/random.h"

namespace mnc {

namespace {

// Fail point poisoning sketch construction (RegisterMatrix and on-the-fly
// leaf sketching inside queries).
constexpr char kSketchBuildFailPoint[] = "service.sketch_build";
// Fail point corrupting the sparsity stored with a memo entry; the cache's
// sanity check drops such entries on the next lookup.
constexpr char kMemoPoisonFailPoint[] = "service.memo_poison";
// Fail point breaking catalog sketch reads: a registered leaf behaves as if
// its cataloged sketch were unreadable, failing the MNC tier for the query.
// This is the knob that lets the serving tier demonstrate degraded-but-
// served responses for expressions whose leaves are all registered (the
// common case over the wire), where sketch_build never fires.
constexpr char kCatalogReadFailPoint[] = "service.catalog_read";

}  // namespace

namespace {

// Attaches the instance profile to the parallel config so every sketch
// build / estimate / propagation the service runs dispatches through the
// calibrated crossovers (the options struct keeps the shared_ptr alive).
EstimationServiceOptions WithProfileAttached(EstimationServiceOptions o) {
  if (o.profile != nullptr) o.parallel.profile = o.profile.get();
  return o;
}

}  // namespace

EstimationService::EstimationService(EstimationServiceOptions options)
    : options_(WithProfileAttached(std::move(options))),
      memo_(options_.memo_budget_bytes),
      plan_cache_(options_.plan_cache_budget_bytes),
      packed_(options_.packed_operand_budget_bytes),
      pool_(options_.num_threads) {
  if (options_.catalog_resident_budget_bytes > 0 &&
      !options_.spill_dir.empty()) {
    auto store = ingest::SpillStore::Open(options_.spill_dir);
    if (store.ok()) {
      spill_ = std::make_unique<ingest::SpillStore>(std::move(store.value()));
    }
    // An unopenable spill directory disables the tier (budget unenforced)
    // rather than failing construction: the service still serves, it just
    // cannot bound resident sketch bytes.
  }
}

LeafFingerprintFn EstimationService::MakeResolver() const {
  // Per-query storage-key cache: one query's hasher, equality checks, and
  // memo lookups may all ask for the same leaf's fingerprint.
  auto cache = std::make_shared<std::unordered_map<const void*, uint64_t>>();
  return [this, cache](const ExprNode& leaf) -> uint64_t {
    // Sketch-only leaves (streaming registrations) carry their catalog
    // fingerprint; there is no storage to key on.
    if (!leaf.has_matrix()) return leaf.leaf_fingerprint();
    const void* key = leaf.matrix().storage_key();
    if (auto it = cache->find(key); it != cache->end()) return it->second;
    uint64_t fp = 0;
    bool found = false;
    {
      std::shared_lock<std::shared_mutex> lock(catalog_mu_);
      if (auto it = storage_fp_.find(key); it != storage_fp_.end()) {
        fp = it->second;
        found = true;
      }
    }
    if (!found) fp = MatrixFingerprint(leaf.matrix());
    cache->emplace(key, fp);
    return fp;
  };
}

StatusOr<ExprPtr> EstimationService::RegisterMatrix(const std::string& name,
                                                    const Matrix& m) {
  const uint64_t fp = MatrixFingerprint(m);

  std::shared_ptr<CatalogEntry> entry;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    if (auto it = by_fp_.find(fp); it != by_fp_.end()) entry = it->second;
  }

  std::shared_ptr<CatalogEntry> fresh;
  if (entry == nullptr) {
    if (MncFailPointArmed(kSketchBuildFailPoint)) {
      return Status::Unavailable("fail point " +
                                 std::string(kSketchBuildFailPoint) +
                                 ": sketch construction failed")
          .WithContext("register '" + name + "'");
    }
    auto built = std::make_shared<CatalogEntry>();
    built->first_name = name;
    built->fingerprint = fp;
    built->leaf = ExprNode::Leaf(m, name);
    built->sketch = std::make_shared<const MncSketch>(
        MncSketch::FromMatrix(m, options_.parallel, &pool_));
    built->sketch_bytes = built->sketch->MemoryBytes();
    fresh = std::move(built);
  }

  std::shared_ptr<const MncSketch> pack_sketch;
  {
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    if (auto it = by_fp_.find(fp); it != by_fp_.end()) {
      // Found first time around, or a racing registration beat us.
      entry = it->second;
      register_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entry = fresh;
      by_fp_.emplace(fp, entry);
      resident_bytes_ += entry->sketch_bytes;
    }
    by_name_[name] = entry;
    // Only the entry's own leaf pins its storage; a deduplicated caller
    // matrix may be freed after this call, so its storage key must not be
    // remembered (the address could be recycled by an unrelated matrix).
    storage_fp_[entry->leaf->matrix().storage_key()] = entry->fingerprint;
    TouchEntry(*entry);
    EnforceCatalogBudgetLocked(entry.get());
    pack_sketch = entry->sketch;  // null when already spilled again
  }
  // Re-registration under this fingerprint is an invalidation edge:
  // dependent plans are dropped (conservative refresh — the content is
  // byte-equal, but the contract keeps every registration event airtight)
  // and the packed analysis is rebuilt from the current sketch.
  plan_cache_.InvalidateFingerprint(fp);
  if (pack_sketch != nullptr) {
    packed_.BuildAndInsert(fp, entry->leaf->matrix(), *pack_sketch);
  }
  return entry->leaf;
}

StatusOr<ExprPtr> EstimationService::RegisterMatrixStreaming(
    const std::string& name, const std::string& path) {
  return RegisterMatrixStreaming(name, std::vector<std::string>{path},
                                 StreamRegisterOptions{});
}

StatusOr<ExprPtr> EstimationService::RegisterMatrixStreaming(
    const std::string& name, const std::vector<std::string>& paths,
    const StreamRegisterOptions& opts) {
  if (paths.empty()) {
    return Status::InvalidArgument("streaming registration of '" + name +
                                   "' needs at least one path");
  }
  if (MncFailPointArmed(kSketchBuildFailPoint)) {
    return Status::Unavailable("fail point " +
                               std::string(kSketchBuildFailPoint) +
                               ": sketch construction failed")
        .WithContext("register-streaming '" + name + "'");
  }
  ingest::StreamSketchOptions sopts;
  sopts.chunk_entries = options_.ingest_chunk_entries;
  sopts.parallel = options_.parallel;
  sopts.pool = &pool_;

  StatusOr<MncSketch> sketch = Status::Internal("unreachable");
  if (paths.size() == 1) {
    auto src = ingest::OpenTripletSource(paths.front());
    if (!src.ok()) {
      return src.status().WithContext("register-streaming '" + name + "'");
    }
    sketch = ingest::BuildSketchStreaming(*src.value(), sopts);
  } else if (opts.multi == StreamRegisterOptions::MultiFile::kRBind) {
    sketch = ingest::BuildSketchFromRowShards(paths, sopts);
  } else {
    sketch = ingest::BuildSketchUnion(paths, sopts);
  }
  if (!sketch.ok()) {
    return sketch.status().WithContext("register-streaming '" + name + "'");
  }
  return RegisterSketch(name, std::move(sketch).value());
}

StatusOr<ExprPtr> EstimationService::RegisterSketch(const std::string& name,
                                                    MncSketch sketch) {
  const uint64_t fp = ingest::SketchFingerprint(sketch);
  auto fresh = std::make_shared<CatalogEntry>();
  fresh->first_name = name;
  fresh->fingerprint = fp;
  fresh->leaf = ExprNode::SketchLeaf(name, sketch.rows(), sketch.cols(), fp);
  fresh->streaming = true;
  fresh->sketch = std::make_shared<const MncSketch>(std::move(sketch));
  fresh->sketch_bytes = fresh->sketch->MemoryBytes();

  std::shared_ptr<CatalogEntry> entry;
  {
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    if (auto it = by_fp_.find(fp); it != by_fp_.end()) {
      entry = it->second;
      register_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
      // A dedup hit may fault a spilled entry back for free — the freshly
      // built sketch is the same content.
      if (entry->sketch == nullptr) {
        entry->sketch = fresh->sketch;
        resident_bytes_ += entry->sketch_bytes;
      }
    } else {
      entry = fresh;
      by_fp_.emplace(fp, entry);
      resident_bytes_ += entry->sketch_bytes;
    }
    by_name_[name] = entry;
    TouchEntry(*entry);
    EnforceCatalogBudgetLocked(entry.get());
  }
  streaming_registrations_.fetch_add(1, std::memory_order_relaxed);
  return entry->leaf;
}

ExprPtr EstimationService::LookupLeaf(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = by_name_.find(name);
  return it != by_name_.end() ? it->second->leaf : nullptr;
}

StatusOr<std::shared_ptr<const MncSketch>> EstimationService::LookupSketch(
    const std::string& name) {
  std::shared_ptr<CatalogEntry> entry;
  std::shared_ptr<const MncSketch> sketch;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      return Status::NotFound("no matrix registered under '" + name + "'");
    }
    entry = it->second;
    sketch = entry->sketch;
    TouchEntry(*entry);
  }
  if (sketch != nullptr) return sketch;
  return FaultBackSketch(entry);
}

void EstimationService::TouchEntry(CatalogEntry& entry) const {
  entry.last_use.store(use_tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
}

void EstimationService::EnforceCatalogBudgetLocked(const CatalogEntry* keep) {
  if (spill_ == nullptr || options_.catalog_resident_budget_bytes <= 0) return;
  while (resident_bytes_ > options_.catalog_resident_budget_bytes) {
    // Linear LRU scan: the catalog holds one entry per registered matrix,
    // so evictions are rare and small next to the sketch IO they trigger.
    CatalogEntry* victim = nullptr;
    uint64_t victim_use = 0;
    for (auto& [fp, e] : by_fp_) {
      if (e->sketch == nullptr || e.get() == keep) continue;
      const uint64_t use = e->last_use.load(std::memory_order_relaxed);
      if (victim == nullptr || use < victim_use) {
        victim = e.get();
        victim_use = use;
      }
    }
    if (victim == nullptr) break;  // nothing evictable (keep may exceed alone)
    if (!victim->spilled) {
      const Status written = spill_->Write(victim->fingerprint, *victim->sketch);
      if (!written.ok()) {
        // Graceful: keep the sketch resident (over budget) rather than
        // dropping the only copy. The next enforcement retries.
        spill_write_failures_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      victim->spilled = true;
    }
    victim->sketch.reset();
    resident_bytes_ -= victim->sketch_bytes;
    catalog_spills_.fetch_add(1, std::memory_order_relaxed);
    // Spill eviction is an invalidation edge: plans and packed analysis
    // derived from the evicted sketch are dropped with it. (Lock order:
    // catalog_mu_ is held here; the plan/packed locks nest strictly inside
    // it, never the other way around.)
    plan_cache_.InvalidateFingerprint(victim->fingerprint);
    packed_.Erase(victim->fingerprint);
  }
}

StatusOr<std::shared_ptr<const MncSketch>> EstimationService::FaultBackSketch(
    const std::shared_ptr<CatalogEntry>& entry) {
  if (spill_ == nullptr) {
    return Status::Internal("sketch for '" + entry->first_name +
                            "' is missing with no spill tier configured");
  }
  // Segment IO happens outside the catalog lock; racing faulters may both
  // read the segment, but only the first installs (the other adopts it).
  StatusOr<MncSketch> read = spill_->Read(entry->fingerprint);
  if (read.ok()) {
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    if (entry->sketch == nullptr) {
      entry->sketch =
          std::make_shared<const MncSketch>(std::move(read).value());
      resident_bytes_ += entry->sketch_bytes;
      catalog_faults_.fetch_add(1, std::memory_order_relaxed);
      TouchEntry(*entry);
      // The segment stays on disk (entry->spilled remains true): re-evicting
      // this entry later is a free pointer drop.
      EnforceCatalogBudgetLocked(entry.get());
    }
    return entry->sketch;
  }
  spill_read_failures_.fetch_add(1, std::memory_order_relaxed);

  // Degraded path: a matrix-backed entry can rebuild its sketch from the
  // matrix it pins; the corrupt segment is dropped so the next eviction
  // rewrites it. Sketch-only entries have nothing to rebuild from.
  if (entry->leaf != nullptr && entry->leaf->has_matrix()) {
    if (MncFailPointArmed(kSketchBuildFailPoint)) {
      return Status::Unavailable(
          "fail point " + std::string(kSketchBuildFailPoint) +
          ": sketch reconstruction failed for '" + entry->first_name + "'")
          .WithContext(read.status().message());
    }
    auto rebuilt = std::make_shared<const MncSketch>(MncSketch::FromMatrix(
        entry->leaf->matrix(), options_.parallel, &pool_));
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    if (entry->sketch == nullptr) {
      entry->sketch = rebuilt;
      resident_bytes_ += entry->sketch_bytes;
      (void)spill_->Remove(entry->fingerprint);
      entry->spilled = false;
      TouchEntry(*entry);
      EnforceCatalogBudgetLocked(entry.get());
    }
    return entry->sketch;
  }
  return read.status().WithContext("sketch for '" + entry->first_name +
                                   "' is spilled and its segment is "
                                   "unreadable");
}

StatusOr<std::shared_ptr<const MncSketch>> EstimationService::ComputeSketch(
    const ExprPtr& node, QueryCtx& ctx) {
  // Cooperative deadline/cancellation boundary: one check per node keeps
  // the overhead negligible next to sketch builds and propagation, yet an
  // expired request stops before starting any further O(nnz) work.
  if (ctx.request != nullptr) {
    MNC_RETURN_IF_ERROR(ctx.request->Check("estimate"));
  }
  if (auto it = ctx.local.find(node.get()); it != ctx.local.end()) {
    return it->second;
  }

  std::shared_ptr<const MncSketch> sketch;
  if (node->is_leaf()) {
    const uint64_t fp = ctx.resolver(*node);
    std::shared_ptr<CatalogEntry> entry;
    {
      std::shared_lock<std::shared_mutex> lock(catalog_mu_);
      if (auto it = by_fp_.find(fp); it != by_fp_.end()) {
        entry = it->second;
        sketch = entry->sketch;
        TouchEntry(*entry);
      }
    }
    if (entry != nullptr && sketch == nullptr) {
      // Catalog hit on a spilled entry: fault the sketch back in from its
      // disk segment (or degrade — re-sketch / typed error — if that
      // fails). Counted as a hit either way: the catalog knew the leaf.
      auto faulted = FaultBackSketch(entry);
      if (!faulted.ok()) {
        catalog_hits_.fetch_add(1, std::memory_order_relaxed);
        return faulted.status();
      }
      sketch = std::move(faulted).value();
    }
    if (sketch != nullptr && MncFailPointArmed(kCatalogReadFailPoint)) {
      return Status::Unavailable(
          "fail point " + std::string(kCatalogReadFailPoint) +
          ": cataloged sketch unavailable for leaf '" + node->name() + "'");
    }
    if (sketch != nullptr) {
      catalog_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      catalog_misses_.fetch_add(1, std::memory_order_relaxed);
      // A sketch-only leaf that is not in this service's catalog cannot be
      // sketched on the fly — there is no matrix to read.
      if (!node->has_matrix()) {
        return Status::Unavailable(
            "sketch-only leaf '" + node->name() +
            "' is not in the catalog and has no backing matrix to sketch");
      }
      // Unregistered leaves are memoized like any sub-expression, so a
      // repeated ad-hoc query still skips the O(nnz) sketch build.
      const uint64_t h = ctx.hasher.Hash(node);
      if (auto hit = memo_.Lookup(h, node, ctx.resolver)) {
        sketch = hit->sketch;
      } else {
        if (MncFailPointArmed(kSketchBuildFailPoint)) {
          return Status::Unavailable(
              "fail point " + std::string(kSketchBuildFailPoint) +
              ": sketch construction failed for leaf '" + node->name() + "'");
        }
        sketch = std::make_shared<const MncSketch>(
            MncSketch::FromMatrix(node->matrix(), options_.parallel, &pool_));
        InsertMemo(h, node, sketch);
      }
    }
  } else {
    const uint64_t h = ctx.hasher.Hash(node);
    if (auto hit = memo_.Lookup(h, node, ctx.resolver)) {
      sketch = hit->sketch;
    } else {
      MNC_ASSIGN_OR_RETURN(std::shared_ptr<const MncSketch> left,
                           ComputeSketch(node->left(), ctx));
      std::shared_ptr<const MncSketch> right;
      if (node->right() != nullptr) {
        MNC_ASSIGN_OR_RETURN(right, ComputeSketch(node->right(), ctx));
      }
      sketch = std::make_shared<const MncSketch>(
          PropagateNode(node, h, *left, right.get()));
      InsertMemo(h, node, sketch);
    }
  }

  ctx.local.emplace(node.get(), sketch);
  return sketch;
}

void EstimationService::InsertMemo(
    uint64_t hash, const ExprPtr& canonical,
    const std::shared_ptr<const MncSketch>& sketch) {
  SketchMemoCache::Entry entry;
  entry.canonical = canonical;
  entry.sketch = sketch;
  entry.sparsity = sketch->Sparsity();
  if (MncFailPointArmed(kMemoPoisonFailPoint)) {
    entry.sparsity = std::nan("");
  }
  memo_.Insert(hash, std::move(entry));
}

MncSketch EstimationService::PropagateNode(const ExprPtr& node,
                                           uint64_t node_hash,
                                           const MncSketch& left,
                                           const MncSketch* right) const {
  // Seeding from the structural hash makes propagation a pure function of
  // the canonical node: repeated/concurrent queries agree with each other
  // and with whatever the memo table holds. The parallel overloads keep the
  // same property: the seed (not an Rng) crosses the API boundary and each
  // block derives its own stream from it, so no PRNG state is ever shared
  // between tasks.
  return PropagateNodeSketch(*node, left, right, node_hash ^ options_.seed,
                             options_.rounding, options_.parallel, &pool_);
}

StatusOr<EstimateResult> EstimationService::Estimate(
    const ExprPtr& root, const RequestContext* request) {
  estimates_.fetch_add(1, std::memory_order_relaxed);
  if (root == nullptr) {
    failed_estimates_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("Estimate called with a null expression");
  }
  if (request != nullptr) {
    Status bound = request->Check("estimate");
    if (!bound.ok()) {
      failed_estimates_.fetch_add(1, std::memory_order_relaxed);
      return bound;
    }
  }

  QueryCtx ctx(MakeResolver(), request);
  const ExprPtr canonical = CanonicalizeExpr(root, ctx.resolver);

  EstimateResult result;
  result.rows = canonical->rows();
  result.cols = canonical->cols();

  if (canonical->is_leaf()) {
    auto sketch = ComputeSketch(canonical, ctx);
    if (!sketch.ok()) return EstimateDegraded(canonical, sketch.status());
    result.sparsity = (*sketch)->Sparsity();
    result.served_by = "mnc";
    return result;
  }

  // Root fast path: a repeated query is answered from the memo entry's
  // stored estimate without touching any sketch.
  const uint64_t root_hash = ctx.hasher.Hash(canonical);
  if (auto hit = memo_.Lookup(root_hash, canonical, ctx.resolver)) {
    result.sparsity = hit->sparsity;
    result.memo_hit = true;
    result.served_by = "memo";
    return result;
  }

  auto left = ComputeSketch(canonical->left(), ctx);
  if (!left.ok()) return EstimateDegraded(canonical, left.status());
  std::shared_ptr<const MncSketch> right;
  if (canonical->right() != nullptr) {
    auto r = ComputeSketch(canonical->right(), ctx);
    if (!r.ok()) return EstimateDegraded(canonical, r.status());
    right = *r;
  }

  auto root_sketch = std::make_shared<const MncSketch>(
      PropagateNode(canonical, root_hash, **left, right.get()));
  result.sparsity = root_sketch->Sparsity();
  result.served_by = "mnc";
  InsertMemo(root_hash, canonical, root_sketch);
  return result;
}

StatusOr<EstimateResult> EstimationService::EstimateDegraded(
    const ExprPtr& canonical, const Status& cause) {
  // A request that ran out of time must not be "rescued" by the fallback
  // chain: serving a late answer defeats the deadline, and the cheap tiers
  // would still add latency. The typed error propagates as-is.
  if (cause.code() == StatusCode::kDeadlineExceeded) {
    failed_estimates_.fetch_add(1, std::memory_order_relaxed);
    return cause;
  }
  if (options_.enable_fallback) {
    // Per-call estimator: FallbackEstimator carries mutable per-request
    // state, so sharing one across threads would race. Degraded results are
    // deliberately NOT memoized — once the fault clears, the precise path
    // repopulates the cache.
    FallbackEstimator fallback;
    SketchPropagator propagator(&fallback);
    const std::optional<double> sparsity =
        propagator.EstimateSparsity(canonical);
    if (sparsity.has_value() && std::isfinite(*sparsity) && *sparsity >= 0.0 &&
        *sparsity <= 1.0) {
      fallback_estimates_.fetch_add(1, std::memory_order_relaxed);
      EstimateResult result;
      result.sparsity = *sparsity;
      result.rows = canonical->rows();
      result.cols = canonical->cols();
      result.served_by = fallback.last_serving_tier().empty()
                             ? "fallback"
                             : fallback.last_serving_tier();
      return result;
    }
  }
  failed_estimates_.fetch_add(1, std::memory_order_relaxed);
  return cause.WithContext(options_.enable_fallback
                               ? "MNC path failed and fallback was unusable"
                               : "MNC path failed and fallback is disabled");
}

StatusOr<ExprPtr> EstimationService::ParseSource(
    const std::string& source) const {
  std::map<std::string, ExprPtr> leaves;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    for (const auto& [name, entry] : by_name_) {
      leaves.emplace(name, entry->leaf);
    }
  }
  ParseResult parsed = ParseProgram(source, {}, leaves);
  if (!parsed.ok()) {
    return Status::InvalidArgument("parse error: " + parsed.error);
  }
  return std::move(parsed.expr);
}

StatusOr<EstimateResult> EstimationService::EstimateSource(
    const std::string& source, const RequestContext* request) {
  const StatusOr<ExprPtr> root = ParseSource(source);
  if (!root.ok()) return root.status();
  return Estimate(*root, request);
}

const void* EstimationService::ProfileToken() const {
  if (options_.profile != nullptr) return options_.profile.get();
  return tuning::ActiveProfileRaw();
}

std::function<std::shared_ptr<const Matrix>(const ExprNode&)>
EstimationService::MakeTransposeHook() {
  if (!packed_.enabled()) return nullptr;
  return [this](const ExprNode& leaf) -> std::shared_ptr<const Matrix> {
    if (!leaf.has_matrix()) return nullptr;
    uint64_t fp = 0;
    {
      std::shared_lock<std::shared_mutex> lock(catalog_mu_);
      auto it = storage_fp_.find(leaf.matrix().storage_key());
      if (it == storage_fp_.end()) return nullptr;
      fp = it->second;
    }
    return packed_.TransposeFor(fp, leaf.matrix());
  };
}

std::function<std::shared_ptr<const MncSketch>(const ExprNode&)>
EstimationService::MakeLeafSketchHook() {
  // Leaves whose storage is cataloged reuse their registered sketches;
  // ad-hoc leaves return nullptr and are sketched by the evaluator.
  return [this](const ExprNode& leaf) -> std::shared_ptr<const MncSketch> {
    if (!leaf.has_matrix()) return nullptr;  // unreachable past ValidateDag
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    if (auto it = storage_fp_.find(leaf.matrix().storage_key());
        it != storage_fp_.end()) {
      if (auto fit = by_fp_.find(it->second); fit != by_fp_.end()) {
        return fit->second->sketch;
      }
    }
    return nullptr;
  };
}

void EstimationService::RecordPlan(
    uint64_t key, const ExprPtr& root, const LeafFingerprintFn& resolver,
    const void* profile_token,
    std::unordered_map<const ExprNode*, ProductPlanEntry> products,
    const Evaluator& evaluator) {
  auto plan = std::make_shared<CachedPlan>();
  plan->key = key;
  plan->root = root;
  // Second-chance index entry: the canonical form identifies this plan for
  // every equivalent parenthesization of the expression.
  plan->canonical_root = CanonicalizeExpr(root, resolver);
  {
    ExprHasher canonical_hasher(resolver);
    plan->canonical_key = canonical_hasher.Hash(plan->canonical_root);
  }
  plan->profile_token = profile_token;
  plan->products = std::move(products);
  // One DAG walk collects the operand fingerprints (invalidation index)
  // and the propagated intermediate summaries (diagnostics).
  std::vector<const ExprNode*> stack = {root.get()};
  std::unordered_map<const ExprNode*, bool> seen;
  std::unordered_set<uint64_t> fps;
  while (!stack.empty()) {
    const ExprNode* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !seen.emplace(node, true).second) continue;
    if (node->is_leaf()) {
      fps.insert(resolver(*node));
      continue;
    }
    if (const MncSketch* sk = evaluator.NodeSketch(node)) {
      plan->intermediates.push_back(
          PlanNodeSummary{sk->rows(), sk->cols(), sk->Sparsity()});
    }
    stack.push_back(node->left().get());
    if (node->right() != nullptr) stack.push_back(node->right().get());
  }
  plan->operand_fps.assign(fps.begin(), fps.end());
  std::sort(plan->operand_fps.begin(), plan->operand_fps.end());
  plan_cache_.Insert(std::move(plan));
}

StatusOr<Matrix> EstimationService::Execute(const ExprPtr& root,
                                            const RequestContext* request) {
  executions_.fetch_add(1, std::memory_order_relaxed);
  if (root == nullptr) {
    return Status::InvalidArgument("Execute called with a null expression");
  }
  if (request != nullptr) {
    MNC_RETURN_IF_ERROR(request->Check("execute"));
  }

  // Warm path: a structurally-equal query over the same operand contents
  // replays the recorded plan — no canonicalization, no sketch resolution
  // or propagation, no per-row estimation; products dispatch straight into
  // the kernels with their recorded decisions, bit-identical to the cold
  // guided run that recorded them.
  const bool plans_active = options_.guided_exec && plan_cache_.enabled();
  LeafFingerprintFn resolver;
  uint64_t plan_key = 0;
  const void* profile_token = nullptr;
  if (plans_active) {
    resolver = MakeResolver();
    ExprHasher hasher(resolver);
    plan_key = hasher.Hash(root);
    profile_token = ProfileToken();
    // Canonical form computed only when the raw key misses: a different
    // spelling of a recorded expression still finds its plan.
    const PlanCache::CanonicalFn canonical =
        [&root, &resolver]() -> std::pair<uint64_t, ExprPtr> {
      const ExprPtr croot = CanonicalizeExpr(root, resolver);
      ExprHasher canonical_hasher(resolver);
      return {canonical_hasher.Hash(croot), croot};
    };
    if (std::shared_ptr<const CachedPlan> plan = plan_cache_.Lookup(
            plan_key, root, resolver, profile_token, canonical)) {
      EvaluatorOptions opts;
      opts.seed = options_.seed;
      opts.rounding = options_.rounding;
      opts.profile = options_.profile;
      opts.plan_lookup =
          [plan](const ExprNode* node) -> const ProductPlanEntry* {
        auto it = plan->products.find(node);
        return it != plan->products.end() ? &it->second : nullptr;
      };
      opts.cached_transpose = MakeTransposeHook();
      // Replay executes the plan's own pinned DAG: its node identities key
      // the recorded entries and its leaves pin the operand storage.
      Evaluator evaluator(&pool_, std::move(opts));
      StatusOr<Matrix> result = evaluator.TryEvaluate(plan->root);
      {
        std::lock_guard<std::mutex> lock(exec_mu_);
        guided_stats_.MergeFrom(evaluator.guided_stats());
      }
      if (result.ok() && request != nullptr) {
        MNC_RETURN_IF_ERROR(request->Check("execute"));
      }
      return result;
    }
  }

  EvaluatorOptions opts;
  opts.guided = options_.guided_exec;
  opts.seed = options_.seed;
  opts.rounding = options_.rounding;
  opts.profile = options_.profile;
  if (options_.guided_exec) {
    opts.leaf_sketches = MakeLeafSketchHook();
  }
  opts.cached_transpose = MakeTransposeHook();
  std::unordered_map<const ExprNode*, ProductPlanEntry> recorded;
  if (plans_active) {
    opts.plan_record = [&recorded](const ExprNode* node,
                                   ProductPlanEntry entry) {
      recorded[node] = std::move(entry);
    };
  }
  // Per-call evaluator: its caches key on node identity, which is only
  // stable within one caller's DAG.
  Evaluator evaluator(&pool_, std::move(opts));
  StatusOr<Matrix> result = evaluator.TryEvaluate(root);
  if (options_.guided_exec) {
    std::lock_guard<std::mutex> lock(exec_mu_);
    guided_stats_.MergeFrom(evaluator.guided_stats());
  }
  // Evaluation is not interrupted mid-kernel, but a request whose deadline
  // passed while executing reports the typed error rather than handing a
  // late result to a caller that already gave up on it.
  if (result.ok() && request != nullptr) {
    MNC_RETURN_IF_ERROR(request->Check("execute"));
  }
  // Only fully successful cold guided executions are planned: failed and
  // deadline-exceeded runs returned above, so nothing degraded or late is
  // ever replayed.
  if (plans_active && result.ok()) {
    RecordPlan(plan_key, root, resolver, profile_token, std::move(recorded),
               evaluator);
  }
  return result;
}

void EstimationService::ClearCatalog() {
  {
    std::unique_lock<std::shared_mutex> lock(catalog_mu_);
    by_fp_.clear();
    by_name_.clear();
    storage_fp_.clear();
    resident_bytes_ = 0;
  }
  packed_.Clear();
  plan_cache_.Clear();
}

StatusOr<Matrix> EstimationService::ExecuteSource(const std::string& source,
                                                  const RequestContext* request) {
  // Sketch-only leaves parse fine here; Execute then fails with the typed
  // kFailedPrecondition from ValidateDag if the DAG actually uses one.
  const StatusOr<ExprPtr> root = ParseSource(source);
  if (!root.ok()) return root.status();
  return Execute(*root, request);
}

std::vector<StatusOr<EstimateResult>> EstimationService::EstimateBatch(
    const std::vector<ExprPtr>& roots, const RequestContext* request) {
  const int64_t n = static_cast<int64_t>(roots.size());
  batch_queries_.fetch_add(n, std::memory_order_relaxed);
  std::vector<StatusOr<EstimateResult>> results(
      roots.size(), StatusOr<EstimateResult>(
                        Status::Internal("batch entry not computed")));
  // Grain-1 chunking over-decomposes the batch (up to 4 chunks per worker)
  // so one slow query does not serialize the tail; the helping waiter in
  // ParallelFor keeps nested parallel kernels on the same pool deadlock-free.
  // Per-worker scratch (Eq. 11/15 staging, density-combine partials) is
  // reused across the batch through ScratchPool::Global(), which the
  // estimator/propagation kernels lease from internally — concurrent batch
  // workers therefore allocate at most one arena each, not one per query.
  pool_.ParallelFor(0, n, /*grain=*/1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      results[static_cast<size_t>(i)] =
          Estimate(roots[static_cast<size_t>(i)], request);
    }
  });
  return results;
}

ServiceStats EstimationService::stats() const {
  ServiceStats s;
  {
    std::shared_lock<std::shared_mutex> lock(catalog_mu_);
    s.registered_names = static_cast<int64_t>(by_name_.size());
    s.registered_sketches = static_cast<int64_t>(by_fp_.size());
    s.resident_bytes = resident_bytes_;
    for (const auto& [fp, entry] : by_fp_) {
      if (entry->sketch == nullptr) ++s.spilled_sketches;
    }
  }
  s.streaming_registrations =
      streaming_registrations_.load(std::memory_order_relaxed);
  s.catalog_spills = catalog_spills_.load(std::memory_order_relaxed);
  s.catalog_faults = catalog_faults_.load(std::memory_order_relaxed);
  s.spill_read_failures =
      spill_read_failures_.load(std::memory_order_relaxed);
  s.spill_write_failures =
      spill_write_failures_.load(std::memory_order_relaxed);
  s.register_dedup_hits = register_dedup_hits_.load(std::memory_order_relaxed);
  s.catalog_hits = catalog_hits_.load(std::memory_order_relaxed);
  s.catalog_misses = catalog_misses_.load(std::memory_order_relaxed);
  s.estimates = estimates_.load(std::memory_order_relaxed);
  s.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  s.fallback_estimates = fallback_estimates_.load(std::memory_order_relaxed);
  s.failed_estimates = failed_estimates_.load(std::memory_order_relaxed);
  s.executions = executions_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    s.guided = guided_stats_;
  }
  s.memo = memo_.stats();
  const PlanCacheStats plans = plan_cache_.stats();
  s.plan_hits = plans.hits;
  s.plan_canonical_hits = plans.canonical_hits;
  s.plan_misses = plans.misses;
  s.plan_invalidations = plans.invalidations;
  s.plan_entries = plans.entries;
  s.plan_bytes = plans.bytes;
  const PackedStoreStats packed = packed_.stats();
  s.packed_operands = packed.entries;
  s.packed_operand_bytes = packed.bytes;
  return s;
}

}  // namespace mnc

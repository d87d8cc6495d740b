#ifndef SCX_EXEC_SPOOL_CACHE_H_
#define SCX_EXEC_SPOOL_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "exec/executor.h"

namespace scx {

/// Default byte budget for spooled intermediates: SCX_SPOOL_CACHE_BYTES, or
/// 256 MiB. Shared by the run-local spool cache and the cross-query cache.
int64_t DefaultSpoolCacheBytes();

/// Resolves ClusterConfig::spool_cache_bytes to an effective budget:
/// 0 -> DefaultSpoolCacheBytes(), negative -> unlimited (INT64_MAX).
int64_t ResolveSpoolBudget(int64_t configured);

/// Canonical structural serialization of the physical sub-DAG rooted at
/// `node`. Column ids are renamed to dense first-visit indices during a
/// deterministic pre-order walk, so two structurally equal sub-DAGs whose
/// column ids differ by a monotone renumbering (the case produced by binding
/// the same script text twice) serialize identically; shared interior nodes
/// are emitted once and referenced by `@<id>`. Only semantic payload is
/// included — extract column names bind file columns and are kept, while
/// result/output naming is dropped. Because the serialization is exact
/// (string compare, not a hash), a cache keyed on it can never return data
/// for a different computation: an isomorphism the renaming cannot see is a
/// safe miss, never a wrong hit.
std::string CanonicalSubDagDescription(const PhysicalNodePtr& node);

/// Key of one cross-query spool cache entry. The catalog version ties the
/// entry to the exact catalog state (file stats, data seeds) it was computed
/// from; the machine count pins the partition layout.
struct SpoolCacheKey {
  std::string canon;
  uint64_t catalog_version = 0;
  int machines = 0;

  friend bool operator<(const SpoolCacheKey& a, const SpoolCacheKey& b) {
    return std::tie(a.canon, a.catalog_version, a.machines) <
           std::tie(b.canon, b.catalog_version, b.machines);
  }
  friend bool operator==(const SpoolCacheKey& a, const SpoolCacheKey& b) {
    return a.canon == b.canon && a.catalog_version == b.catalog_version &&
           a.machines == b.machines;
  }
};

/// Aggregate counters of one CrossQuerySpoolCache.
struct SpoolCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
  int64_t bytes_evicted = 0;
  int64_t bytes_used = 0;
  int64_t entries = 0;
};

/// A byte-budgeted cache of materialized spool results that outlives any
/// single execution, so a sub-DAG computed for one script serves later
/// scripts (and later batches) without re-execution. Entries hold immutable
/// data — CompactPartition'd shared columns — and a hit hands back
/// shared_ptr copies, never aliasing mutable state.
///
/// Eviction is cost-aware and deterministic: when an insertion pushes the
/// cache over its byte budget, entries are dropped in increasing order of
/// benefit = recompute_cost x (1 + observed reuse), ties broken by smallest
/// insertion sequence (oldest first), until the budget holds again.
class CrossQuerySpoolCache {
 private:
  struct Entry;  // declared ahead of PinnedEntry, defined below

 public:
  /// `budget_bytes` as configured (ClusterConfig semantics: 0 = default,
  /// negative = unlimited).
  explicit CrossQuerySpoolCache(int64_t budget_bytes)
      : budget_(ResolveSpoolBudget(budget_bytes)) {}

  /// Returns the cached batch (shared columns), or nullopt. A hit bumps the
  /// entry's observed-reuse count (raising its eviction benefit).
  std::optional<BatchData> LookupBatch(const SpoolCacheKey& key);

  /// Zero-copy read handle on one cache entry, used by fault recovery
  /// (docs/architecture.md §17). While the handle lives the entry is pinned:
  /// eviction skips it and a same-key insert keeps the pinned entry in
  /// place, so the referenced data stays valid even while concurrent
  /// executions insert into (and shrink) the cache — the eviction-racing-a-
  /// recovery-re-read bug class. Pinning deliberately bumps neither the
  /// entry's observed reuse nor the hit/miss stats: a recovery re-read must
  /// not change future eviction victims (fault-vs-clean identity, oracle 8).
  class PinnedEntry {
   public:
    PinnedEntry() = default;
    PinnedEntry(PinnedEntry&& o) noexcept : cache_(o.cache_), entry_(o.entry_) {
      o.cache_ = nullptr;
      o.entry_ = nullptr;
    }
    PinnedEntry& operator=(PinnedEntry&& o) noexcept {
      if (this != &o) {
        Release();
        cache_ = o.cache_;
        entry_ = o.entry_;
        o.cache_ = nullptr;
        o.entry_ = nullptr;
      }
      return *this;
    }
    PinnedEntry(const PinnedEntry&) = delete;
    PinnedEntry& operator=(const PinnedEntry&) = delete;
    ~PinnedEntry() { Release(); }

    /// False on a cache miss (nothing pinned).
    explicit operator bool() const { return entry_ != nullptr; }
    /// The pinned batch materialization.
    const BatchData& batch() const;

    /// Unpins early (idempotent; also run by the destructor).
    void Release();

   private:
    friend class CrossQuerySpoolCache;
    PinnedEntry(CrossQuerySpoolCache* cache, Entry* entry)
        : cache_(cache), entry_(entry) {}
    CrossQuerySpoolCache* cache_ = nullptr;
    Entry* entry_ = nullptr;
  };

  /// Pins the entry under `key` for zero-copy reading, or returns an empty
  /// handle on miss. No reuse bump, no
  /// hit/miss accounting — see PinnedEntry.
  PinnedEntry Pin(const SpoolCacheKey& key);

  /// Inserts (replacing any same-key entry), then enforces the byte budget.
  /// Bytes dropped by eviction are added to *evicted_bytes when non-null.
  void InsertBatch(const SpoolCacheKey& key, BatchData data,
                   double recompute_cost, int64_t* evicted_bytes = nullptr);

  SpoolCacheStats stats() const;
  int64_t budget_bytes() const { return budget_; }

 private:
  struct Entry {
    BatchData batch;
    int64_t bytes = 0;
    double recompute_cost = 0;
    int64_t reuse = 0;  ///< hits since insertion
    int64_t seq = 0;    ///< insertion order (eviction tie-break)
    /// Live PinnedEntry handles. While > 0 the entry can be neither evicted
    /// nor replaced (map nodes are address-stable, so the handle's pointer
    /// stays valid for its whole lifetime).
    int64_t pins = 0;
  };

  void Unpin(Entry* entry);

  void InsertLocked(const SpoolCacheKey& key, Entry entry,
                    int64_t* evicted_bytes);
  void EnforceBudgetLocked(int64_t* evicted_bytes);

  mutable std::mutex mu_;
  const int64_t budget_;
  int64_t next_seq_ = 0;
  int64_t bytes_used_ = 0;
  SpoolCacheStats stats_;
  std::map<SpoolCacheKey, Entry> entries_;
};

}  // namespace scx

#endif  // SCX_EXEC_SPOOL_CACHE_H_

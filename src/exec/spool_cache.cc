#include "exec/spool_cache.h"

#include <cstdlib>
#include <limits>

namespace scx {

int64_t DefaultSpoolCacheBytes() {
  if (const char* env = std::getenv("SCX_SPOOL_CACHE_BYTES")) {
    int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return int64_t{256} * 1024 * 1024;
}

int64_t ResolveSpoolBudget(int64_t configured) {
  if (configured > 0) return configured;
  if (configured < 0) return std::numeric_limits<int64_t>::max();
  return DefaultSpoolCacheBytes();
}

namespace {

/// Pre-order serializer with dense column renaming and @id back-references
/// for shared interior nodes. See CanonicalSubDagDescription for the
/// exactness argument.
class CanonicalWriter {
 public:
  std::string Render(const PhysicalNode* root) {
    Walk(root);
    return std::move(out_);
  }

 private:
  void Num(int64_t v) {
    out_ += std::to_string(v);
    out_ += ',';
  }

  void Str(const std::string& s) {
    // Length-prefixed so path/name content can never collide with syntax.
    out_ += std::to_string(s.size());
    out_ += ':';
    out_ += s;
    out_ += ',';
  }

  void Col(ColumnId id) {
    auto it = canon_.find(id);
    if (it == canon_.end()) {
      it = canon_.emplace(id, static_cast<int>(canon_.size())).first;
    }
    out_ += 'c';
    Num(it->second);
  }

  void Cols(const std::vector<ColumnId>& ids) {
    out_ += '[';
    for (ColumnId id : ids) Col(id);
    out_ += ']';
  }

  void ColSet(const ColumnSet& set) { Cols(set.ToVector()); }

  void Lit(const Value& v) {
    out_ += 'v';
    Num(static_cast<int64_t>(v.type()));
    Str(v.ToString());
  }

  void Scalar(const ScalarExpr* e) {
    if (e == nullptr) {
      out_ += 'n';
      return;
    }
    switch (e->kind()) {
      case ScalarExpr::Kind::kColumn:
        Col(e->column());
        break;
      case ScalarExpr::Kind::kLiteral:
        Lit(e->literal());
        break;
      case ScalarExpr::Kind::kBinary:
        out_ += 'b';
        Num(static_cast<int64_t>(e->op()));
        Scalar(e->lhs().get());
        Scalar(e->rhs().get());
        break;
    }
  }

  void Predicate(const BoundPredicate& p) {
    out_ += 'p';
    Col(p.lhs);
    Num(static_cast<int64_t>(p.op));
    if (p.rhs_is_column) {
      Col(p.rhs);
    } else {
      Lit(p.literal);
    }
  }

  void Partition(const Partitioning& part) {
    out_ += 'P';
    Num(static_cast<int64_t>(part.kind));
    ColSet(part.cols);
    Cols(part.range_cols);
  }

  void Payload(const PhysicalNode* n) {
    const LogicalNode* proto = n->proto.get();
    if (proto == nullptr) return;
    switch (n->kind) {
      case PhysicalOpKind::kExtract: {
        const FileDef& f = proto->file;
        Num(f.file_id);
        Str(f.path);
        Num(f.row_count);
        Num(static_cast<int64_t>(f.data_seed));
        for (const ColumnStats& c : f.columns) {
          Str(c.name);
          Num(static_cast<int64_t>(c.type));
          Num(c.distinct_count);
          Num(c.avg_width);
          // Skew changes the synthetic data, so it must split cache keys.
          // Emitted only when set, keeping unskewed canon strings unchanged.
          if (c.skew_alpha != 0) {
            out_ += 's';
            Str(std::to_string(c.skew_alpha));
          }
        }
        break;
      }
      case PhysicalOpKind::kFilter:
        for (const BoundPredicate& p : proto->predicates) Predicate(p);
        break;
      case PhysicalOpKind::kProject:
        for (const auto& [src, dst] : proto->project_map) {
          Col(src);
          Col(dst);
        }
        break;
      case PhysicalOpKind::kCompute:
        for (const ComputeItem& item : proto->compute_items) {
          Scalar(item.expr.get());
          Col(item.out);
        }
        break;
      case PhysicalOpKind::kHashAgg:
      case PhysicalOpKind::kStreamAgg:
        Num(static_cast<int64_t>(proto->kind()));  // full/local/global split
        Cols(proto->group_cols);
        for (const AggregateDesc& a : proto->aggregates) {
          Num(static_cast<int64_t>(a.fn));
          Num(a.count_star ? 1 : 0);
          Col(a.arg);
          Col(a.out);
          Col(a.hidden_count);
          Num(static_cast<int64_t>(a.out_type));
        }
        break;
      case PhysicalOpKind::kHashJoin:
      case PhysicalOpKind::kMergeJoin:
        for (const auto& [l, r] : proto->join_keys) {
          Col(l);
          Col(r);
        }
        for (const BoundPredicate& p : proto->predicates) Predicate(p);
        break;
      case PhysicalOpKind::kOutput:
        Str(proto->output_path);
        Cols(proto->order_by);
        break;
      default:
        // UnionAll, Spool/SpoolScan, Sequence, and enforcers carry no
        // payload beyond the common fields (enforcers reuse the child's
        // proto, whose content the child emits itself).
        break;
    }
  }

  void Walk(const PhysicalNode* n) {
    auto it = node_ids_.find(n);
    if (it != node_ids_.end()) {
      out_ += '@';
      Num(it->second);
      return;
    }
    node_ids_.emplace(n, static_cast<int>(node_ids_.size()));
    out_ += '(';
    out_ += PhysicalOpKindName(n->kind);
    out_ += ';';
    // Schema: canonical id + type per column. Extract additionally binds
    // file columns by name, so there the names are semantic.
    if (n->proto != nullptr) {
      for (const ColumnInfo& c : n->proto->schema().columns()) {
        Col(c.id);
        Num(static_cast<int64_t>(c.type));
        if (n->kind == PhysicalOpKind::kExtract) Str(c.name);
      }
    }
    out_ += ';';
    Partition(n->delivered.partitioning);
    Cols(n->delivered.sort.cols);
    ColSet(n->exchange_cols);
    Cols(n->sort_spec.cols);
    out_ += ';';
    Payload(n);
    out_ += ';';
    for (const PhysicalNodePtr& child : n->children) Walk(child.get());
    out_ += ')';
  }

  std::string out_;
  std::map<const PhysicalNode*, int> node_ids_;
  std::map<ColumnId, int> canon_;
};

}  // namespace

std::string CanonicalSubDagDescription(const PhysicalNodePtr& node) {
  return CanonicalWriter().Render(node.get());
}

std::optional<BatchData> CrossQuerySpoolCache::LookupBatch(
    const SpoolCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++it->second.reuse;
  return it->second.batch;  // copies shared column pointers, not data
}

void CrossQuerySpoolCache::InsertBatch(const SpoolCacheKey& key,
                                       BatchData data, double recompute_cost,
                                       int64_t* evicted_bytes) {
  Entry entry;
  entry.bytes = data.TotalLiveBytes();
  entry.batch = std::move(data);
  entry.recompute_cost = recompute_cost;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(entry), evicted_bytes);
}

const BatchData& CrossQuerySpoolCache::PinnedEntry::batch() const {
  return entry_->batch;
}

void CrossQuerySpoolCache::PinnedEntry::Release() {
  if (entry_ != nullptr) cache_->Unpin(entry_);
  cache_ = nullptr;
  entry_ = nullptr;
}

CrossQuerySpoolCache::PinnedEntry CrossQuerySpoolCache::Pin(
    const SpoolCacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return PinnedEntry();
  ++it->second.pins;
  return PinnedEntry(this, &it->second);
}

void CrossQuerySpoolCache::Unpin(Entry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  --entry->pins;
}

void CrossQuerySpoolCache::InsertLocked(const SpoolCacheKey& key, Entry entry,
                                        int64_t* evicted_bytes) {
  entry.seq = next_seq_++;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A pinned entry must stay where it is (a recovery re-read may hold a
    // pointer into it). Same-key data is identical by construction — the key
    // is the exact canonical sub-DAG plus catalog version — so keeping the
    // old materialization is not just safe but equivalent.
    if (it->second.pins > 0) return;
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
  }
  bytes_used_ += entry.bytes;
  ++stats_.insertions;
  entries_.emplace(key, std::move(entry));
  EnforceBudgetLocked(evicted_bytes);
}

void CrossQuerySpoolCache::EnforceBudgetLocked(int64_t* evicted_bytes) {
  while (bytes_used_ > budget_ && !entries_.empty()) {
    auto victim = entries_.end();
    double victim_benefit = 0;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.pins > 0) continue;  // pinned: not evictable
      double benefit = it->second.recompute_cost * (1.0 + it->second.reuse);
      if (victim == entries_.end() || benefit < victim_benefit ||
          (benefit == victim_benefit && it->second.seq < victim->second.seq)) {
        victim = it;
        victim_benefit = benefit;
      }
    }
    // Every entry pinned: stay over budget until a pin drops (the next
    // insertion re-enforces the budget).
    if (victim == entries_.end()) break;
    bytes_used_ -= victim->second.bytes;
    ++stats_.evictions;
    stats_.bytes_evicted += victim->second.bytes;
    if (evicted_bytes != nullptr) *evicted_bytes += victim->second.bytes;
    entries_.erase(victim);
  }
}

SpoolCacheStats CrossQuerySpoolCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpoolCacheStats s = stats_;
  s.bytes_used = bytes_used_;
  s.entries = static_cast<int64_t>(entries_.size());
  return s;
}

}  // namespace scx

#include "opt/physical_plan.h"

#include <cmath>
#include <cstdint>
#include <map>

#include "common/hash.h"

namespace scx {

const char* PhysicalOpKindName(PhysicalOpKind kind) {
  switch (kind) {
    case PhysicalOpKind::kExtract:
      return "Extract";
    case PhysicalOpKind::kFilter:
      return "Filter";
    case PhysicalOpKind::kProject:
      return "Project";
    case PhysicalOpKind::kCompute:
      return "Compute";
    case PhysicalOpKind::kHashAgg:
      return "HashAgg";
    case PhysicalOpKind::kStreamAgg:
      return "StreamAgg";
    case PhysicalOpKind::kHashJoin:
      return "HashJoin";
    case PhysicalOpKind::kMergeJoin:
      return "MergeJoin";
    case PhysicalOpKind::kUnionAll:
      return "UnionAll";
    case PhysicalOpKind::kSpool:
      return "Spool";
    case PhysicalOpKind::kSpoolScan:
      return "SpoolScan";
    case PhysicalOpKind::kOutput:
      return "Output";
    case PhysicalOpKind::kSequence:
      return "Sequence";
    case PhysicalOpKind::kHashExchange:
      return "Repartition";
    case PhysicalOpKind::kMergeExchange:
      return "MergeRepartition";
    case PhysicalOpKind::kRangeExchange:
      return "RangeRepartition";
    case PhysicalOpKind::kBroadcastExchange:
      return "Broadcast";
    case PhysicalOpKind::kGather:
      return "Gather";
    case PhysicalOpKind::kSort:
      return "Sort";
  }
  return "Unknown";
}

namespace {

std::string AggModeSuffix(const LogicalNodePtr& proto) {
  if (proto == nullptr) return "";
  switch (proto->kind()) {
    case LogicalOpKind::kLocalGbAgg:
      return "(Local)";
    case LogicalOpKind::kGlobalGbAgg:
      return "(Global)";
    default:
      return "";
  }
}

}  // namespace

std::string PhysicalNode::Describe() const {
  std::string out = PhysicalOpKindName(kind);
  auto namer = [this](ColumnId id) {
    if (proto != nullptr) {
      std::string name = proto->schema().NameOf(id);
      if (name[0] != '#') return name;
      // Fall back to child proto schemas (enforcer columns usually name
      // child outputs).
    }
    for (const PhysicalNodePtr& c : children) {
      if (c->proto != nullptr) {
        std::string name = c->proto->schema().NameOf(id);
        if (name[0] != '#') return name;
      }
    }
    return "#" + std::to_string(id);
  };
  switch (kind) {
    case PhysicalOpKind::kHashAgg:
    case PhysicalOpKind::kStreamAgg: {
      out += AggModeSuffix(proto);
      out += "[" +
             ColumnSet::FromVector(proto->group_cols).ToString(namer) + "]";
      break;
    }
    case PhysicalOpKind::kExtract:
      out += "[" + proto->file.path + "]";
      break;
    case PhysicalOpKind::kOutput:
      out += "[" + proto->output_path + "]";
      break;
    case PhysicalOpKind::kHashExchange:
    case PhysicalOpKind::kMergeExchange:
    case PhysicalOpKind::kRangeExchange:
      out += "[" + exchange_cols.ToString(namer) + "]";
      break;
    case PhysicalOpKind::kSort:
      out += sort_spec.ToString(namer);
      break;
    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kMergeJoin: {
      out += "[";
      for (size_t i = 0; i < proto->join_keys.size(); ++i) {
        if (i > 0) out += ",";
        out += namer(proto->join_keys[i].first);
        out += "=";
        out += namer(proto->join_keys[i].second);
      }
      out += "]";
      break;
    }
    default:
      break;
  }
  out += "  {" + delivered.ToString(namer) + "}";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "  cost=%.0f", own_cost);
  out += buf;
  return out;
}

PhysicalNodePtr MakePhysicalNode(PhysicalOpKind kind, LogicalNodePtr proto,
                                 GroupId group,
                                 std::vector<PhysicalNodePtr> children,
                                 DeliveredProps delivered, double own_cost) {
  auto node = std::make_shared<PhysicalNode>();
  node->kind = kind;
  node->proto = std::move(proto);
  node->group = group;
  node->children = std::move(children);
  node->delivered = std::move(delivered);
  node->own_cost = own_cost;
  node->tree_cost = own_cost;
  node->cost_lb = own_cost;
  for (const PhysicalNodePtr& c : node->children) {
    node->tree_cost += c->tree_cost;
    if (own_cost + c->cost_lb > node->cost_lb) {
      node->cost_lb = own_cost + c->cost_lb;
    }
  }
  return node;
}

namespace {

/// Per-thread scratch for the DAG walks (DagCost, CountDagNodes): an
/// open-addressed node -> consumer-count table plus the DFS post-order.
/// Phase 2 calls DagCost hundreds of thousands of times per script, so the
/// scratch is reused across calls and a walk allocates nothing once it has
/// grown to the largest DAG its thread has seen. A slot is live only while
/// its epoch equals the current walk's, so starting a walk clears the table
/// in O(1).
class DagWalk {
 public:
  struct Entry {
    const PhysicalNode* node;
    uint32_t ref_index;  ///< index into refs_
  };

  /// Walks the DAG under `root`. Afterwards order() lists each distinct
  /// node once in DFS post-order (children first, in child order) — the
  /// summation order of DagCost, so the floating-point result does not
  /// depend on the table layout.
  void Run(const PhysicalNode* root) {
    if (++epoch_ == 0) {  // wrapped: forget every stale stamp
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    if (slots_.empty()) Resize(kMinSlots);
    order_.clear();
    refs_.clear();
    Visit(root);
  }

  const std::vector<Entry>& order() const { return order_; }
  /// Number of parents (plus the root's caller) referencing the node.
  int refs(const Entry& e) const { return refs_[e.ref_index]; }

 private:
  struct Slot {
    const PhysicalNode* node = nullptr;
    uint32_t epoch = 0;
    uint32_t ref_index = 0;
  };
  static constexpr size_t kMinSlots = 64;

  void Visit(const PhysicalNode* n) {
    size_t i = Probe(n);
    if (slots_[i].epoch == epoch_) {
      ++refs_[slots_[i].ref_index];
      return;
    }
    const uint32_t index = static_cast<uint32_t>(refs_.size());
    slots_[i] = Slot{n, epoch_, index};
    refs_.push_back(1);
    if (2 * refs_.size() > slots_.size()) Resize(slots_.size() * 2);
    for (const PhysicalNodePtr& c : n->children) Visit(c.get());
    order_.push_back(Entry{n, index});
  }

  /// The node's slot, or the empty slot where it would go.
  size_t Probe(const PhysicalNode* n) const {
    size_t i = Mix64(reinterpret_cast<uintptr_t>(n)) & mask_;
    while (slots_[i].epoch == epoch_ && slots_[i].node != n) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Resize(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.epoch == epoch_) slots_[Probe(s.node)] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint32_t epoch_ = 0;
  std::vector<int> refs_;  ///< consumer count per node, first-visit order
  std::vector<Entry> order_;
};

DagWalk& ThreadDagWalk() {
  thread_local DagWalk walk;
  return walk;
}

}  // namespace

double DagCost(const PhysicalNodePtr& root) {
  double memo = root->dag_cost_memo.load(std::memory_order_relaxed);
  if (!std::isnan(memo)) return memo;
  DagWalk& walk = ThreadDagWalk();
  walk.Run(root.get());
  double total = 0;
  for (const DagWalk::Entry& e : walk.order()) {
    total += e.node->own_cost;
    int extra = walk.refs(e) - 1;
    if (extra > 0) total += extra * e.node->extra_consumer_cost;
  }
  root->dag_cost_memo.store(total, std::memory_order_relaxed);
  return total;
}

double TreeCost(const PhysicalNodePtr& root) { return root->tree_cost; }

int CountDagNodes(const PhysicalNodePtr& root) {
  DagWalk& walk = ThreadDagWalk();
  walk.Run(root.get());
  return static_cast<int>(walk.order().size());
}

namespace {

void PrintNode(const PhysicalNodePtr& node, int indent,
               std::map<const PhysicalNode*, int>* ids, int* next,
               std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  auto it = ids->find(node.get());
  if (it != ids->end()) {
    *out += "@" + std::to_string(it->second) + " (shared, see above)\n";
    return;
  }
  int id = (*next)++;
  (*ids)[node.get()] = id;
  *out += "@" + std::to_string(id) + " " + node->Describe() + "\n";
  for (const PhysicalNodePtr& c : node->children) {
    PrintNode(c, indent + 1, ids, next, out);
  }
}

}  // namespace

std::string PrintPhysicalPlan(const PhysicalNodePtr& root) {
  std::string out;
  std::map<const PhysicalNode*, int> ids;
  int next = 1;
  PrintNode(root, 0, &ids, &next, &out);
  return out;
}

}  // namespace scx

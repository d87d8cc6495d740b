#include "testing/reference_eval.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "exec/exec_detail.h"

namespace scx {

namespace {

using exec_detail::AggState;

/// Rows of every evaluated node, keyed by node identity (a shared node is
/// evaluated once).
using Memo = std::unordered_map<const LogicalNode*, std::vector<Row>>;

/// Lexicographic less-than on the cells at `positions` under Value's
/// ordering: the ORDER BY order.
bool RowLess(const Row& a, const Row& b, const std::vector<int>& positions) {
  for (int p : positions) {
    auto c = a[static_cast<size_t>(p)] <=> b[static_cast<size_t>(p)];
    if (c != 0) return c < 0;
  }
  return false;
}

bool SameKey(const Row& a, const std::vector<int>& apos, const Row& b,
             const std::vector<int>& bpos) {
  for (size_t k = 0; k < apos.size(); ++k) {
    if (!(a[static_cast<size_t>(apos[k])] == b[static_cast<size_t>(bpos[k])])) {
      return false;
    }
  }
  return true;
}

Result<std::vector<Row>> Extract(const LogicalNode& node) {
  const FileDef& file = node.file;
  std::vector<int> file_cols;
  for (const ColumnInfo& c : node.schema().columns()) {
    int idx = file.ColumnIndex(c.name);
    if (idx < 0) {
      return Status::ExecutionError("extract column " + c.name +
                                    " missing from file " + file.path);
    }
    file_cols.push_back(idx);
  }
  std::vector<Row> rows(
      static_cast<size_t>(std::max<int64_t>(0, file.row_count)));
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].reserve(file_cols.size());
    for (int idx : file_cols) {
      rows[i].push_back(
          exec_detail::SyntheticValue(file, idx, static_cast<int64_t>(i)));
    }
  }
  return rows;
}

/// Folds one input row into the state of an unsplit aggregate.
void Accumulate(const AggregateDesc& a, const Row& r, int arg_pos,
                AggState* s) {
  switch (a.fn) {
    case AggFn::kSum: {
      const Value& v = r[static_cast<size_t>(arg_pos)];
      if (v.is_int()) {
        s->isum = WrapAdd(s->isum, v.as_int());
      } else {
        s->dsum += v.AsNumeric();
      }
      break;
    }
    case AggFn::kCount:
      ++s->count;
      break;
    case AggFn::kMin: {
      const Value& v = r[static_cast<size_t>(arg_pos)];
      if (!s->seen || v < s->minv) s->minv = v;
      break;
    }
    case AggFn::kMax: {
      const Value& v = r[static_cast<size_t>(arg_pos)];
      if (!s->seen || v > s->maxv) s->maxv = v;
      break;
    }
    case AggFn::kAvg:
      s->dsum += r[static_cast<size_t>(arg_pos)].AsNumeric();
      ++s->count;
      break;
  }
  s->seen = true;
}

std::vector<Row> GroupBy(const LogicalNode& node, const Schema& in_schema,
                         const std::vector<Row>& in) {
  const std::vector<int> group_pos = in_schema.PositionsOf(node.group_cols);
  const size_t naggs = node.aggregates.size();
  std::vector<int> arg_pos(naggs, -1);
  for (size_t i = 0; i < naggs; ++i) {
    if (!node.aggregates[i].count_star) {
      arg_pos[i] = in_schema.PositionOf(node.aggregates[i].arg);
    }
  }
  // Groups in first-appearance order; the hash only narrows the candidates,
  // Value equality decides membership.
  std::vector<const Row*> group_rows;
  std::vector<AggState> states;  // naggs per group, group-major
  std::unordered_multimap<uint64_t, size_t> by_hash;
  for (const Row& r : in) {
    const uint64_t h = HashRowKey(r, group_pos);
    size_t id = group_rows.size();
    auto [lo, hi] = by_hash.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (SameKey(r, group_pos, *group_rows[it->second], group_pos)) {
        id = it->second;
        break;
      }
    }
    if (id == group_rows.size()) {
      group_rows.push_back(&r);
      states.resize(states.size() + naggs);
      by_hash.emplace(h, id);
    }
    for (size_t i = 0; i < naggs; ++i) {
      Accumulate(node.aggregates[i], r, arg_pos[i], &states[id * naggs + i]);
    }
  }
  std::vector<Row> out;
  out.reserve(group_rows.size());
  for (size_t id = 0; id < group_rows.size(); ++id) {
    Row row;
    for (int p : group_pos) {
      row.push_back((*group_rows[id])[static_cast<size_t>(p)]);
    }
    for (size_t i = 0; i < naggs; ++i) {
      row.push_back(exec_detail::FinalizeAggCell(
          node.aggregates[i], states[id * naggs + i], /*global=*/false,
          /*local=*/false));
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Row> Join(const LogicalNode& node, const Schema& lschema,
                      const std::vector<Row>& left, const Schema& rschema,
                      const std::vector<Row>& right) {
  std::vector<int> lpos, rpos;
  for (const auto& [l, r] : node.join_keys) {
    lpos.push_back(lschema.PositionOf(l));
    rpos.push_back(rschema.PositionOf(r));
  }
  std::unordered_multimap<uint64_t, size_t> build;
  for (size_t i = 0; i < right.size(); ++i) {
    build.emplace(HashRowKey(right[i], rpos), i);
  }
  std::vector<Row> out;
  for (const Row& l : left) {
    auto [lo, hi] = build.equal_range(HashRowKey(l, lpos));
    // Matches in build-row order, whatever order the multimap keeps them in.
    std::vector<size_t> matches;
    for (auto it = lo; it != hi; ++it) {
      if (SameKey(l, lpos, right[it->second], rpos)) {
        matches.push_back(it->second);
      }
    }
    std::sort(matches.begin(), matches.end());
    for (size_t m : matches) {
      Row joined = l;
      joined.insert(joined.end(), right[m].begin(), right[m].end());
      bool pass = true;
      for (const BoundPredicate& pred : node.predicates) {
        if (!pred.Evaluate(joined, node.schema())) {
          pass = false;
          break;
        }
      }
      if (pass) out.push_back(std::move(joined));
    }
  }
  return out;
}

}  // namespace

Result<ReferenceOutputs> EvaluateReference(const LogicalNodePtr& root) {
  ReferenceOutputs outputs;
  Memo memo;
  for (const LogicalNodePtr& np : TopologicalNodes(root)) {
    const LogicalNode& node = *np;
    auto child_rows = [&](int i) -> const std::vector<Row>& {
      return memo.at(node.child(i).get());
    };
    auto child_schema = [&](int i) -> const Schema& {
      return node.child(i)->schema();
    };
    std::vector<Row> rows;
    switch (node.kind()) {
      case LogicalOpKind::kExtract: {
        SCX_ASSIGN_OR_RETURN(rows, Extract(node));
        break;
      }
      case LogicalOpKind::kFilter:
        for (const Row& r : child_rows(0)) {
          bool pass = true;
          for (const BoundPredicate& pred : node.predicates) {
            if (!pred.Evaluate(r, child_schema(0))) {
              pass = false;
              break;
            }
          }
          if (pass) rows.push_back(r);
        }
        break;
      case LogicalOpKind::kProject: {
        std::vector<int> positions;
        for (const auto& [src, dst] : node.project_map) {
          (void)dst;
          positions.push_back(child_schema(0).PositionOf(src));
        }
        for (const Row& r : child_rows(0)) {
          Row projected;
          for (int p : positions) {
            projected.push_back(r[static_cast<size_t>(p)]);
          }
          rows.push_back(std::move(projected));
        }
        break;
      }
      case LogicalOpKind::kCompute:
        for (const Row& r : child_rows(0)) {
          Row computed;
          for (const ComputeItem& item : node.compute_items) {
            computed.push_back(item.expr->Evaluate(r, child_schema(0)));
          }
          rows.push_back(std::move(computed));
        }
        break;
      case LogicalOpKind::kGbAgg:
        rows = GroupBy(node, child_schema(0), child_rows(0));
        break;
      case LogicalOpKind::kJoin:
        rows = Join(node, child_schema(0), child_rows(0), child_schema(1),
                    child_rows(1));
        break;
      case LogicalOpKind::kUnionAll:
        for (int i = 0; i < node.num_children(); ++i) {
          rows.insert(rows.end(), child_rows(i).begin(), child_rows(i).end());
        }
        break;
      case LogicalOpKind::kOutput: {
        std::vector<Row> out = child_rows(0);
        if (!node.order_by.empty()) {
          const std::vector<int> positions =
              node.schema().PositionsOf(node.order_by);
          std::stable_sort(out.begin(), out.end(),
                           [&](const Row& a, const Row& b) {
                             return RowLess(a, b, positions);
                           });
        }
        auto& sink = outputs[node.output_path];
        sink.insert(sink.end(), std::make_move_iterator(out.begin()),
                    std::make_move_iterator(out.end()));
        break;
      }
      case LogicalOpKind::kSequence:
        break;
      case LogicalOpKind::kLocalGbAgg:
      case LogicalOpKind::kGlobalGbAgg:
      case LogicalOpKind::kSpool:
        return Status::InvalidArgument(
            std::string("reference evaluation of optimizer-only operator ") +
            LogicalOpKindName(node.kind()));
    }
    memo.emplace(&node, std::move(rows));
  }
  return outputs;
}

Status CheckOutputOrder(const LogicalNodePtr& root,
                        const ReferenceOutputs& outputs) {
  struct PathOrder {
    int writers = 0;
    bool checkable = true;
    std::vector<int> positions;
  };
  std::map<std::string, PathOrder> paths;
  for (const LogicalNodePtr& n : TopologicalNodes(root)) {
    if (n->kind() != LogicalOpKind::kOutput) continue;
    PathOrder& po = paths[n->output_path];
    std::vector<int> positions = n->schema().PositionsOf(n->order_by);
    // Every writer of the path must order the same way, or there is no
    // order to check.
    if (n->order_by.empty() || (po.writers > 0 && positions != po.positions)) {
      po.checkable = false;
    }
    po.positions = std::move(positions);
    ++po.writers;
  }
  for (const auto& [path, po] : paths) {
    if (!po.checkable) continue;
    auto it = outputs.find(path);
    if (it == outputs.end()) continue;
    const std::vector<Row>& rows = it->second;
    int restarts = 0;
    for (size_t i = 1; i < rows.size(); ++i) {
      if (RowLess(rows[i], rows[i - 1], po.positions) &&
          ++restarts >= po.writers) {
        return Status::ExecutionError("output " + path + " row " +
                                      std::to_string(i) +
                                      " breaks its ORDER BY");
      }
    }
  }
  return Status::OK();
}

}  // namespace scx

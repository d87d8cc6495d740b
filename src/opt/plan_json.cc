#include "opt/plan_json.h"

#include <map>

#include "core/optimizer.h"

namespace scx {

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AssignIds(const PhysicalNodePtr& node,
               std::map<const PhysicalNode*, int>* ids,
               std::vector<const PhysicalNode*>* order) {
  if (ids->count(node.get())) return;
  int id = static_cast<int>(ids->size());
  (*ids)[node.get()] = id;
  order->push_back(node.get());
  for (const PhysicalNodePtr& c : node->children) AssignIds(c, ids, order);
}

void AppendNode(const PhysicalNode& node,
                const std::map<const PhysicalNode*, int>& ids,
                std::string* out) {
  *out += "{\"id\":" + std::to_string(ids.at(&node));
  *out += ",\"kind\":";
  AppendEscaped(PhysicalOpKindName(node.kind), out);
  *out += ",\"cost\":" + Num(node.own_cost);
  *out += ",\"tree_cost\":" + Num(node.tree_cost);
  *out += ",\"delivered\":";
  AppendEscaped(node.delivered.ToString(), out);
  if (node.proto != nullptr && !node.proto->result_name.empty()) {
    *out += ",\"result\":";
    AppendEscaped(node.proto->result_name, out);
  }
  if (node.kind == PhysicalOpKind::kOutput && node.proto != nullptr) {
    *out += ",\"path\":";
    AppendEscaped(node.proto->output_path, out);
  }
  if (!node.exchange_cols.Empty()) {
    *out += ",\"exchange_cols\":";
    AppendEscaped(node.exchange_cols.ToString(), out);
  }
  if (!node.sort_spec.Empty()) {
    *out += ",\"sort\":";
    AppendEscaped(node.sort_spec.ToString(
                      [](ColumnId id) { return "#" + std::to_string(id); }),
                  out);
  }
  *out += ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ",";
    *out += std::to_string(ids.at(node.children[i].get()));
  }
  *out += "]}";
}

}  // namespace

std::string PlanToJson(const PhysicalNodePtr& root) {
  if (root == nullptr) return "{\"root\":null,\"nodes\":[]}";
  std::map<const PhysicalNode*, int> ids;
  std::vector<const PhysicalNode*> order;
  AssignIds(root, &ids, &order);
  std::string out = "{\"root\":0,\"dag_cost\":" + Num(DagCost(root)) +
                    ",\"tree_cost\":" + Num(TreeCost(root)) + ",\"nodes\":[";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0) out += ",";
    AppendNode(*order[i], ids, &out);
  }
  out += "]}";
  return out;
}

std::string DiagnosticsToJson(const OptimizeDiagnostics& d) {
  std::string out = "{";
  out += "\"phase1_cost\":" + Num(d.phase1_cost);
  out += ",\"final_cost\":" + Num(d.final_cost);
  out += ",\"rounds_planned\":" + std::to_string(d.rounds_planned);
  out += ",\"rounds_executed\":" + std::to_string(d.rounds_executed);
  out += ",\"num_shared_groups\":" + std::to_string(d.num_shared_groups);
  out += ",\"explicit_shared\":" + std::to_string(d.explicit_shared);
  out += ",\"merged_subexpressions\":" +
         std::to_string(d.merged_subexpressions);
  out += ",\"reachable_groups\":" + std::to_string(d.reachable_groups);
  out += ",\"num_scripts\":" + std::to_string(d.num_scripts);
  out += ",\"cross_script_shared_groups\":" +
         std::to_string(d.cross_script_shared_groups);
  out += ",\"optimize_seconds\":" + Num(d.optimize_seconds);
  out += ",\"phase2_seconds\":" + Num(d.phase2_seconds);
  out += std::string(",\"budget_exhausted\":") +
         (d.budget_exhausted ? "true" : "false");
  out += ",\"cache\":{";
  out += "\"winner_hits\":" + std::to_string(d.cache.winner_hits);
  out += ",\"winner_misses\":" + std::to_string(d.cache.winner_misses);
  out += ",\"spool_hits\":" + std::to_string(d.cache.spool_hits);
  out += ",\"spool_misses\":" + std::to_string(d.cache.spool_misses);
  out += ",\"pruned_alternatives\":" +
         std::to_string(d.cache.pruned_alternatives);
  out += ",\"interner_size\":" + std::to_string(d.cache.interner_size);
  out += "}";
  out += ",\"lca_of\":{";
  bool first = true;
  for (const auto& [s, lca] : d.lca_of) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(s) + "\":" + std::to_string(lca);
  }
  out += "},\"history_sizes\":{";
  first = true;
  for (const auto& [s, n] : d.history_sizes) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(s) + "\":" + std::to_string(n);
  }
  out += "},\"round_trace\":[";
  for (size_t i = 0; i < d.round_trace.size(); ++i) {
    const RoundTraceEntry& e = d.round_trace[i];
    if (i > 0) out += ",";
    out += "{\"lca\":" + std::to_string(e.lca);
    out += ",\"round\":" + std::to_string(e.round_index);
    out += ",\"cost\":" + Num(e.cost);
    out += ",\"best_so_far\":" + Num(e.best_so_far);
    out += ",\"assignment\":{";
    bool f2 = true;
    for (const auto& [s, idx] : e.assignment) {
      if (!f2) out += ",";
      f2 = false;
      out += "\"" + std::to_string(s) + "\":" + std::to_string(idx);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace scx

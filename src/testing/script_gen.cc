#include "testing/script_gen.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace scx {

namespace {

/// Deterministic splitmix64: identical streams on every platform, unlike
/// std:: distributions whose mapping is implementation-defined.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] inclusive.
  int Int(int lo, int hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  int64_t Int64(int64_t lo, int64_t hi) {
    if (hi <= lo) return lo;
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Next() % v.size()];
  }

 private:
  uint64_t state_;
};

/// Integer-result aggregate functions (safe in UNION arms, where both sides
/// must agree positionally on type).
const std::vector<std::string>& IntAggFns() {
  static const std::vector<std::string> fns = {"Sum", "Min", "Max", "Count"};
  return fns;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += names[i];
  }
  return out;
}

/// Non-empty random subset of `cols`, preserving order.
std::vector<std::string> RandomSubset(Rng& rng,
                                      const std::vector<std::string>& cols) {
  std::vector<std::string> out;
  for (const std::string& c : cols) {
    if (rng.Chance(0.5)) out.push_back(c);
  }
  if (out.empty()) out.push_back(rng.Pick(cols));
  return out;
}

/// Generator state for one script.
class Generator {
 public:
  Generator(uint64_t seed, const ScriptGenOptions& opts)
      : rng_(seed ^ 0x5cf5cf5cf5cf5cf5ull), opts_(opts) {
    out_.seed = seed;
  }

  GeneratedCase Run() {
    int modules = rng_.Int(opts_.min_modules, opts_.max_modules);
    for (int j = 0; j < modules; ++j) EmitModule(j);
    if (rng_.Chance(opts_.filler_prob)) EmitFiller(modules);
    return std::move(out_);
  }

 private:
  void Line(const std::string& s) { out_.script += s + "\n"; }

  /// Registers a fresh log file and returns its path. NDVs are kept small
  /// so joins and group-bys produce non-trivial row counts at a few
  /// thousand input rows.
  std::string NewFile(const std::string& name_hint) {
    std::string path = name_hint + ".log";
    int64_t rows = rng_.Int64(opts_.min_rows, opts_.max_rows);
    if (opts_.force_empty_inputs || rng_.Chance(opts_.empty_input_prob)) {
      rows = 0;
    }
    std::vector<int64_t> ndvs = {
        rng_.Pick<int64_t>({2, 4, 8, 16}),
        rng_.Pick<int64_t>({10, 25, 50}),
        rng_.Pick<int64_t>({2, 4, 8}),
        rng_.Pick<int64_t>({50, 200, 500}),
    };
    uint64_t data_seed = rng_.Next();
    if (opts_.key_skew_alpha > 0) {
      // Skew the key columns (A and C — the low-NDV join/group keys) so the
      // data piles onto a few hash partitions. Registered directly: the
      // RegisterLog convenience has no skew parameter.
      FileDef def;
      def.path = path;
      def.row_count = rows;
      def.data_seed = data_seed;
      for (size_t i = 0; i < 4; ++i) {
        ColumnStats cs;
        cs.name = std::string(1, static_cast<char>('A' + i));
        cs.distinct_count = ndvs[i];
        if (cs.name == "A" || cs.name == "C") {
          cs.skew_alpha = opts_.key_skew_alpha;
        }
        def.columns.push_back(std::move(cs));
      }
      Status s = out_.catalog.RegisterFile(std::move(def));
      (void)s;  // paths are unique by construction
      return path;
    }
    Status s = out_.catalog.RegisterLog(path, {"A", "B", "C", "D"}, rows,
                                        ndvs, /*data_seed=*/data_seed);
    (void)s;  // paths are unique by construction
    return path;
  }

  void Output(const std::string& result, const std::string& path) {
    Line("OUTPUT " + result + " TO \"" + path + "\";");
    if (opts_.force_duplicate_outputs ||
        rng_.Chance(opts_.duplicate_output_prob)) {
      // Duplicate consumption of one result: either a second sink file or a
      // double-write to the same path (the executor concatenates).
      if (rng_.Chance(0.5)) {
        Line("OUTPUT " + result + " TO \"" + path + ".dup\";");
      } else {
        Line("OUTPUT " + result + " TO \"" + path + "\";");
      }
    }
  }

  /// One module: extract (opt. filtered) -> shared agg or shared multi-key
  /// join -> 2..4 consumers, each ending in OUTPUT.
  void EmitModule(int j) {
    std::string m = "M" + std::to_string(j);
    std::string extract = m + "E";
    std::string file = NewFile("g" + std::to_string(j));
    Line(extract + " = EXTRACT A,B,C,D FROM \"" + file +
         "\" USING LogExtractor;");

    std::string src = extract;
    if (rng_.Chance(opts_.filter_prob)) {
      std::string f = m + "F";
      const char* col = rng_.Chance(0.5) ? "D" : "C";
      Line(f + " = SELECT A,B,C,D FROM " + src + " WHERE " + col + " > " +
           std::to_string(rng_.Int(0, 3)) + ";");
      src = f;
    }

    // The shared subexpression: its name, key columns, and value columns.
    std::string shared = m + "S";
    std::vector<std::string> keys;
    std::vector<std::string> vals;
    if (rng_.Chance(opts_.shared_join_prob)) {
      // Shared multi-key join of two aggregated extracts.
      std::string file2 = NewFile("g" + std::to_string(j) + "b");
      std::string e2 = m + "E2";
      Line(e2 + " = EXTRACT A,B,C,D FROM \"" + file2 +
           "\" USING LogExtractor;");
      keys = RandomSubset(rng_, {"A", "B"});
      if (keys.size() < 2 && rng_.Chance(0.5)) keys = {"A", "B"};
      std::string ks = JoinNames(keys);
      std::string left = m + "L";
      std::string right = m + "R";
      Line(left + " = SELECT " + ks + ",Sum(D) AS S FROM " + src +
           " GROUP BY " + ks + ";");
      Line(right + " = SELECT " + ks + "," + rng_.Pick(IntAggFns()) +
           "(D) AS T FROM " + e2 + " GROUP BY " + ks + ";");
      std::string sel, where;
      for (size_t i = 0; i < keys.size(); ++i) {
        sel += left + "." + keys[i] + ",";
        if (i > 0) where += " AND ";
        where += left + "." + keys[i] + "=" + right + "." + keys[i];
      }
      Line(shared + " = SELECT " + sel + "S,T FROM " + left + "," + right +
           " WHERE " + where + ";");
      vals = {"S", "T"};
    } else {
      // Shared aggregate on 2–3 key columns.
      keys = RandomSubset(rng_, {"A", "B", "C"});
      if (keys.size() < 2) keys.push_back(keys[0] == "A" ? "B" : "A");
      std::string ks = JoinNames(keys);
      Line(shared + " = SELECT " + ks + "," + rng_.Pick(IntAggFns()) +
           "(D) AS S FROM " + src + " GROUP BY " + ks + ";");
      vals = {"S"};
    }

    int consumers = opts_.force_single_consumer
                        ? 1
                        : rng_.Int(opts_.min_consumers, opts_.max_consumers);
    for (int c = 0; c < consumers; ++c) {
      EmitConsumer(j, c, extract, shared, keys, vals);
    }
  }

  /// One consumer of the shared node `shared` (schema: keys ++ vals, all
  /// int64).
  void EmitConsumer(int j, int c, const std::string& extract,
                    const std::string& shared,
                    const std::vector<std::string>& keys,
                    const std::vector<std::string>& vals) {
    std::string base =
        "M" + std::to_string(j) + "C" + std::to_string(c);
    std::string sink =
        "o" + std::to_string(j) + "_" + std::to_string(c) + ".out";
    if (opts_.force_expr_consumers) {
      EmitExprConsumer(base, sink, shared, keys, vals);
      return;
    }
    if (opts_.force_pipeline_consumers) {
      EmitPipelineConsumer(base, sink, shared, keys, vals);
      return;
    }
    double roll = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;

    if (roll < opts_.union_consumer_prob) {
      // Two structurally different aggregations of the shared node with
      // positionally identical schemas, concatenated.
      std::vector<std::string> gb = RandomSubset(rng_, keys);
      std::string ks = JoinNames(gb);
      const std::string& val = rng_.Pick(vals);
      Line(base + "A = SELECT " + ks + ",Sum(" + val + ") AS V FROM " +
           shared + " GROUP BY " + ks + ";");
      Line(base + "B = SELECT " + ks + "," +
           (rng_.Chance(0.5) ? "Min" : "Max") + "(" + val + ") AS V FROM " +
           shared + " GROUP BY " + ks + ";");
      Line(base + " = UNION ALL " + base + "A," + base + "B;");
      Output(base, sink);
      return;
    }
    roll -= opts_.union_consumer_prob;

    if (roll < opts_.join_consumer_prob) {
      // Two aggregations of the shared node joined back together on their
      // grouping keys (the S4 shape: non-independent sharing).
      std::vector<std::string> gb = RandomSubset(rng_, keys);
      std::string ks = JoinNames(gb);
      std::string left = base + "A";
      std::string right = base + "B";
      const std::string& val = rng_.Pick(vals);
      bool ordered = rng_.Chance(opts_.order_by_prob);
      Line(left + " = SELECT " + ks + ",Sum(" + val + ") AS P FROM " +
           shared + " GROUP BY " + ks + (ordered ? " ORDER BY " + ks : "") +
           ";");
      Line(right + " = SELECT " + ks + ",Max(" + val + ") AS Q FROM " +
           shared + " GROUP BY " + ks + ";");
      std::string sel, where;
      for (size_t i = 0; i < gb.size(); ++i) {
        sel += left + "." + gb[i] + ",";
        if (i > 0) where += " AND ";
        where += left + "." + gb[i] + "=" + right + "." + gb[i];
      }
      Line(base + " = SELECT " + sel + "P,Q FROM " + left + "," + right +
           " WHERE " + where + ";");
      Output(base, sink);
      if (ordered) Output(left, sink + ".ord");
      return;
    }
    roll -= opts_.join_consumer_prob;

    if (roll < opts_.broadcast_consumer_prob) {
      // Raw extract joined with a small single-key aggregate of the shared
      // node — the big-small shape the optimizer answers with a broadcast
      // join. Also makes the extract itself a second shared subexpression.
      std::string key = rng_.Pick(keys);
      std::string dim = base + "D";
      const std::string& val = rng_.Pick(vals);
      Line(dim + " = SELECT " + key + ",Max(" + val + ") AS Cap FROM " +
           shared + " GROUP BY " + key + ";");
      std::string join = base + "J";
      Line(join + " = SELECT " + extract + "." + key + ",D,Cap FROM " +
           extract + "," + dim + " WHERE " + extract + "." + key + "=" +
           dim + "." + key + ";");
      Line(base + " = SELECT " + key + ",Sum(D) AS V,Min(Cap) AS W FROM " +
           join + " GROUP BY " + key + ";");
      Output(base, sink);
      return;
    }
    roll -= opts_.broadcast_consumer_prob;

    if (roll < opts_.expr_consumer_prob) {
      EmitExprConsumer(base, sink, shared, keys, vals);
      return;
    }
    roll -= opts_.expr_consumer_prob;

    if (roll < opts_.pipeline_consumer_prob) {
      EmitPipelineConsumer(base, sink, shared, keys, vals);
      return;
    }

    // Plain (optionally two-level) aggregation chain.
    std::vector<std::string> gb = RandomSubset(rng_, keys);
    std::string ks = JoinNames(gb);
    const std::string& val = rng_.Pick(vals);
    std::string fn = rng_.Pick(IntAggFns());
    std::string order;
    if (rng_.Chance(opts_.order_by_prob)) {
      order = " ORDER BY " + JoinNames(RandomSubset(rng_, gb));
    }
    Line(base + " = SELECT " + ks + "," + fn + "(" + val + ") AS V FROM " +
         shared + " GROUP BY " + ks + order + ";");
    if (gb.size() > 1 && rng_.Chance(opts_.second_level_prob)) {
      std::vector<std::string> gb2 = RandomSubset(rng_, gb);
      if (gb2.size() == gb.size()) gb2.pop_back();
      if (gb2.empty()) gb2.push_back(gb[0]);
      std::string deep = base + "X";
      Line(deep + " = SELECT " + JoinNames(gb2) + ",Sum(V) AS W FROM " +
           base + " GROUP BY " + JoinNames(gb2) + ";");
      Output(deep, sink);
    } else {
      Output(base, sink);
    }
  }

  /// Consumer with a Compute stage of deep arithmetic select items that
  /// deliberately repeat a subterm — textually, and operand-swapped for `+`
  /// (which the expression-CSE pass merges via commutative
  /// canonicalization) — then aggregates the computed columns back down.
  /// `/` results are double (0 on a zero divisor by the engine's
  /// definition), so the batch-vs-row oracle also covers the double
  /// kernels and float-addition ordering in aggregates.
  void EmitExprConsumer(const std::string& base, const std::string& sink,
                        const std::string& shared,
                        const std::vector<std::string>& keys,
                        const std::vector<std::string>& vals) {
    std::vector<std::string> cols = keys;
    cols.insert(cols.end(), vals.begin(), vals.end());

    const std::string a = rng_.Pick(cols);
    const std::string b = rng_.Pick(cols);
    bool add = rng_.Chance(0.7);
    std::string t = "(" + a + (add ? "+" : "-") + b + ")";
    // Operand-swapped duplicate of `t`: structurally distinct in the
    // script text, equal after commutative canonicalization ('+' only;
    // for '-' we repeat the exact spelling instead).
    std::string dup = add && rng_.Chance(0.5) ? "(" + b + "+" + a + ")" : t;
    const std::string m = rng_.Pick(cols);
    const std::string gk = rng_.Pick(keys);

    std::string compute = base + "E";
    std::string items = gk + "," + t + "*" + t + " AS X," + t + "*" + m +
                        " AS Y," + m + "*" + m + "+" + dup + " AS Z";
    bool with_div = rng_.Chance(0.4);
    if (with_div) items += "," + m + "/" + dup + " AS Q";
    Line(compute + " = SELECT " + items + " FROM " + shared + ";");
    // Q is double, so it must be folded with an order-independent aggregate
    // (Max): the conventional and cse plans may legitimately feed the final
    // aggregation in different row orders, and a double Sum would diverge
    // in the last bits between the two plans.
    std::string aggs = "Sum(X) AS V,Min(Y) AS W,Max(Z) AS U";
    if (with_div) aggs += ",Max(Q) AS R";
    Line(base + " = SELECT " + gk + "," + aggs + " FROM " + compute +
         " GROUP BY " + gk + ";");
    Output(base, sink);
  }

  /// Consumer that runs the shared node through a deep alternating chain —
  /// filter, compute, filter, compute, ... — before aggregating. The
  /// filters keep a full column list (pure kFilter), the computes repeat a
  /// parenthesized subterm across items (sometimes operand-swapped), so the
  /// batch pipeline sees maximal fusable chains with real cross-stage
  /// duplicates, fed through a shared spool whenever the module has >= 2
  /// consumers.
  void EmitPipelineConsumer(const std::string& base, const std::string& sink,
                            const std::string& shared,
                            const std::vector<std::string>& keys,
                            const std::vector<std::string>& vals) {
    std::vector<std::string> cols = keys;
    cols.insert(cols.end(), vals.begin(), vals.end());
    const std::string gk = rng_.Pick(keys);

    std::string src = shared;
    int stages = rng_.Int(opts_.min_chain_stages, opts_.max_chain_stages);
    for (int s = 0; s < stages; ++s) {
      std::string name = base + "P" + std::to_string(s);
      if (s % 2 == 0) {
        // Filter stage: full column list, one predicate. Thresholds are
        // small so key filters genuinely cut while filters over computed
        // (squared, hence large) columns mostly pass — both selectivities
        // matter for the fused schedules.
        const std::string& c = rng_.Pick(cols);
        Line(name + " = SELECT " + JoinNames(cols) + " FROM " + src +
             " WHERE " + c + " > " + std::to_string(rng_.Int(0, 3)) + ";");
      } else {
        // Compute stage: keep the group key, replace the rest with
        // arithmetic over the current schema that repeats subterm `t`.
        const std::string a = rng_.Pick(cols);
        const std::string b = rng_.Pick(cols);
        const std::string m = rng_.Pick(cols);
        std::string t = "(" + a + "+" + b + ")";
        std::string dup =
            rng_.Chance(0.5) ? "(" + b + "+" + a + ")" : t;
        std::string sx = "X" + std::to_string(s);
        std::string sy = "Y" + std::to_string(s);
        Line(name + " = SELECT " + gk + "," + t + "*" + t + " AS " + sx +
             "," + dup + "-" + m + " AS " + sy + " FROM " + src + ";");
        cols = {gk, sx, sy};
      }
      src = name;
    }
    // All chain columns are int64 (+,-,* only), so Sum stays exact and
    // order-independent across plan shapes.
    const std::string& v = cols.back();
    Line(base + " = SELECT " + gk + ",Sum(" + v + ") AS V,Min(" + v +
         ") AS W FROM " + src + " GROUP BY " + gk + ";");
    Output(base, sink);
  }

  /// Independent unshared pipeline (extract -> filter -> agg -> output):
  /// padding where conventional and cse must coincide.
  void EmitFiller(int j) {
    std::string m = "M" + std::to_string(j);
    std::string file = NewFile("g" + std::to_string(j));
    Line(m + "E = EXTRACT A,B,C,D FROM \"" + file +
         "\" USING LogExtractor;");
    Line(m + "F = SELECT A,B,C,D FROM " + m + "E WHERE A > 0;");
    Line(m + "S = SELECT B,Sum(D) AS S FROM " + m + "F GROUP BY B;");
    Output(m + "S", "o" + std::to_string(j) + "_f.out");
  }

  Rng rng_;
  const ScriptGenOptions& opts_;
  GeneratedCase out_;
};

/// Generator state for one multi-script batch. Library modules are decided
/// once (text + input file) and spliced verbatim into every member script,
/// so the merged memo's fingerprint pass sees structurally identical
/// sub-DAGs across scripts. All arithmetic stays in int64 (+,-,* and
/// Sum/Min/Max/Count), so per-script outputs are bit-exact regardless of
/// the row order the merged plan feeds consumers in.
class BatchGenerator {
 public:
  BatchGenerator(uint64_t seed, const BatchGenOptions& opts)
      : rng_(seed ^ 0xb47cb47cb47cb47cull), opts_(opts) {
    out_.seed = seed;
  }

  GeneratedBatch Run() {
    int k = rng_.Int(opts_.min_scripts, opts_.max_scripts);
    out_.scripts.assign(static_cast<size_t>(k), "");

    int modules =
        rng_.Int(opts_.min_library_modules, opts_.max_library_modules);
    std::vector<bool> has_library(static_cast<size_t>(k), false);
    for (int l = 0; l < modules; ++l) {
      EmitLibraryModule(l, k, &has_library);
    }
    for (int i = 0; i < k; ++i) {
      // Every script must produce at least one output; scripts outside all
      // library member sets always get a private module.
      if (!has_library[i] || rng_.Chance(opts_.private_module_prob)) {
        EmitPrivateModule(i);
      }
    }
    return std::move(out_);
  }

 private:
  void Line(int script, const std::string& s) {
    out_.scripts[static_cast<size_t>(script)] += s + "\n";
  }

  std::string NewFile(const std::string& path, int64_t rows) {
    std::vector<int64_t> ndvs = {
        rng_.Pick<int64_t>({2, 4, 8, 16}),
        rng_.Pick<int64_t>({10, 25, 50}),
        rng_.Pick<int64_t>({2, 4, 8}),
        rng_.Pick<int64_t>({50, 200, 500}),
    };
    Status s = out_.catalog.RegisterLog(path, {"A", "B", "C", "D"}, rows,
                                        ndvs, /*data_seed=*/rng_.Next());
    (void)s;  // paths are unique by construction
    return path;
  }

  /// The member scripts of one library module: a deterministic shuffle of
  /// [0, k), truncated to max(1, ceil(k * overlap)).
  std::vector<int> PickMembers(int k) {
    std::vector<int> order(static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) order[i] = i;
    for (int i = k - 1; i > 0; --i) {
      std::swap(order[i], order[rng_.Int(0, i)]);
    }
    int members = static_cast<int>(
        std::ceil(static_cast<double>(k) * opts_.overlap));
    members = std::max(1, std::min(members, k));
    order.resize(static_cast<size_t>(members));
    std::sort(order.begin(), order.end());
    return order;
  }

  /// One library module: module text decided once, emitted verbatim into
  /// every member script, followed by per-script consumers.
  void EmitLibraryModule(int l, int k, std::vector<bool>* has_library) {
    std::string m = "L" + std::to_string(l);
    std::string file =
        NewFile("lib" + std::to_string(l) + ".log", opts_.library_rows);

    std::vector<std::string> keys = RandomSubset(rng_, {"A", "B", "C"});
    if (keys.size() < 2) keys.push_back(keys[0] == "A" ? "B" : "A");
    std::string ks = JoinNames(keys);
    std::string fn = rng_.Pick(IntAggFns());
    bool filtered = rng_.Chance(0.5);
    std::string fcol = rng_.Chance(0.5) ? "D" : "C";
    int fthresh = rng_.Int(0, 3);

    std::vector<std::string> module_text;
    module_text.push_back(m + "E = EXTRACT A,B,C,D FROM \"" + file +
                          "\" USING LogExtractor;");
    std::string src = m + "E";
    if (filtered) {
      module_text.push_back(m + "F = SELECT A,B,C,D FROM " + src +
                            " WHERE " + fcol + " > " +
                            std::to_string(fthresh) + ";");
      src = m + "F";
    }
    std::string shared = m + "S";
    module_text.push_back(shared + " = SELECT " + ks + "," + fn +
                          "(D) AS S FROM " + src + " GROUP BY " + ks + ";");

    for (int i : PickMembers(k)) {
      (*has_library)[static_cast<size_t>(i)] = true;
      for (const std::string& stmt : module_text) Line(i, stmt);
      int consumers = rng_.Int(opts_.min_consumers, opts_.max_consumers);
      for (int c = 0; c < consumers; ++c) {
        EmitConsumer(i, m + "C" + std::to_string(c),
                     "s" + std::to_string(i) + "_l" + std::to_string(l) +
                         "_" + std::to_string(c) + ".out",
                     shared, keys);
      }
    }
  }

  /// One private module for script `i`: same shape as a library module but
  /// over a per-script file, so it can never merge across scripts.
  void EmitPrivateModule(int i) {
    std::string m = "P" + std::to_string(i);
    std::string file = NewFile("p" + std::to_string(i) + ".log",
                               rng_.Int64(opts_.min_rows, opts_.max_rows));
    Line(i, m + "E = EXTRACT A,B,C,D FROM \"" + file +
                "\" USING LogExtractor;");
    std::string src = m + "E";
    if (rng_.Chance(0.5)) {
      Line(i, m + "F = SELECT A,B,C,D FROM " + src + " WHERE D > " +
                  std::to_string(rng_.Int(0, 3)) + ";");
      src = m + "F";
    }
    std::vector<std::string> keys = RandomSubset(rng_, {"A", "B"});
    if (keys.empty()) keys = {"A"};
    std::string ks = JoinNames(keys);
    std::string shared = m + "S";
    Line(i, shared + " = SELECT " + ks + "," + rng_.Pick(IntAggFns()) +
                "(D) AS S FROM " + src + " GROUP BY " + ks + ";");
    int consumers = rng_.Int(opts_.min_consumers, opts_.max_consumers);
    for (int c = 0; c < consumers; ++c) {
      EmitConsumer(i, m + "C" + std::to_string(c),
                   "s" + std::to_string(i) + "_p" + std::to_string(c) +
                       ".out",
                   shared, keys);
    }
  }

  /// One consumer of `shared` (schema: keys ++ {S}, all int64) in script
  /// `i`. Three shapes: plain (optionally two-level) aggregation, repeated-
  /// subterm arithmetic, or two aggregations joined back on their keys.
  void EmitConsumer(int i, const std::string& base, const std::string& sink,
                    const std::string& shared,
                    const std::vector<std::string>& keys) {
    double roll = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
    std::vector<std::string> gb = RandomSubset(rng_, keys);
    std::string ks = JoinNames(gb);

    if (roll < 0.25) {
      // Arithmetic consumer: a compute stage that repeats subterm `t`
      // (sometimes operand-swapped), then integer aggregates.
      std::vector<std::string> cols = keys;
      cols.push_back("S");
      const std::string a = rng_.Pick(cols);
      const std::string b = rng_.Pick(cols);
      const std::string gk = rng_.Pick(keys);
      std::string t = "(" + a + "+" + b + ")";
      std::string dup = rng_.Chance(0.5) ? "(" + b + "+" + a + ")" : t;
      Line(i, base + "E = SELECT " + gk + "," + t + "*" + t + " AS X," +
                  dup + "-S AS Y FROM " + shared + ";");
      Line(i, base + " = SELECT " + gk +
                  ",Sum(X) AS V,Min(Y) AS W FROM " + base + "E GROUP BY " +
                  gk + ";");
    } else if (roll < 0.45) {
      // Join-back consumer (the S4 shape: non-independent sharing).
      Line(i, base + "A = SELECT " + ks + ",Sum(S) AS P FROM " + shared +
                  " GROUP BY " + ks + ";");
      Line(i, base + "B = SELECT " + ks + ",Max(S) AS Q FROM " + shared +
                  " GROUP BY " + ks + ";");
      std::string sel, where;
      for (size_t j = 0; j < gb.size(); ++j) {
        sel += base + "A." + gb[j] + ",";
        if (j > 0) where += " AND ";
        where += base + "A." + gb[j] + "=" + base + "B." + gb[j];
      }
      Line(i, base + " = SELECT " + sel + "P,Q FROM " + base + "A," + base +
                  "B WHERE " + where + ";");
    } else {
      std::string fn = rng_.Pick(IntAggFns());
      Line(i, base + " = SELECT " + ks + "," + fn + "(S) AS V FROM " +
                  shared + " GROUP BY " + ks + ";");
      if (gb.size() > 1 && rng_.Chance(0.35)) {
        std::string deep = base + "X";
        Line(i, deep + " = SELECT " + gb[0] + ",Sum(V) AS W FROM " + base +
                    " GROUP BY " + gb[0] + ";");
        Line(i, "OUTPUT " + deep + " TO \"" + sink + "\";");
        return;
      }
    }
    Line(i, "OUTPUT " + base + " TO \"" + sink + "\";");
  }

  Rng rng_;
  const BatchGenOptions& opts_;
  GeneratedBatch out_;
};

}  // namespace

GeneratedCase GenerateScript(uint64_t seed, const ScriptGenOptions& options) {
  Generator gen(seed, options);
  return gen.Run();
}

GeneratedBatch GenerateScriptBatch(uint64_t seed,
                                   const BatchGenOptions& options) {
  BatchGenerator gen(seed, options);
  return gen.Run();
}

}  // namespace scx

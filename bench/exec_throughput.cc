// Executor throughput: RowKeyTable vs the former std::map hot paths, and
// end-to-end script execution at 1 and N worker threads.
//
// Two sections:
//   * kernels — single-threaded aggregation / join / shuffle microkernels
//     over synthetic rows, each run twice: with the tree-map structure the
//     executor used before (std::map keyed by materialized
//     std::vector<Value>, per-row copy scatter) and with the current
//     open-addressed RowKeyTable / move-based scatter. Both variants must
//     produce identical results; the speedup column is the point.
//   * scripts — S1–S4 and the LS1/LS2 generators, optimized once in CSE
//     mode, then the same plan executed four ways: batch_size = 1 (the
//     legacy row pipeline), the default batch size serially, the default
//     batch size with N worker threads at morsel granularity, and the same
//     N threads with one whole-partition morsel per partition. Outputs and
//     legacy counters must be bit-identical across all four (exit 1
//     otherwise), so this doubles as a determinism gate; the row-vs-batched
//     pair is the end-to-end payoff of the columnar pipeline
//     (batch_speedup), and the partition-vs-morsel pair isolates the morsel
//     scheduler's overhead/benefit (morsel_speedup).
//
// Writes BENCH_exec.json (rates keyed *_rows_per_sec for tools/bench_diff.py).

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/hash.h"
#include "exec/column_batch.h"
#include "exec/row_key_table.h"
#include "exec/vector_kernels.h"
#include "plan/expr_cse.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace {

using namespace scx;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Kernels.

struct KernelRow {
  std::string name;
  int64_t rows = 0;
  double seconds = 0;
  double rows_per_sec = 0;
  double speedup = 0;  // vs the matching baseline variant (0 for baselines)
  double checksum = 0;
};

// Rows are {key1, key2, value}: group/join keys are composite, like the
// paper scripts' GROUP BY {A,B,C}. Inputs are generated once, outside the
// timed region.
std::vector<Row> MakeKernelRows(int64_t n, int64_t ndv1, int64_t ndv2,
                                uint64_t seed) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    uint64_t h = Mix64(seed ^ static_cast<uint64_t>(i));
    rows.push_back(
        Row{Value::Int(static_cast<int64_t>(h % static_cast<uint64_t>(ndv1))),
            Value::Int(static_cast<int64_t>((h >> 32) %
                                            static_cast<uint64_t>(ndv2))),
            Value::Int(i % 1000)});
  }
  return rows;
}

KernelRow MeasureKernel(const char* name, int64_t rows,
                        const std::function<double()>& body,
                        const KernelRow* baseline) {
  KernelRow r;
  r.name = name;
  r.rows = rows;
  Clock::time_point start = Clock::now();
  double checksum = body();
  r.checksum = checksum;
  r.seconds = SecondsSince(start);
  r.rows_per_sec = r.seconds > 0 ? static_cast<double>(rows) / r.seconds : 0;
  if (baseline != nullptr && r.seconds > 0) {
    r.speedup = baseline->seconds / r.seconds;
  }
  std::printf("%-14s %10lld rows %9.3fs %12.0f rows/s", name,
              static_cast<long long>(rows), r.seconds, r.rows_per_sec);
  if (baseline != nullptr) std::printf("  %5.2fx", r.speedup);
  std::printf("   (checksum %.0f)\n", checksum);
  return r;
}

constexpr int64_t kAggRows = 400000;
constexpr int64_t kProbeRows = 400000;
constexpr int64_t kBuildRows = 100000;
constexpr int64_t kShuffleRows = 400000;
constexpr int kShuffleDests = 16;
const std::vector<int> kKeyPos = {0, 1};

double AggMapBody(const std::vector<Row>& input) {
  // The executor's former aggregation structure: a tree map keyed by the
  // materialized key vector.
  std::map<std::vector<Value>, std::pair<double, int64_t>> groups;
  for (const Row& r : input) {
    std::vector<Value> key{r[0], r[1]};
    auto& s = groups[std::move(key)];
    s.first += r[2].AsNumeric();
    ++s.second;
  }
  double sum = 0;
  for (const auto& [k, s] : groups) {
    (void)k;
    sum += s.first;
  }
  return sum + static_cast<double>(groups.size());
}

double AggTableBody(const std::vector<Row>& input) {
  RowKeyTable table(input.size());
  std::vector<std::pair<double, int64_t>> states;
  for (const Row& r : input) {
    auto [id, inserted] = table.FindOrInsert(r, kKeyPos);
    if (inserted) states.emplace_back(0.0, 0);
    states[id].first += r[2].AsNumeric();
    ++states[id].second;
  }
  double sum = 0;
  for (const auto& s : states) sum += s.first;
  return sum + static_cast<double>(table.size());
}

double JoinMapBody(const std::vector<Row>& build,
                   const std::vector<Row>& probe) {
  std::map<std::vector<Value>, std::vector<const Row*>> table;
  for (const Row& r : build) table[{r[0], r[1]}].push_back(&r);
  int64_t matches = 0;
  for (const Row& l : probe) {
    auto it = table.find({l[0], l[1]});
    if (it == table.end()) continue;
    matches += static_cast<int64_t>(it->second.size());
  }
  return static_cast<double>(matches);
}

double JoinTableBody(const std::vector<Row>& build,
                     const std::vector<Row>& probe) {
  RowKeyTable table(build.size());
  std::vector<std::vector<const Row*>> rows_by_key;
  for (const Row& r : build) {
    auto [id, inserted] = table.FindOrInsert(r, kKeyPos);
    if (inserted) rows_by_key.emplace_back();
    rows_by_key[id].push_back(&r);
  }
  int64_t matches = 0;
  for (const Row& l : probe) {
    size_t id = table.Find(l, kKeyPos);
    if (id == RowKeyTable::kNotFound) continue;
    matches += static_cast<int64_t>(rows_by_key[id].size());
  }
  return static_cast<double>(matches);
}

const std::vector<int> kAllPos = {0, 1, 2};

/// Batched variant of AggTableBody: the executor's columnar aggregation
/// path — whole-column key hashing, hashed table probes, column-major
/// state updates. Checksum must equal AggTableBody's exactly.
double AggBatchBody(const std::vector<Row>& input, size_t batch_size) {
  RowKeyTable table(input.size());
  std::vector<std::pair<double, int64_t>> states;
  std::vector<uint64_t> hashes;
  std::vector<size_t> ids;
  for (size_t begin = 0; begin < input.size(); begin += batch_size) {
    size_t end = std::min(input.size(), begin + batch_size);
    ColumnBatch batch = BatchFromRows(input, begin, end, 3, kAllPos);
    HashColumns(batch, kKeyPos, &hashes);
    ids.resize(batch.rows);
    for (size_t r = 0; r < batch.rows; ++r) {
      auto [id, inserted] = table.FindOrInsertHashed(
          hashes[r],
          [&](const Row& key) {
            return batch.col(0).CellEquals(r, key[0]) &&
                   batch.col(1).CellEquals(r, key[1]);
          },
          [&] {
            return Row{batch.col(0).ValueAt(r), batch.col(1).ValueAt(r)};
          });
      if (inserted) states.emplace_back(0.0, 0);
      ids[r] = id;
    }
    const int64_t* v = batch.col(2).ints().data();
    for (size_t r = 0; r < batch.rows; ++r) {
      auto& s = states[ids[r]];
      s.first += static_cast<double>(v[r]);
      ++s.second;
    }
  }
  double sum = 0;
  for (const auto& s : states) sum += s.first;
  return sum + static_cast<double>(table.size());
}

/// Batched variant of JoinTableBody: build and probe keys hashed per whole
/// column chunk.
double JoinBatchBody(const std::vector<Row>& build,
                     const std::vector<Row>& probe, size_t batch_size) {
  RowKeyTable table(build.size());
  std::vector<std::vector<const Row*>> rows_by_key;
  std::vector<uint64_t> hashes;
  for (size_t begin = 0; begin < build.size(); begin += batch_size) {
    size_t end = std::min(build.size(), begin + batch_size);
    ColumnBatch batch = BatchFromRows(build, begin, end, 3, kKeyPos);
    HashColumns(batch, kKeyPos, &hashes);
    for (size_t r = 0; r < batch.rows; ++r) {
      auto [id, inserted] = table.FindOrInsertHashed(
          hashes[r],
          [&](const Row& key) {
            return batch.col(0).CellEquals(r, key[0]) &&
                   batch.col(1).CellEquals(r, key[1]);
          },
          [&] {
            return Row{batch.col(0).ValueAt(r), batch.col(1).ValueAt(r)};
          });
      if (inserted) rows_by_key.emplace_back();
      rows_by_key[id].push_back(&build[begin + r]);
    }
  }
  int64_t matches = 0;
  for (size_t begin = 0; begin < probe.size(); begin += batch_size) {
    size_t end = std::min(probe.size(), begin + batch_size);
    ColumnBatch batch = BatchFromRows(probe, begin, end, 3, kKeyPos);
    HashColumns(batch, kKeyPos, &hashes);
    for (size_t i = 0; i < batch.rows; ++i) {
      size_t id = table.FindHashed(hashes[i], [&](const Row& key) {
        return batch.col(0).CellEquals(i, key[0]) &&
               batch.col(1).CellEquals(i, key[1]);
      });
      if (id == RowKeyTable::kNotFound) continue;
      matches += static_cast<int64_t>(rows_by_key[id].size());
    }
  }
  return static_cast<double>(matches);
}

Schema MakeKernelSchema() {
  return Schema({ColumnInfo{1, "k1", "", DataType::kInt64},
                 ColumnInfo{2, "k2", "", DataType::kInt64},
                 ColumnInfo{3, "v", "", DataType::kInt64}});
}

std::vector<BoundPredicate> MakeFilterPreds() {
  BoundPredicate p1;
  p1.lhs = 1;
  p1.op = CompareOp::kLt;
  p1.literal = Value::Int(150);
  BoundPredicate p2;
  p2.lhs = 2;
  p2.op = CompareOp::kGe;
  p2.literal = Value::Int(20);
  return {p1, p2};
}

double FilterRowsBody(const std::vector<Row>& input, const Schema& schema,
                      const std::vector<BoundPredicate>& preds) {
  double sum = 0;
  for (const Row& r : input) {
    bool pass = true;
    for (const BoundPredicate& pred : preds) {
      if (!pred.Evaluate(r, schema)) {
        pass = false;
        break;
      }
    }
    if (pass) sum += static_cast<double>(r[2].as_int());
  }
  return sum;
}

double SelectRowsBody(const std::vector<Row>& input, const Schema& schema,
                      const BoundPredicate& pred) {
  int64_t n = 0;
  for (const Row& r : input) {
    if (pred.Evaluate(r, schema)) ++n;
  }
  return static_cast<double>(n);
}

/// One SelectByPredicate pass over a dense int64 column: the branchless
/// mask-and-append loop the simd-guard markers protect. Run twice — with a
/// predicate nearly every row passes (dense) and one few rows pass
/// (selective) — to show the branchless form's throughput is selectivity-
/// independent, where the branchy form it replaced was not.
double SelectBatchBody(const BatchPartition& part,
                       const BoundPredicate& pred) {
  SelectionVector sel;
  SelectByPredicate(*part.columns[0], nullptr, pred.literal, pred.op,
                    part.rows, /*first=*/true, &sel);
  return static_cast<double>(sel.size());
}

double FilterBatchBody(const BatchPartition& part,
                       const std::vector<BoundPredicate>& preds) {
  // Batch-native operator boundary: the input is already columnar (the
  // producing operator hands over shared columns), the filter only narrows
  // a selection vector, and the consumer reads survivors through it — no
  // row<->column conversion anywhere. This is exactly the executor's
  // whole-partition filter stage.
  SelectionVector sel;
  SelectByPredicate(*part.columns[0], nullptr, preds[0].literal, preds[0].op,
                    part.rows, /*first=*/true, &sel);
  if (!sel.empty()) {
    SelectByPredicate(*part.columns[1], nullptr, preds[1].literal,
                      preds[1].op, part.rows, /*first=*/false, &sel);
  }
  const int64_t* v = part.columns[2]->ints().data();
  double sum = 0;
  for (uint32_t i : sel) sum += static_cast<double>(v[i]);
  return sum;
}

/// Expression-heavy compute stage with deliberate duplication: (a+b)
/// appears in three items (once operand-swapped) and c*c in two, so the
/// CSE schedule computes them once per batch.
std::vector<ComputeItem> MakeExprItems() {
  ScalarExprPtr a = ScalarExpr::Column(1);
  ScalarExprPtr b = ScalarExpr::Column(2);
  ScalarExprPtr c = ScalarExpr::Column(3);
  ScalarExprPtr ab = ScalarExpr::Binary(ScalarExpr::BinOp::kAdd, a, b);
  ScalarExprPtr ba = ScalarExpr::Binary(ScalarExpr::BinOp::kAdd, b, a);
  ScalarExprPtr cc = ScalarExpr::Binary(ScalarExpr::BinOp::kMul, c, c);
  std::vector<ComputeItem> items;
  items.push_back({ScalarExpr::Binary(ScalarExpr::BinOp::kMul, ab, ab), 10,
                   "e0"});
  items.push_back({ScalarExpr::Binary(ScalarExpr::BinOp::kMul, ab, c), 11,
                   "e1"});
  items.push_back({ScalarExpr::Binary(ScalarExpr::BinOp::kAdd, cc, ba), 12,
                   "e2"});
  items.push_back({ScalarExpr::Binary(ScalarExpr::BinOp::kDiv, cc, ab), 13,
                   "e3"});
  return items;
}

double ExprRowsBody(const std::vector<Row>& input, const Schema& schema,
                    const std::vector<ComputeItem>& items) {
  // Per-item accumulators: both variants then add each item's values in
  // global row order, so the float checksums are bit-identical.
  std::vector<double> acc(items.size(), 0.0);
  for (const Row& r : input) {
    for (size_t k = 0; k < items.size(); ++k) {
      acc[k] += items[k].expr->Evaluate(r, schema).AsNumeric();
    }
  }
  double sum = 0;
  for (double a : acc) sum += a;
  return sum;
}

double ExprBatchBody(const std::vector<Row>& input,
                     const std::vector<ComputeItem>& items,
                     size_t batch_size) {
  ExprSchedule sched = BuildExprSchedule(items);
  std::vector<int> step_pos(sched.steps.size(), -1);
  for (size_t s = 0; s < sched.steps.size(); ++s) {
    if (sched.steps[s].kind == ScalarExpr::Kind::kColumn) {
      step_pos[s] = static_cast<int>(sched.steps[s].column) - 1;
    }
  }
  std::vector<double> acc(items.size(), 0.0);
  EvaluatedSchedule ev;
  for (size_t begin = 0; begin < input.size(); begin += batch_size) {
    size_t end = std::min(input.size(), begin + batch_size);
    ColumnBatch batch = BatchFromRows(input, begin, end, 3, kAllPos);
    EvalExprSchedule(sched, batch, step_pos, &ev);
    for (size_t k = 0; k < sched.item_steps.size(); ++k) {
      const ColumnVector& col =
          *ev.cols[static_cast<size_t>(sched.item_steps[k])];
      if (col.rep() == ColumnRep::kInt64) {
        for (int64_t v : col.ints()) acc[k] += static_cast<double>(v);
      } else {
        for (double v : col.doubles()) acc[k] += v;
      }
    }
  }
  double sum = 0;
  for (double a : acc) sum += a;
  return sum;
}

double ShuffleCopyBody(const std::vector<Row>& input) {
  std::vector<std::vector<Row>> buckets(kShuffleDests);
  for (const Row& r : input) {
    buckets[HashRowKey(r, kKeyPos) % kShuffleDests].push_back(r);
  }
  double total = 0;
  for (const auto& b : buckets) total += static_cast<double>(b.size());
  return total;
}

double ShuffleMoveBody(std::vector<Row>& input) {
  std::vector<uint32_t> dest(input.size());
  std::vector<size_t> count(kShuffleDests, 0);
  for (size_t i = 0; i < input.size(); ++i) {
    dest[i] = static_cast<uint32_t>(HashRowKey(input[i], kKeyPos) %
                                    kShuffleDests);
    ++count[dest[i]];
  }
  std::vector<std::vector<Row>> buckets(kShuffleDests);
  for (int d = 0; d < kShuffleDests; ++d) buckets[d].reserve(count[d]);
  for (size_t i = 0; i < input.size(); ++i) {
    buckets[dest[i]].push_back(std::move(input[i]));
  }
  double total = 0;
  for (const auto& b : buckets) total += static_cast<double>(b.size());
  return total;
}

// ---------------------------------------------------------------------------
// Scripts.

struct ExecRun {
  double seconds = 0;
  int64_t processed_rows = 0;  // extracted + shuffled + output
  ExecMetrics metrics;

  double rows_per_sec() const {
    return seconds > 0 ? static_cast<double>(processed_rows) / seconds : 0;
  }
  double rate(int64_t rows) const {
    return seconds > 0 ? static_cast<double>(rows) / seconds : 0;
  }
};

struct ScriptRow {
  std::string name;
  ExecRun row1;  // batch_size = 1: the legacy row-at-a-time pipeline
  ExecRun t1;    // default batch size, serial
  ExecRun tn;    // default batch size, N threads, default morsel size
  ExecRun part;  // N threads, one whole-partition morsel per partition
  bool identical = false;         // t1 vs tn (thread invariance)
  bool batch_identical = false;   // row1 vs t1 (pipeline bit-identity)
  bool morsel_identical = false;  // part vs tn (morsel-size invariance)

  double batch_speedup() const {
    return t1.seconds > 0 ? row1.seconds / t1.seconds : 0;
  }
  double morsel_speedup() const {
    return tn.seconds > 0 ? part.seconds / tn.seconds : 0;
  }
};

bool SameCounters(const ExecMetrics& a, const ExecMetrics& b) {
  return a.rows_extracted == b.rows_extracted &&
         a.rows_shuffled == b.rows_shuffled &&
         a.bytes_shuffled == b.bytes_shuffled &&
         a.bytes_spooled == b.bytes_spooled &&
         a.rows_spooled == b.rows_spooled &&
         a.spool_executions == b.spool_executions &&
         a.spool_reads == b.spool_reads &&
         a.spool_cache_hits == b.spool_cache_hits &&
         a.operator_invocations == b.operator_invocations &&
         a.rows_output == b.rows_output;
}

bool RunPlan(const PhysicalNodePtr& plan, int machines, int threads,
             int batch_size, int morsel_size, ExecRun* out) {
  ClusterConfig cluster;
  cluster.machines = machines;
  cluster.exec_threads = threads;
  cluster.batch_size = batch_size;
  cluster.morsel_size = morsel_size;
  Executor executor(cluster);
  Clock::time_point start = Clock::now();
  auto metrics = executor.Execute(plan);
  out->seconds = SecondsSince(start);
  if (!metrics.ok()) {
    std::fprintf(stderr, "execute: %s\n",
                 metrics.status().ToString().c_str());
    return false;
  }
  out->metrics = std::move(metrics.value());
  out->processed_rows = out->metrics.rows_extracted +
                        out->metrics.rows_shuffled +
                        out->metrics.rows_output;
  return true;
}

/// Best-of-three timing: the scripts run in tens of milliseconds, so a
/// single-shot measurement is too noisy for the 10% bench_diff gates.
/// Execution is deterministic, so keeping the fastest run's metrics loses
/// nothing.
bool RunPlanBest(const PhysicalNodePtr& plan, int machines, int threads,
                 int batch_size, int morsel_size, ExecRun* out) {
  for (int rep = 0; rep < 3; ++rep) {
    ExecRun r;
    if (!RunPlan(plan, machines, threads, batch_size, morsel_size, &r)) {
      return false;
    }
    if (rep == 0 || r.seconds < out->seconds) *out = std::move(r);
  }
  return true;
}

bool MeasureScript(const char* name, const Catalog& catalog,
                   const std::string& text, int machines, int nthreads,
                   std::vector<ScriptRow>* out) {
  OptimizerConfig config;
  config.cluster.machines = machines;
  Engine engine(catalog, config);
  auto compiled = engine.Compile(text);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile %s: %s\n", name,
                 compiled.status().ToString().c_str());
    return false;
  }
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  if (!optimized.ok()) {
    std::fprintf(stderr, "optimize %s: %s\n", name,
                 optimized.status().ToString().c_str());
    return false;
  }

  ScriptRow r;
  r.name = name;
  const int batch = DefaultBatchSize();
  // Morsel sizes: 0 = default (SCX_MORSEL_SIZE env / DefaultMorselSize),
  // 1<<30 = effectively one morsel per partition.
  if (!RunPlanBest(optimized->plan(), machines, 1, 1, 0, &r.row1)) {
    return false;
  }
  if (!RunPlanBest(optimized->plan(), machines, 1, batch, 0, &r.t1)) {
    return false;
  }
  if (!RunPlanBest(optimized->plan(), machines, nthreads, batch, 0, &r.tn)) {
    return false;
  }
  if (!RunPlanBest(optimized->plan(), machines, nthreads, batch, 1 << 30,
               &r.part)) {
    return false;
  }
  r.identical = SameCounters(r.t1.metrics, r.tn.metrics) &&
                r.t1.metrics.outputs == r.tn.metrics.outputs;
  // Pipeline bit-identity gate: the batched pipeline must reproduce the
  // legacy row path's outputs and legacy counters exactly.
  r.batch_identical = SameCounters(r.row1.metrics, r.t1.metrics) &&
                      r.row1.metrics.outputs == r.t1.metrics.outputs;
  // Morsel-size invariance gate: splitting partitions into morsels must not
  // change outputs or legacy counters vs whole-partition scheduling.
  r.morsel_identical = SameCounters(r.part.metrics, r.tn.metrics) &&
                       r.part.metrics.outputs == r.tn.metrics.outputs;
  std::printf(
      "%-5s row %8.3fs | batch %8.3fs %12.0f r/s  %5.2fx | x%d %8.3fs "
      "%12.0f r/s  %5.2fx vs part  %9s %9s %9s\n",
      name, r.row1.seconds, r.t1.seconds, r.t1.rows_per_sec(),
      r.batch_speedup(), nthreads, r.tn.seconds, r.tn.rows_per_sec(),
      r.morsel_speedup(),
      r.identical ? "identical" : "DIVERGED",
      r.batch_identical ? "bit-exact" : "BATCH-DIVERGED",
      r.morsel_identical ? "morsel-ok" : "MORSEL-DIVERGED");
  out->push_back(std::move(r));
  return true;
}

// ---------------------------------------------------------------------------
// JSON.

void WriteExecRunJson(FILE* f, const char* key, const ExecRun& r,
                      int threads) {
  const ExecMetrics& m = r.metrics;
  std::fprintf(f,
               "     \"%s\": {\"threads\": %d, \"seconds\": %.6f, "
               "\"rows_per_sec\": %.1f, "
               "\"extract_rows_per_sec\": %.1f, "
               "\"shuffle_rows_per_sec\": %.1f, "
               "\"output_rows_per_sec\": %.1f, "
               "\"spool_rows_per_sec\": %.1f, "
               "\"rows_extracted\": %lld, \"rows_shuffled\": %lld, "
               "\"rows_spooled\": %lld, \"rows_output\": %lld, "
               "\"spool_executions\": %lld, \"spool_reads\": %lld, "
               "\"spool_cache_hits\": %lld}",
               key, threads, r.seconds, r.rows_per_sec(),
               r.rate(m.rows_extracted), r.rate(m.rows_shuffled),
               r.rate(m.rows_output), r.rate(m.rows_spooled),
               static_cast<long long>(m.rows_extracted),
               static_cast<long long>(m.rows_shuffled),
               static_cast<long long>(m.rows_spooled),
               static_cast<long long>(m.rows_output),
               static_cast<long long>(m.spool_executions),
               static_cast<long long>(m.spool_reads),
               static_cast<long long>(m.spool_cache_hits));
}

void WriteJson(const std::vector<KernelRow>& kernels,
               const std::vector<ScriptRow>& scripts, int nthreads) {
  FILE* f = std::fopen("BENCH_exec.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_exec.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"exec_throughput\",\n");
  std::fprintf(f, "  \"threads\": [1, %d],\n", nthreads);
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelRow& k = kernels[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"rows\": %lld, "
                 "\"seconds\": %.6f, \"rows_per_sec\": %.1f, "
                 "\"speedup_vs_map\": %.3f}%s\n",
                 k.name.c_str(), static_cast<long long>(k.rows), k.seconds,
                 k.rows_per_sec, k.speedup,
                 i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"scripts\": [\n");
  for (size_t i = 0; i < scripts.size(); ++i) {
    const ScriptRow& r = scripts[i];
    std::fprintf(f, "    {\"name\": \"%s\",\n", r.name.c_str());
    WriteExecRunJson(f, "row", r.row1, 1);
    std::fprintf(f, ",\n");
    WriteExecRunJson(f, "serial", r.t1, 1);
    std::fprintf(f, ",\n");
    WriteExecRunJson(f, "parallel", r.tn, nthreads);
    std::fprintf(f, ",\n");
    WriteExecRunJson(f, "partition", r.part, nthreads);
    std::fprintf(f, ",\n     \"batch_speedup\": %.3f,"
                 " \"batch_identical\": %s,"
                 " \"morsel_speedup\": %.3f,"
                 " \"morsel_identical\": %s,"
                 " \"identical\": %s}%s\n",
                 r.batch_speedup(), r.batch_identical ? "true" : "false",
                 r.morsel_speedup(), r.morsel_identical ? "true" : "false",
                 r.identical ? "true" : "false",
                 i + 1 < scripts.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_exec.json\n");
}

}  // namespace

int main() {
  std::printf("executor kernels (single-threaded; *_map = former std::map "
              "paths, *_table/_move = current)\n");
  const std::vector<Row> agg_input = MakeKernelRows(kAggRows, 200, 200, 1);
  const std::vector<Row> build_input = MakeKernelRows(kBuildRows, 100, 100, 2);
  const std::vector<Row> probe_input = MakeKernelRows(kProbeRows, 100, 100, 3);
  const std::vector<Row> shuffle_input =
      MakeKernelRows(kShuffleRows, 200, 200, 4);
  std::vector<Row> shuffle_mut = shuffle_input;  // consumed by the move body

  KernelRow agg_map = MeasureKernel(
      "agg_map", kAggRows, [&] { return AggMapBody(agg_input); }, nullptr);
  KernelRow agg_table = MeasureKernel(
      "agg_table", kAggRows, [&] { return AggTableBody(agg_input); },
      &agg_map);
  KernelRow join_map = MeasureKernel(
      "join_map", kProbeRows,
      [&] { return JoinMapBody(build_input, probe_input); }, nullptr);
  KernelRow join_table = MeasureKernel(
      "join_table", kProbeRows,
      [&] { return JoinTableBody(build_input, probe_input); }, &join_map);
  KernelRow shuffle_copy = MeasureKernel(
      "shuffle_copy", kShuffleRows,
      [&] { return ShuffleCopyBody(shuffle_input); }, nullptr);
  KernelRow shuffle_move = MeasureKernel(
      "shuffle_move", kShuffleRows, [&] { return ShuffleMoveBody(shuffle_mut); },
      &shuffle_copy);

  std::printf("\nbatched kernels (vs the row-at-a-time variants; "
              "batch=%d)\n", DefaultBatchSize());
  const size_t kBatch = static_cast<size_t>(DefaultBatchSize());
  const Schema kernel_schema = MakeKernelSchema();
  const std::vector<BoundPredicate> filter_preds = MakeFilterPreds();
  const std::vector<ComputeItem> expr_items = MakeExprItems();
  KernelRow agg_batch = MeasureKernel(
      "agg_batch", kAggRows, [&] { return AggBatchBody(agg_input, kBatch); },
      &agg_table);
  KernelRow join_batch = MeasureKernel(
      "join_batch", kProbeRows,
      [&] { return JoinBatchBody(build_input, probe_input, kBatch); },
      &join_table);
  KernelRow filter_rows = MeasureKernel(
      "filter_rows", kAggRows,
      [&] { return FilterRowsBody(agg_input, kernel_schema, filter_preds); },
      nullptr);
  // The columns exist before the filter runs in the batch-native executor
  // (its producer made them), so their construction is outside the timer.
  const BatchPartition filter_part = PartitionFromRows(agg_input, 3);
  KernelRow filter_batch = MeasureKernel(
      "filter_batch", kAggRows,
      [&] { return FilterBatchBody(filter_part, filter_preds); },
      &filter_rows);
  KernelRow expr_rows = MeasureKernel(
      "expr_rows", kAggRows,
      [&] { return ExprRowsBody(agg_input, kernel_schema, expr_items); },
      nullptr);
  KernelRow expr_batch = MeasureKernel(
      "expr_batch", kAggRows,
      [&] { return ExprBatchBody(agg_input, expr_items, kBatch); },
      &expr_rows);

  // Dense vs selective single-predicate selection over one int64 column
  // (k1 is uniform in [0, 200), so < 190 passes ~95% and < 10 passes ~5%).
  BoundPredicate dense_pred;
  dense_pred.lhs = 1;
  dense_pred.op = CompareOp::kLt;
  dense_pred.literal = Value::Int(190);
  BoundPredicate selective_pred = dense_pred;
  selective_pred.literal = Value::Int(10);
  KernelRow sel_dense_rows = MeasureKernel(
      "select_dense_rows", kAggRows,
      [&] { return SelectRowsBody(agg_input, kernel_schema, dense_pred); },
      nullptr);
  KernelRow sel_dense = MeasureKernel(
      "select_dense_int64", kAggRows,
      [&] { return SelectBatchBody(filter_part, dense_pred); },
      &sel_dense_rows);
  KernelRow sel_selective_rows = MeasureKernel(
      "select_selective_rows", kAggRows,
      [&] {
        return SelectRowsBody(agg_input, kernel_schema, selective_pred);
      },
      nullptr);
  KernelRow sel_selective = MeasureKernel(
      "select_selective_int64", kAggRows,
      [&] { return SelectBatchBody(filter_part, selective_pred); },
      &sel_selective_rows);

  bool kernels_ok = true;
  const std::pair<const KernelRow*, const KernelRow*> pairs[] = {
      {&agg_table, &agg_batch},
      {&join_table, &join_batch},
      {&filter_rows, &filter_batch},
      {&expr_rows, &expr_batch},
      {&sel_dense_rows, &sel_dense},
      {&sel_selective_rows, &sel_selective}};
  for (const auto& [row_variant, batch_variant] : pairs) {
    if (row_variant->checksum != batch_variant->checksum) {
      std::fprintf(stderr, "%s checksum %.6f != %s checksum %.6f\n",
                   row_variant->name.c_str(), row_variant->checksum,
                   batch_variant->name.c_str(), batch_variant->checksum);
      kernels_ok = false;
    }
  }

  std::vector<KernelRow> kernels = {
      agg_map,      agg_table,    join_map,   join_table,
      shuffle_copy, shuffle_move, agg_batch,  join_batch,
      filter_rows,  filter_batch, expr_rows,  expr_batch};

  int nthreads = DefaultNumThreads();
  if (nthreads < 2) nthreads = 4;  // the identity gate needs real threads

  std::printf("\nscript execution (CSE plan; row = batch_size 1, batch = "
              "batch_size %d serial, x%d = %d threads)\n",
              DefaultBatchSize(), nthreads, nthreads);
  std::vector<ScriptRow> scripts;
  // 400k rows over 16 machines = 25k-row partitions: big enough that the
  // default morsel size (16384) splits every partition, so the
  // morsel-vs-partition gate compares genuinely different schedules, and
  // big enough that best-of-three timings are stable against the 10%
  // bench_diff thresholds.
  Catalog catalog = MakeExecutionCatalog(400000);
  bool ok = true;
  ok &= MeasureScript("S1", catalog, kScriptS1, 16, nthreads, &scripts);
  ok &= MeasureScript("S2", catalog, kScriptS2, 16, nthreads, &scripts);
  ok &= MeasureScript("S3", catalog, kScriptS3, 16, nthreads, &scripts);
  ok &= MeasureScript("S4", catalog, kScriptS4, 16, nthreads, &scripts);
  LargeScriptSpec ls1_spec = Ls1Spec();
  ls1_spec.rows_per_file = 20000;
  GeneratedScript ls1 = GenerateLargeScript(ls1_spec);
  ok &= MeasureScript("LS1", ls1.catalog, ls1.text, 16, nthreads, &scripts);
  LargeScriptSpec ls2_spec = Ls2Spec();
  ls2_spec.rows_per_file = 4000;
  GeneratedScript ls2 = GenerateLargeScript(ls2_spec);
  ok &= MeasureScript("LS2", ls2.catalog, ls2.text, 16, nthreads, &scripts);

  WriteJson(kernels, scripts, nthreads);

  ok &= kernels_ok;
  for (const ScriptRow& r : scripts) {
    ok &= r.identical && r.batch_identical && r.morsel_identical;
  }
  if (!ok) std::fprintf(stderr, "exec_throughput: FAILED\n");
  return ok ? 0 : 1;
}

// End-to-end benchmark of the scx Engine: one closed-loop client, three
// workloads, an untraced pass for the end-to-end metrics and a traced pass
// for the per-layer ones. See perfbench/README.md for the metric table and
// why each workload exists.
//
//   scx_perfbench --workload paper_exec|ls2|mq_stream --seed N --seconds S
//                 --trace 0|1 [--spans FILE]
//
// The Engine keeps its default configuration apart from the simulated
// cluster size (16 machines) and, on mq_stream, a round cap and a spool
// budget, so its optimizer and executor pools size to the hardware
// concurrency. One client thread submits back to back (closed
// loop, no think time). Every input — script sizes, generator seeds — is
// derived from --seed; the engine receives only the generated catalogs and
// script texts.
//
// --trace 0 times whole submissions through Engine::Compile/Optimize/
// Execute (or Engine::SubmitBatch) and prints the end-to-end metrics.
// --trace 1 runs every session twice back to back: once through the Engine
// API and once through a layer-by-layer replica of the Engine path that
// records a span around each layer call. It prints the per-layer metrics
// and writes the spans to --spans. The replica must reproduce the Engine
// path's plan cost, outputs and ExecMetrics counters exactly.
//
// Every submission is checked against a reference computed before the
// timed loop, and against the first run of the same request (plan cost and
// counters repeat exactly). The last stdout line is one JSON object; the
// exit code is 1 if any check failed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "common/hash.h"
#include "memo/memo.h"
#include "opt/plan_validator.h"
#include "script/parser.h"
#include "testing/script_gen.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace {

using namespace scx;

using Clock = std::chrono::steady_clock;
using Outputs = std::map<std::string, std::vector<Row>>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workload parameters.

constexpr int kMachines = 16;  // the exec_throughput cluster size

// paper_exec: S1-S4 at 100k-800k rows, LS1 at 10k-40k rows per file. Sizes
// are stratified: each class gets one uniform draw inside each of kStrata
// equal slices of its range, so every seed sees the same spread of sizes
// (the percentiles and means stay comparable across seeds) while no two
// seeds submit the same inputs.
constexpr int kStrata = 8;
constexpr int64_t kScriptRowsLo = 100000;
constexpr int64_t kScriptRowsHi = 800000;
constexpr int64_t kLs1RowsLo = 10000;
constexpr int64_t kLs1RowsHi = 40000;

// ls2: LS2 at 4k rows per file (~250-row partitions on 16 machines).
constexpr int64_t kLs2Rows = 4000;

// mq_stream: sessions of K-script batches with 70% library overlap. Batches
// differ widely in optimizer and executor work, so a run draws many of them,
// and every batch gets two library modules with two consumers each and a
// private module in every script, which keeps the per-seed figures
// comparable across seeds.
constexpr int kMqSessions = 64;
constexpr int kMqWarmupSessions = 2;
constexpr int kMqScripts = 4;
constexpr double kMqOverlap = 0.7;
constexpr int kMqLibraryModules = 2;
constexpr int kMqConsumers = 2;
constexpr int64_t kMqLibraryRows = 20000;
constexpr int64_t kMqPrivateRowsLo = 400;
constexpr int64_t kMqPrivateRowsHi = 1200;
// Caps phase 2 so no plan depends on the budget_seconds timer (uncapped,
// rounds per batch range from a few hundred to a few hundred thousand).
constexpr long kMqMaxRounds = 2000;
// A thousandth of the default. At this budget eviction runs only in the
// occasional batch (spool_cache.bytes_evicted shows it). Smaller budgets
// make eviction run in most batches, but then whether a batch's library
// spool survives depends on its NDV draw, and bytes moved per session
// varies so much between batches that no affordable number of sessions
// averages it out across seeds.
constexpr int64_t kMqSpoolCacheBytes = 256 * 1024;

// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 5;
// Seed of the warm-up requests. It is fixed, so every seed warms up on the
// same work and set-up time does not depend on the seed's draw.
constexpr uint64_t kWarmupSeed = 0x3a11ULL;

// Time metrics are taken per window of consecutive sessions and the median
// over the run's complete windows is reported, so a burst of outside load
// that slows a few seconds of a run moves at most a window or two. A window
// is one pass over the requests (so every window submits the same mix), and
// at least this many sessions.
constexpr size_t kMinWindowSessions = 8;

/// A seed for generator `stream`, derived from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return Mix64(Mix64(seed) ^ Mix64(stream + 0x9e3779b97f4a7c15ULL));
}

/// Uniform double in [0, 1) from a 64-bit hash.
double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

// ---------------------------------------------------------------------------
// Workloads.

/// One distinct request: a single script, or the scripts of one batch.
struct Request {
  std::string label;
  std::vector<std::string> sources;
  Catalog catalog;
};

struct Workload {
  std::string name;
  /// Batched workloads submit each request as a session: a fresh Engine
  /// that submits the batch twice (cold, then warm from its spool cache).
  bool batched = false;
  OptimizerConfig config;
  std::vector<Request> requests;
  /// Requests submitted once each during set-up, on engines of their own.
  std::vector<Request> warmup;
};

OptimizerConfig DefaultConfig() {
  OptimizerConfig config;
  config.cluster.machines = kMachines;
  return config;
}

/// A paper script (`text`) at `rows` rows, or LS1 (`text` null) at `rows`
/// rows per file with generator seed `spec_seed`.
Request PaperRequest(const char* name, const char* text, int64_t rows,
                     uint64_t spec_seed) {
  Request r;
  r.label = std::string(name) + "@" + std::to_string(rows);
  if (text == nullptr) {
    LargeScriptSpec spec = Ls1Spec();
    spec.rows_per_file = rows;
    spec.seed = spec_seed;
    GeneratedScript g = GenerateLargeScript(spec);
    r.sources = {std::move(g.text)};
    r.catalog = std::move(g.catalog);
  } else {
    r.sources = {text};
    r.catalog = MakeExecutionCatalog(rows);
  }
  return r;
}

Workload MakePaperExec(uint64_t seed) {
  Workload wl;
  wl.name = "paper_exec";
  wl.config = DefaultConfig();
  const std::pair<const char*, const char*> scripts[] = {
      {"S1", kScriptS1}, {"S2", kScriptS2}, {"S3", kScriptS3},
      {"S4", kScriptS4}, {"LS1", nullptr}};
  uint64_t stream = 0;
  for (const auto& [name, text] : scripts) {
    bool ls1 = text == nullptr;
    int64_t lo = ls1 ? kLs1RowsLo : kScriptRowsLo;
    int64_t hi = ls1 ? kLs1RowsHi : kScriptRowsHi;
    for (int s = 0; s < kStrata; ++s) {
      double u = (s + Unit(DeriveSeed(seed, stream++))) / kStrata;
      int64_t rows =
          lo + static_cast<int64_t>(u * static_cast<double>(hi - lo));
      uint64_t spec_seed = ls1 ? DeriveSeed(seed, stream++) : 0;
      wl.requests.push_back(PaperRequest(name, text, rows, spec_seed));
    }
    // One warm-up per script, at the middle of its size range.
    wl.warmup.push_back(PaperRequest(name, text, (lo + hi) / 2,
                                     DeriveSeed(kWarmupSeed, stream)));
  }
  return wl;
}

Request Ls2Request(uint64_t spec_seed) {
  LargeScriptSpec spec = Ls2Spec();
  spec.rows_per_file = kLs2Rows;
  spec.seed = spec_seed;
  GeneratedScript g = GenerateLargeScript(spec);
  Request r;
  r.label = "LS2@" + std::to_string(kLs2Rows);
  r.sources = {std::move(g.text)};
  r.catalog = std::move(g.catalog);
  return r;
}

Workload MakeLs2(uint64_t seed) {
  Workload wl;
  wl.name = "ls2";
  wl.config = DefaultConfig();
  wl.requests.push_back(Ls2Request(DeriveSeed(seed, 0)));
  wl.warmup.push_back(Ls2Request(DeriveSeed(kWarmupSeed, 0)));
  return wl;
}

Workload MakeMqStream(uint64_t seed) {
  Workload wl;
  wl.name = "mq_stream";
  wl.batched = true;
  wl.config = DefaultConfig();
  wl.config.max_rounds = kMqMaxRounds;
  wl.config.cluster.spool_cache_bytes = kMqSpoolCacheBytes;
  BatchGenOptions gen;
  gen.min_scripts = kMqScripts;
  gen.max_scripts = kMqScripts;
  gen.overlap = kMqOverlap;
  gen.min_library_modules = kMqLibraryModules;
  gen.max_library_modules = kMqLibraryModules;
  gen.min_consumers = kMqConsumers;
  gen.max_consumers = kMqConsumers;
  gen.library_rows = kMqLibraryRows;
  gen.min_rows = kMqPrivateRowsLo;
  gen.max_rows = kMqPrivateRowsHi;
  gen.private_module_prob = 1.0;
  auto batch = [&](uint64_t batch_seed, const std::string& label) {
    GeneratedBatch b = GenerateScriptBatch(batch_seed, gen);
    Request r;
    r.label = label;
    r.sources = std::move(b.scripts);
    r.catalog = std::move(b.catalog);
    return r;
  };
  for (int s = 0; s < kMqSessions; ++s) {
    wl.requests.push_back(batch(DeriveSeed(seed, static_cast<uint64_t>(s)),
                                "batch#" + std::to_string(s)));
  }
  for (int s = 0; s < kMqWarmupSessions; ++s) {
    wl.warmup.push_back(batch(DeriveSeed(kWarmupSeed, static_cast<uint64_t>(s)),
                              "warmup#" + std::to_string(s)));
  }
  return wl;
}

Workload MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "paper_exec") return MakePaperExec(seed);
  if (name == "ls2") return MakeLs2(seed);
  return MakeMqStream(seed);
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a submission
  int64_t submission = 0;
};

/// Records spans in memory; written out once the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(const char* name, int parent, int64_t submission) {
    spans_.push_back(Span{name, Now(), 0, parent, submission});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }

  /// A fresh submission id for the spans of one submission.
  int64_t NewSubmission() { return next_submission_++; }

  /// Runs fn() inside a span named `name`.
  template <typename Fn>
  auto Run(const char* name, int parent, int64_t submission, Fn&& fn) {
    int id = Begin(name, parent, submission);
    auto result = fn();
    End(id);
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its children
  /// cover (children of one span never overlap: one client thread).
  std::vector<int64_t> SelfNs() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    return self;
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"submission\": %lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.submission));
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  int64_t next_submission_ = 0;
};

// ---------------------------------------------------------------------------
// Submissions.

/// What one submission produced, reduced to what the checks and metrics
/// read.
struct Outcome {
  Status status;
  double latency_s = 0;
  double cost = 0;
  bool fell_back = false;
  /// Diagnostics of the kCse optimizer run (and, traced, of the
  /// conventional fallback run after it).
  std::vector<OptimizeDiagnostics> diags;
  ExecMetrics metrics;   ///< outputs moved out into `outputs`
  std::string counters;  ///< ExecMetricsToJson(metrics)
  /// Canonical outputs, one map per script.
  std::vector<Outputs> outputs;
  int64_t submission = -1;  ///< span submission id (traced only)
  size_t slot = 0;          ///< position in its session (batched: 0 cold)
  size_t session = 0;       ///< index of its session in the loop
};

int64_t BytesMoved(const ExecMetrics& m) {
  return m.bytes_extracted + m.bytes_shuffled + m.bytes_spooled;
}

Outputs Canonical(Outputs outputs) {
  for (auto& [path, rows] : outputs) rows = CanonicalRows(std::move(rows));
  return outputs;
}

/// Fills the outputs and counters of `out` from a finished execution.
/// `script_outputs` is empty for a single script (outputs come from `m`).
void Finish(ExecMetrics m, std::vector<Outputs> script_outputs,
            Outcome* out) {
  if (script_outputs.empty()) {
    out->outputs.push_back(CanonicalOutputs(m));
  } else {
    for (Outputs& o : script_outputs) {
      out->outputs.push_back(Canonical(std::move(o)));
    }
  }
  m.outputs.clear();
  out->counters = ExecMetricsToJson(m);
  out->metrics = std::move(m);
}

/// One submission through the Engine's public API, timed from source text
/// to outputs.
Outcome SubmitViaEngine(Engine& engine, const std::vector<std::string>& sources,
                        bool batched) {
  Outcome out;
  if (batched) {
    Clock::time_point t0 = Clock::now();
    Result<BatchExecution> r = engine.SubmitBatch(sources);
    out.latency_s = SecondsSince(t0);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    out.cost = r->optimized.cost();
    out.fell_back = r->optimized.result.diagnostics.fell_back_to_conventional;
    out.diags.push_back(std::move(r->optimized.result.diagnostics));
    Finish(std::move(r->metrics), std::move(r->script_outputs), &out);
    return out;
  }
  Clock::time_point t0 = Clock::now();
  Result<CompiledScript> compiled = engine.Compile(sources[0]);
  Result<OptimizedScript> optimized =
      compiled.ok() ? engine.Optimize(*compiled, OptimizerMode::kCse)
                    : Result<OptimizedScript>(compiled.status());
  Result<ExecMetrics> metrics = optimized.ok()
                                    ? engine.Execute(*optimized)
                                    : Result<ExecMetrics>(optimized.status());
  out.latency_s = SecondsSince(t0);
  if (!metrics.ok()) {
    out.status = metrics.status();
    return out;
  }
  out.cost = optimized->cost();
  out.fell_back = optimized->result.diagnostics.fell_back_to_conventional;
  out.diags.push_back(std::move(optimized->result.diagnostics));
  Finish(std::move(metrics.value()), {}, &out);
  return out;
}

/// Engine's optimizer construction: a fresh memo from the bound DAG, a
/// private copy of the column registry, and the script roots of a batch.
std::shared_ptr<Optimizer> MakeOptimizer(
    const BoundScript& bound, const std::vector<LogicalNodePtr>& script_roots,
    const OptimizerConfig& config) {
  std::map<const LogicalNode*, GroupId> node_groups;
  Memo memo = Memo::FromLogicalDag(
      bound.root, script_roots.empty() ? nullptr : &node_groups);
  auto columns = std::make_shared<ColumnRegistry>(*bound.columns);
  auto optimizer =
      std::make_shared<Optimizer>(std::move(memo), std::move(columns), config);
  if (!script_roots.empty()) {
    std::vector<GroupId> roots;
    for (const LogicalNodePtr& r : script_roots) {
      roots.push_back(node_groups.at(r.get()));
    }
    optimizer->SetScriptRoots(std::move(roots));
  }
  return optimizer;
}

/// Engine::OptimizeBound, one span per layer call: the kCse run, its
/// validation, then the conventional run it falls back to when cheaper.
/// Returns the optimizer that produced the chosen plan, which (as in
/// OptimizedScript) stays alive until the submission ends.
Result<std::pair<PhysicalNodePtr, std::shared_ptr<Optimizer>>> OptimizeTraced(
    const BoundScript& bound, const std::vector<LogicalNodePtr>& script_roots,
    const OptimizerConfig& config, Tracer* t, int parent, int64_t sub,
    Outcome* out) {
  std::shared_ptr<Optimizer> optimizer = t->Run("memo.build", parent, sub, [&] {
    return MakeOptimizer(bound, script_roots, config);
  });
  SCX_ASSIGN_OR_RETURN(OptimizeResult result,
                       t->Run("core.optimize", parent, sub, [&] {
                         return optimizer->Run(OptimizerMode::kCse);
                       }));
  SCX_RETURN_IF_ERROR(t->Run("opt.validate", parent, sub,
                             [&] { return ValidatePlan(result.plan); }));
  std::shared_ptr<Optimizer> conv_optimizer =
      t->Run("memo.build", parent, sub,
             [&] { return MakeOptimizer(bound, script_roots, config); });
  SCX_ASSIGN_OR_RETURN(OptimizeResult conv,
                       t->Run("core.fallback", parent, sub, [&] {
                         return conv_optimizer->Run(
                             OptimizerMode::kConventional);
                       }));
  out->diags.push_back(std::move(result.diagnostics));
  out->diags.push_back(std::move(conv.diagnostics));
  if (conv.cost < result.cost) {
    SCX_RETURN_IF_ERROR(t->Run("opt.validate", parent, sub,
                               [&] { return ValidatePlan(conv.plan); }));
    out->cost = conv.cost;
    out->fell_back = true;
    return std::make_pair(std::move(conv.plan), std::move(conv_optimizer));
  }
  out->cost = result.cost;
  return std::make_pair(std::move(result.plan), std::move(optimizer));
}

/// The Engine path replayed layer by layer, in the order Engine calls the
/// layers, with a span around each call.
Outcome SubmitTraced(Engine& engine, const std::vector<std::string>& sources,
                     bool batched, Tracer* t) {
  Outcome out;
  const int64_t sub = t->NewSubmission();
  out.submission = sub;
  const OptimizerConfig& config = engine.config();
  int root = t->Begin("api.submission", -1, sub);
  ExecMetrics metrics;
  std::vector<Outputs> script_outputs;
  Status status = [&]() -> Status {
    if (!batched) {
      SCX_ASSIGN_OR_RETURN(AstScript ast,
                           t->Run("script.parse", root, sub, [&] {
                             return ParseScript(sources[0]);
                           }));
      SCX_ASSIGN_OR_RETURN(BoundScript bound,
                           t->Run("plan.bind", root, sub, [&] {
                             return BindScript(ast, engine.catalog());
                           }));
      SCX_ASSIGN_OR_RETURN(auto chosen, OptimizeTraced(bound, {}, config, t,
                                                       root, sub, &out));
      Executor executor(config.cluster);
      SCX_ASSIGN_OR_RETURN(metrics, t->Run("exec.execute", root, sub, [&] {
                             return executor.Execute(chosen.first);
                           }));
      return Status::OK();
    }
    SCX_ASSIGN_OR_RETURN(std::vector<AstScript> asts,
                         t->Run("script.parse", root, sub,
                                [&] { return ParseScriptBatch(sources); }));
    SCX_ASSIGN_OR_RETURN(BoundBatch bound, t->Run("plan.bind", root, sub, [&] {
                           return BindScriptBatch(asts, engine.catalog());
                         }));
    SCX_ASSIGN_OR_RETURN(auto chosen,
                         OptimizeTraced(bound.merged, bound.script_roots,
                                        config, t, root, sub, &out));
    Executor executor(config.cluster, &engine.spool_cache(),
                      engine.catalog().version());
    SCX_ASSIGN_OR_RETURN(metrics, t->Run("exec.execute", root, sub, [&] {
                           return executor.Execute(chosen.first);
                         }));
    // Engine::ExecuteBatch's demultiplexing of the merged sinks.
    for (const auto& prov : bound.outputs) {
      Outputs script;
      for (const auto& [merged_path, original] : prov) {
        auto it = metrics.outputs.find(merged_path);
        script[original] =
            it != metrics.outputs.end() ? it->second : std::vector<Row>{};
      }
      script_outputs.push_back(std::move(script));
    }
    return Status::OK();
  }();
  t->End(root);
  const Span& s = t->spans()[static_cast<size_t>(root)];
  out.latency_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  out.status = status;
  if (status.ok()) Finish(std::move(metrics), std::move(script_outputs), &out);
  return out;
}

// ---------------------------------------------------------------------------
// Checks.

/// What every submission of one request must reproduce.
struct Expectation {
  std::vector<Outputs> reference;  ///< independent of the plan under test
  /// Set by the request's first correct submission; every later one
  /// (traced or not) must repeat it exactly.
  bool seen = false;
  double cost = 0;
  std::string counters;
  int64_t bytes_moved = 0;
};

/// Returns "" when `o` is correct, else why not. The first correct
/// submission of a request fills in `e`.
std::string Check(const Outcome& o, Expectation* e, long max_rounds) {
  if (!o.status.ok()) return "status " + o.status.ToString();
  if (o.outputs != e->reference) return "outputs differ from the reference";
  // An optimizer that ran out of budget must have stopped on the round
  // cap: stopping on the seconds budget would make the plan timing-
  // dependent.
  for (const OptimizeDiagnostics& d : o.diags) {
    if (d.budget_exhausted && d.rounds_executed != max_rounds) {
      return "optimizer stopped on the seconds budget after " +
             std::to_string(d.rounds_executed) + " rounds";
    }
  }
  if (!e->seen) {
    e->seen = true;
    e->cost = o.cost;
    e->counters = o.counters;
    e->bytes_moved = BytesMoved(o.metrics);
    return "";
  }
  if (o.cost != e->cost) return "plan cost differs from the first run";
  if (o.counters != e->counters) {
    return "execution counters differ from the first run";
  }
  return "";
}

/// One session of `req` on `engine`: a single submission, or (batched) the
/// batch submitted cold and then warm. `tracer` null = through the Engine
/// API.
std::vector<Outcome> RunSession(const Workload& wl, const Request& req,
                                Engine& engine, Tracer* tracer) {
  auto submit = [&] {
    return tracer == nullptr
               ? SubmitViaEngine(engine, req.sources, wl.batched)
               : SubmitTraced(engine, req.sources, wl.batched, tracer);
  };
  std::vector<Outcome> out;
  out.push_back(submit());  // batched: cold, fills the cross-query cache
  if (wl.batched) out.push_back(submit());  // warm: reads it
  return out;
}

/// Set-up a user pays: catalog registration, Engine construction, warm-up
/// submissions.
double SetUp(const std::string& name, uint64_t seed, Workload* wl,
             std::vector<Engine>* engines) {
  Clock::time_point t0 = Clock::now();
  *wl = MakeWorkload(name, seed);
  engines->clear();
  if (!wl->batched) {
    for (const Request& r : wl->requests) {
      engines->emplace_back(r.catalog, wl->config);
    }
  }
  for (const Request& r : wl->warmup) {
    Engine engine(r.catalog, wl->config);
    RunSession(*wl, r, engine, nullptr);
  }
  return SecondsSince(t0);
}

/// Reference outputs of request `r`, from a path that shares no plan with
/// the one under test: the conventional plan for a single script; each
/// script of a batch optimized and executed alone.
Result<std::vector<Outputs>> Reference(const Workload& wl, size_t r) {
  const Request& req = wl.requests[r];
  std::vector<Outputs> out;
  Engine engine(req.catalog, wl.config);
  OptimizerMode mode =
      wl.batched ? OptimizerMode::kCse : OptimizerMode::kConventional;
  for (const std::string& source : req.sources) {
    SCX_ASSIGN_OR_RETURN(CompiledScript compiled, engine.Compile(source));
    SCX_ASSIGN_OR_RETURN(OptimizedScript optimized,
                         engine.Optimize(compiled, mode));
    SCX_ASSIGN_OR_RETURN(ExecMetrics m, engine.Execute(optimized));
    out.push_back(CanonicalOutputs(m));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and reporting.

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Submissions of one timed loop.
struct LoopResult {
  std::vector<Outcome> outcomes;
  int64_t failed = 0;
  double busy_s = 0;  ///< time spent inside submissions
};

/// Runs session `i` of a loop, of request `r`, checks its submissions and
/// appends them to `loop`. Single scripts run on the request's engine;
/// batched sessions on a fresh one.
void RunChecked(const Workload& wl, size_t r, size_t i,
                std::vector<Engine>* engines,
                std::vector<std::vector<Expectation>>* expect, Tracer* tracer,
                LoopResult* loop) {
  const Request& req = wl.requests[r];
  std::optional<Engine> fresh;
  Engine& engine =
      wl.batched ? fresh.emplace(req.catalog, wl.config) : (*engines)[r];
  std::vector<Outcome> session = RunSession(wl, req, engine, tracer);
  for (size_t k = 0; k < session.size(); ++k) {
    Outcome& o = session[k];
    std::string err = Check(o, &(*expect)[r][k], wl.config.max_rounds);
    if (!err.empty()) {
      ++loop->failed;
      std::fprintf(stderr, "%s %s submission %zu%s: %s\n", wl.name.c_str(),
                   req.label.c_str(), k, tracer ? " (traced)" : "",
                   err.c_str());
    }
    loop->busy_s += o.latency_s;
    o.slot = k;
    o.session = i;
    o.outputs.clear();
    loop->outcomes.push_back(std::move(o));
  }
}

/// Runs sessions through the Engine API in a seeded order, cycling over the
/// requests, until `seconds` have passed and every request ran at least
/// once.
LoopResult RunLoop(const Workload& wl, std::vector<Engine>* engines,
                   std::vector<std::vector<Expectation>>* expect,
                   const std::vector<size_t>& order, double seconds) {
  LoopResult loop;
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < order.size() || SecondsSince(t0) < seconds; ++i) {
    RunChecked(wl, order[i % order.size()], i, engines, expect, nullptr,
               &loop);
  }
  return loop;
}

/// Traced and untraced submissions of the same sessions.
struct PairedLoop {
  LoopResult untraced;
  LoopResult traced;
};

/// Runs the sessions of RunLoop until `seconds` have passed, each one twice
/// back to back: through the Engine API and through the traced replica.
/// Which of the two goes first alternates per request. Both halves of a
/// pair see the same state of the machine, so their difference is the cost
/// of tracing, and both are checked against the same expectation.
PairedLoop RunPairedLoop(const Workload& wl, std::vector<Engine>* engines,
                         std::vector<std::vector<Expectation>>* expect,
                         const std::vector<size_t>& order, double seconds,
                         Tracer* tracer) {
  PairedLoop loop;
  std::vector<size_t> pairs(wl.requests.size());
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i == 0 || SecondsSince(t0) < seconds; ++i) {
    size_t r = order[i % order.size()];
    bool traced_first = pairs[r]++ % 2 == 1;
    for (int half = 0; half < 2; ++half) {
      if ((half == 0) == traced_first) {
        RunChecked(wl, r, i, engines, expect, tracer, &loop.traced);
      } else {
        RunChecked(wl, r, i, engines, expect, nullptr, &loop.untraced);
      }
    }
  }
  return loop;
}

std::vector<Metric> EndToEndMetrics(
    const LoopResult& loop, double setup_s,
    const std::vector<std::vector<Expectation>>& expect) {
  size_t per_window = std::max(expect.size(), kMinWindowSessions);
  size_t windows =
      std::max<size_t>(1, (loop.outcomes.back().session + 1) / per_window);
  std::vector<std::vector<double>> latencies(windows);
  std::vector<double> busy_s(windows);
  for (const Outcome& o : loop.outcomes) {
    size_t w = std::min(o.session / per_window, windows);
    if (w == windows) continue;  // the incomplete last window
    latencies[w].push_back(o.latency_s * 1e3);
    busy_s[w] += o.latency_s;
  }
  std::vector<double> rate, p50, p90;
  for (size_t w = 0; w < windows; ++w) {
    rate.push_back(
        Ratio(static_cast<double>(latencies[w].size()), busy_s[w]));
    p50.push_back(Percentile(latencies[w], 0.5));
    p90.push_back(Percentile(latencies[w], 0.9));
  }
  // Plan quality and data movement are averaged over the distinct
  // submissions (each request's session once), so they repeat exactly for
  // a seed however many submissions the time allowed.
  double cost_sum = 0, bytes_sum = 0, n = 0;
  for (const std::vector<Expectation>& session : expect) {
    for (const Expectation& e : session) {
      cost_sum += e.cost;
      bytes_sum += static_cast<double>(e.bytes_moved);
      n += 1;
    }
  }
  return {
      {"setup_s", setup_s, "s"},
      {"submissions_per_s", Percentile(rate, 0.5), "1/s"},
      {"latency_p50_ms", Percentile(p50, 0.5), "ms"},
      {"latency_p90_ms", Percentile(p90, 0.5), "ms"},
      {"est_cost_mean", Ratio(cost_sum, n), "cost"},
      {"bytes_moved_mean", Ratio(bytes_sum, n), "bytes"},
  };
}

std::vector<Metric> PerLayerMetrics(const LoopResult& traced,
                                    const Tracer& tracer,
                                    const LoopResult& untraced) {
  std::vector<int64_t> self = tracer.SelfNs();
  std::map<std::string, double> self_ms;
  std::map<int64_t, double> exec_ms_of_sub;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    double ms = static_cast<double>(self[i]) * 1e-6;
    self_ms[s.name] += ms;
    if (std::strcmp(s.name, "exec.execute") == 0) {
      exec_ms_of_sub[s.submission] += ms;
    }
  }
  double submission_ms = traced.busy_s * 1e3;

  double subs = static_cast<double>(traced.outcomes.size());
  double phase1 = 0, phase2 = 0, rounds = 0, planned = 0, cap_hits = 0,
         pruned = 0, hits = 0, lookups = 0, fallbacks = 0, trace_entries = 0;
  double invocations = 0, rows = 0, morsels = 0, batches = 0, shuffled = 0,
         bytes_shuffled = 0, bytes_spooled = 0, spool_reads = 0,
         cross_hits = 0, evicted = 0;
  double cold_ms = 0, warm_ms = 0, cold = 0, warm = 0;
  for (const Outcome& o : traced.outcomes) {
    if (!o.diags.empty()) {
      const OptimizeDiagnostics& d = o.diags[0];
      phase1 += (d.optimize_seconds - d.phase2_seconds) * 1e3;
      phase2 += d.phase2_seconds * 1e3;
      rounds += static_cast<double>(d.rounds_executed);
      planned += static_cast<double>(d.rounds_planned);
      cap_hits += d.budget_exhausted ? 1 : 0;
      pruned += static_cast<double>(d.cache.pruned_rounds);
      hits += static_cast<double>(d.cache.winner_hits);
      lookups +=
          static_cast<double>(d.cache.winner_hits + d.cache.winner_misses);
      trace_entries += static_cast<double>(d.round_trace.size());
    }
    fallbacks += o.fell_back ? 1 : 0;
    const ExecMetrics& m = o.metrics;
    invocations += static_cast<double>(m.operator_invocations);
    rows += static_cast<double>(m.rows_extracted + m.rows_shuffled +
                                m.rows_output);
    morsels += static_cast<double>(m.morsels_evaluated);
    batches += static_cast<double>(m.batches_evaluated);
    shuffled += static_cast<double>(m.rows_shuffled);
    bytes_shuffled += static_cast<double>(m.bytes_shuffled);
    bytes_spooled += static_cast<double>(m.bytes_spooled);
    spool_reads += static_cast<double>(m.spool_reads);
    cross_hits += static_cast<double>(m.cross_query_spool_hits);
    evicted += static_cast<double>(m.spool_bytes_evicted);
    // Single scripts never read a cross-query cache, so all their
    // executions count as cold.
    double ms = exec_ms_of_sub[o.submission];
    if (o.slot == 1) {
      warm_ms += ms;
      warm += 1;
    } else {
      cold_ms += ms;
      cold += 1;
    }
  }
  auto mean = [&](double total) { return Ratio(total, subs); };
  auto layer = [&](const char* name) { return self_ms[name]; };
  double core_ms = layer("core.optimize") + layer("core.fallback");
  return {
      {"script.parse_ms", mean(layer("script.parse")), "ms"},
      {"plan.bind_ms", mean(layer("plan.bind")), "ms"},
      {"memo.build_ms", mean(layer("memo.build")), "ms"},
      {"core.optimize_ms", mean(layer("core.optimize")), "ms"},
      {"core.phase1_ms", mean(phase1), "ms"},
      {"core.phase2_ms", mean(phase2), "ms"},
      {"core.rounds_executed", mean(rounds), "count"},
      {"core.rounds_planned", mean(planned), "count"},
      {"core.round_us", Ratio(phase2 * 1e3, rounds), "us"},
      {"core.round_cap_hits", mean(cap_hits), "count"},
      {"core.pruned_rounds", mean(pruned), "count"},
      {"core.winner_hit_ratio", Ratio(hits, lookups), "ratio"},
      {"core.fallback_ms", mean(layer("core.fallback")), "ms"},
      {"core.fallbacks", mean(fallbacks), "count"},
      {"core.trace_entries", mean(trace_entries), "count"},
      {"opt.validate_ms", mean(layer("opt.validate")), "ms"},
      {"exec.execute_ms", mean(layer("exec.execute")), "ms"},
      {"exec.execute_cold_ms", Ratio(cold_ms, cold), "ms"},
      {"exec.execute_warm_ms", Ratio(warm_ms, warm), "ms"},
      {"exec.operator_invocations", mean(invocations), "count"},
      {"exec.rows_per_operator", Ratio(rows, invocations), "rows"},
      {"exec.morsels_evaluated", mean(morsels), "count"},
      {"exec.batches_evaluated", mean(batches), "count"},
      {"exec.rows_shuffled", mean(shuffled), "rows"},
      {"exec.bytes_shuffled", mean(bytes_shuffled), "bytes"},
      {"exec.bytes_spooled", mean(bytes_spooled), "bytes"},
      {"exec.spool_reads", mean(spool_reads), "count"},
      {"spool_cache.hit_ratio", Ratio(cross_hits, spool_reads), "ratio"},
      {"spool_cache.bytes_evicted", mean(evicted), "bytes"},
      {"api.self_ms", mean(layer("api.submission")), "ms"},
      {"share.compile_pct",
       100 * Ratio(layer("script.parse") + layer("plan.bind"), submission_ms),
       "%"},
      {"share.core_pct", 100 * Ratio(core_ms, submission_ms), "%"},
      {"share.exec_pct", 100 * Ratio(layer("exec.execute"), submission_ms),
       "%"},
      // The drop in submissions per second from the untraced halves of the
      // pairs to the traced ones.
      {"trace.overhead_pct",
       100 * (1 - Ratio(untraced.busy_s, traced.busy_s)), "%"},
      {"trace.submissions", subs, "count"},
  };
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      if (a->workload != "paper_exec" && a->workload != "ls2" &&
          a->workload != "mq_stream") {
        return false;
      }
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: scx_perfbench --workload paper_exec|ls2|mq_stream "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }

  Workload wl;
  std::vector<Engine> engines;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setups.push_back(SetUp(args.workload, args.seed, &wl, &engines));
  }
  double setup_s = Percentile(setups, 0.5);

  // Reference outputs, outside every timed region. One expectation per
  // submission of a session (batched sessions submit twice).
  std::vector<std::vector<Expectation>> expect;
  for (size_t r = 0; r < wl.requests.size(); ++r) {
    Result<std::vector<Outputs>> ref = Reference(wl, r);
    if (!ref.ok()) {
      std::fprintf(stderr, "%s reference: %s\n", wl.requests[r].label.c_str(),
                   ref.status().ToString().c_str());
      return 1;
    }
    Expectation e;
    e.reference = std::move(*ref);
    expect.emplace_back(wl.batched ? 2 : 1, e);
  }

  std::vector<size_t> order(wl.requests.size());
  std::iota(order.begin(), order.end(), 0);
  uint64_t shuffle = DeriveSeed(args.seed, 0x5eed);
  for (size_t i = order.size(); i > 1; --i) {
    shuffle = Mix64(shuffle);
    std::swap(order[i - 1], order[shuffle % i]);
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  if (!args.trace) {
    // A full pass gives every request its expectation, so the plan-quality
    // means cover every request.
    LoopResult loop = RunLoop(wl, &engines, &expect, order, args.seconds);
    attempted = static_cast<int64_t>(loop.outcomes.size());
    failed = loop.failed;
    metrics = EndToEndMetrics(loop, setup_s, expect);
    metrics.push_back({"error_rate", Ratio(static_cast<double>(failed),
                                           static_cast<double>(attempted)),
                       "fraction"});
  } else {
    Tracer tracer(Clock::now());
    PairedLoop loop =
        RunPairedLoop(wl, &engines, &expect, order, args.seconds, &tracer);
    attempted = static_cast<int64_t>(loop.untraced.outcomes.size() +
                                     loop.traced.outcomes.size());
    failed = loop.untraced.failed + loop.traced.failed;
    metrics = PerLayerMetrics(loop.traced, tracer, loop.untraced);
    if (!args.spans.empty() && !tracer.Write(args.spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans.c_str());
      correct = false;
    }
  }
  correct = correct && failed == 0;

  std::printf("workload %s  seed %llu  submissions %lld  failed %lld\n",
              wl.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // error_rate is printed above for the reader; the result line carries it
  // as failed / attempted.
  if (!args.trace) metrics.pop_back();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// scxcheck driver: generative differential testing of the CSE optimizer.
//
// Generates seeded random multi-output DAG scripts with deliberate
// structural sharing and checks each against the oracles (conventional and
// cse plans both execute to the reference evaluator's outputs; cse cost <=
// conventional; serial == parallel execution;
// plan validity + JSON round-trip). On failure the script is greedily
// minimized and the repro written to a corpus directory.
//
// Usage:
//   scx_fuzz [--seed N] [--iters N] [--threads N] [--machines N]
//            [--minimize|--no-minimize] [--corpus DIR] [--profile NAME]
//            [--replay FILE]... [--quiet]
//
// --iters defaults to $SCX_FUZZ_ITERS when set (so nightly CI can scale the
// same job up), else 200. --profile pins a generator edge case:
// default | single (single-consumer, no sharing) | empty (rows=0 inputs) |
// dup (duplicated OUTPUTs) | expr (every consumer computes duplicated
// arithmetic, stressing expression-CSE and the batch kernels) | pipeline
// (every consumer is a deep filter->compute->...->aggregate chain over the
// shared node, stressing the batch pipeline's fused cross-stage schedules
// and shared spool reads through all the oracles) | multiquery (each
// iteration generates a BATCH of scripts with shared library modules and
// checks the batch-vs-sequential oracle: merged submission is bit-identical
// per script to running each alone, moves no more bytes, and is invariant
// to the thread count and to cross-query cache warmth) | hostile
// (hostile-cluster simulation: power-law key skew piles rows onto a few
// machines, stragglers stretch the simulated makespan, and a per-seed
// FaultPlan kills machines mid-run at operator-pass granularity; the fault
// oracles then require the recovered run to stay bit-identical to the clean
// one and recovery to never beat pure recomputation on bytes moved).
//
// Exit code: 0 when every iteration and replay passed, 1 on any oracle
// failure, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/diff_harness.h"
#include "testing/script_gen.h"

namespace scx {
namespace {

/// Per-iteration seed derivation: mix the base seed with the iteration
/// index (splitmix64 finalizer) so neighbouring iterations are unrelated
/// and every failure is reproducible from (base_seed, index) — or directly
/// from the printed per-script seed.
uint64_t DeriveSeed(uint64_t base, uint64_t index) {
  uint64_t z = base * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The hostile profile's per-script FaultPlan: a modest failure rate capped
/// at a handful of kills (so even pass-heavy scripts stay recoverable-fast)
/// plus aggressive stragglers. Seeded from the script seed, so every
/// failure reproduces from --replay-seed alone.
FaultPlan HostileFaultPlan(uint64_t seed) {
  FaultPlan fp;
  fp.seed = seed;
  fp.failure_prob = 0.02;
  fp.max_failures = 4;
  fp.straggler_prob = 0.25;
  fp.straggler_factor = 8.0;
  return fp;
}

void PrintFailure(const OracleReport& report) {
  std::fprintf(stderr,
               "scx_fuzz: FAIL oracle=%s seed=%llu\n  detail: %s\n",
               report.oracle.c_str(),
               static_cast<unsigned long long>(report.seed),
               report.detail.c_str());
  std::fprintf(stderr, "--- failing script ---\n%s", report.script.c_str());
  if (!report.minimized_script.empty() &&
      report.minimized_script != report.script) {
    std::fprintf(stderr, "--- minimized repro ---\n%s",
                 report.minimized_script.c_str());
  }
  if (!report.corpus_path.empty()) {
    std::fprintf(stderr, "repro written to %s\n",
                 report.corpus_path.c_str());
  }
}

int Main(int argc, char** argv) {
  uint64_t base_seed = 1;
  long iters = -1;
  HarnessOptions harness_opts;
  harness_opts.machines = 8;
  ScriptGenOptions gen_opts;
  BatchGenOptions batch_opts;
  bool multiquery = false;
  bool hostile = false;
  std::vector<std::string> replays;
  std::vector<uint64_t> replay_seeds;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--seed") {
      base_seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--iters") {
      iters = std::atol(next());
    } else if (arg == "--threads") {
      harness_opts.threads = std::atoi(next());
    } else if (arg == "--machines") {
      harness_opts.machines = std::atoi(next());
    } else if (arg == "--minimize") {
      harness_opts.minimize = true;
    } else if (arg == "--no-minimize") {
      harness_opts.minimize = false;
    } else if (arg == "--corpus") {
      harness_opts.corpus_dir = next();
    } else if (arg == "--replay") {
      replays.push_back(next());
    } else if (arg == "--replay-seed") {
      replay_seeds.push_back(std::strtoull(next(), nullptr, 10));
    } else if (arg == "--profile") {
      std::string profile = next();
      if (profile == "single") {
        gen_opts.force_single_consumer = true;
      } else if (profile == "empty") {
        gen_opts.force_empty_inputs = true;
      } else if (profile == "dup") {
        gen_opts.force_duplicate_outputs = true;
      } else if (profile == "expr") {
        gen_opts.force_expr_consumers = true;
      } else if (profile == "pipeline") {
        gen_opts.force_pipeline_consumers = true;
      } else if (profile == "multiquery") {
        multiquery = true;
      } else if (profile == "hostile") {
        hostile = true;
        gen_opts.key_skew_alpha = 1.2;
      } else if (profile != "default") {
        std::fprintf(stderr, "scx_fuzz: unknown profile '%s'\n",
                     profile.c_str());
        return 2;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help") {
      std::printf(
          "usage: scx_fuzz [--seed N] [--iters N] [--threads N] "
          "[--machines N]\n                [--minimize|--no-minimize] "
          "[--corpus DIR]\n                [--profile default|single|empty|"
          "dup|expr|pipeline|multiquery|hostile]\n                "
          "[--replay FILE]... [--replay-seed N]... [--quiet]\n");
      return 0;
    } else {
      std::fprintf(stderr, "scx_fuzz: unknown flag %s (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (iters < 0) {
    const char* env = std::getenv("SCX_FUZZ_ITERS");
    iters = env != nullptr && *env != '\0' ? std::atol(env) : 200;
  }

  int failures = 0;

  // Replay checked-in corpus repros first: each must pass all oracles with
  // its recorded cluster shape (regression gate for previously-minimized
  // bugs).
  for (const std::string& path : replays) {
    auto corpus = LoadCorpusFile(path);
    if (!corpus.ok()) {
      std::fprintf(stderr, "scx_fuzz: %s\n",
                   corpus.status().ToString().c_str());
      return 2;
    }
    HarnessOptions replay_opts = harness_opts;
    replay_opts.machines = corpus->machines;
    replay_opts.threads = corpus->threads;
    replay_opts.fault_plan = corpus->fault_plan;
    replay_opts.corpus_dir.clear();  // never re-write while replaying
    DiffHarness harness(replay_opts);
    OracleReport report =
        harness.Check(corpus->catalog, corpus->script, corpus->seed);
    if (!report.ok) {
      std::fprintf(stderr, "scx_fuzz: replay %s failed\n", path.c_str());
      PrintFailure(report);
      ++failures;
    } else if (!quiet) {
      std::printf("replay %s: ok\n", path.c_str());
    }
  }

  DiffHarness harness(harness_opts);

  // One multiquery iteration = one generated batch through the
  // batch-vs-sequential oracle (reproducible from the seed alone).
  auto check_one = [&](uint64_t seed) {
    if (multiquery) {
      GeneratedBatch batch = GenerateScriptBatch(seed, batch_opts);
      return harness.CheckBatch(batch.catalog, batch.scripts, seed);
    }
    GeneratedCase generated = GenerateScript(seed, gen_opts);
    if (hostile) {
      // Per-seed fault plan: rebuilt per script so the failure pattern
      // varies across the sweep while staying a pure function of the seed.
      HarnessOptions hopts = harness_opts;
      hopts.fault_plan = HostileFaultPlan(seed);
      return DiffHarness(hopts).Check(generated.catalog, generated.script,
                                      seed);
    }
    return harness.Check(generated.catalog, generated.script, seed);
  };

  // Re-run exact per-script seeds (the values printed in failure reports),
  // bypassing DeriveSeed.
  for (uint64_t seed : replay_seeds) {
    OracleReport report = check_one(seed);
    if (!report.ok) {
      PrintFailure(report);
      ++failures;
    } else if (!quiet) {
      std::printf("replay-seed %llu: ok\n",
                  static_cast<unsigned long long>(seed));
    }
  }

  for (long i = 0; i < iters; ++i) {
    uint64_t seed = DeriveSeed(base_seed, static_cast<uint64_t>(i));
    OracleReport report = check_one(seed);
    if (!report.ok) {
      PrintFailure(report);
      ++failures;
    }
    if (!quiet && iters >= 20 && (i + 1) % (iters / 10) == 0) {
      std::printf("scx_fuzz: %ld/%ld %s checked, %d failure%s\n",
                  i + 1, iters, multiquery ? "batches" : "scripts",
                  failures, failures == 1 ? "" : "s");
      std::fflush(stdout);
    }
  }

  // Every check counts: corpus replays, replayed seeds and generated cases.
  const long replayed = static_cast<long>(replays.size() + replay_seeds.size());
  const long checked = replayed + iters;
  if (failures > 0) {
    std::fprintf(stderr, "scx_fuzz: %d failure%s over %ld checks\n",
                 failures, failures == 1 ? "" : "s", checked);
    return 1;
  }
  if (!quiet) {
    std::printf(
        "scx_fuzz: all %ld checks passed (%ld replayed, %ld generated; seed "
        "%llu, %d machines, %d threads)\n",
        checked, replayed, iters, static_cast<unsigned long long>(base_seed),
        harness_opts.machines, harness_opts.threads);
  }
  return 0;
}

}  // namespace
}  // namespace scx

int main(int argc, char** argv) { return scx::Main(argc, argv); }

#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag throughput regressions.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--threshold 0.10]
    tools/bench_diff.py --fast-vs-traced BENCH_opt_cache.json [--threshold 0.10]
    tools/bench_diff.py --batch-vs-row BENCH_exec.json [--threshold 0.10]
    tools/bench_diff.py --morsel-vs-partition BENCH_exec.json [--threshold 0.10]
    tools/bench_diff.py --batched-vs-sequential BENCH_multiquery.json
    tools/bench_diff.py --faulty-vs-clean BENCH_fault.json [--threshold 0.02]

Both files must come from the same benchmark binary (bench/opt_cache or
bench/exec_throughput). Every rate metric (keys ending in ``rounds_per_sec``
or ``rows_per_sec``) found in both files is compared; a
drop of more than ``--threshold`` (default 10%) is a regression. Exits 1 when
any regression is found, 0 otherwise, so the CI perf-smoke job can gate on
it. Stdlib only.

``--fast-vs-traced`` gates within a single BENCH_opt_cache.json instead: the
untraced (fast) optimizer path must not round-process slower than the traced
path on any workload, beyond ``--threshold`` (the workloads run sub-second on
small scripts, so a noise margin is required for a meaningful gate).

``--batch-vs-row`` gates within a single BENCH_exec.json: per script, the
batched serial pipeline must not run slower than the batch_size=1 row
pipeline beyond ``--threshold``, and the two must have been bit-identical
(``batch_identical``) — the end-to-end payoff gate of the columnar executor.

``--morsel-vs-partition`` gates within a single BENCH_exec.json: per script,
the morsel-grained run must not run slower than the one-morsel-per-partition
baseline beyond ``--threshold``, and the two must have been bit-identical
(``morsel_identical``) — the determinism-plus-overhead gate of the morsel
scheduler.

``--batched-vs-sequential`` gates within a single BENCH_multiquery.json: per
grid cell, the batched submission must never move more bytes
(extracted + shuffled + spooled) than running the same scripts one at a
time, per-script outputs must match running alone (``outputs_identical``),
and where library overlap is >= 70% the summed sequential plan cost must be
at least 1.3x the merged plan's — the payoff gate of cross-query CSE. The
byte and identity checks ignore ``--threshold``: they are theorems of the
merged optimization, not noisy rates.

``--faulty-vs-clean`` gates within a single BENCH_fault.json: every armed and
faulty arm must have reproduced the clean arm's outputs and legacy counters
(``identical``, the tentpole bit-identity contract), the faulty sweep must
have injected at least one failure (an inert sweep proves nothing), the armed
arms must never inject, and the *aggregate* armed runtime (sum of per-script
best-of-K times) must stay within ``--threshold`` (default here 2%) of the
aggregate clean runtime — the always-on price of carrying the fault
machinery. The overhead gate is aggregate rather than per-script because
individual sub-20ms runs are noise-dominated even at best-of-K.
"""

import argparse
import json
import sys

RATE_SUFFIXES = ("rounds_per_sec", "rows_per_sec")


def collect_rates(node, prefix, out):
    """Flatten every numeric rate leaf (see RATE_SUFFIXES) into out[path]."""
    if isinstance(node, dict):
        for key, value in node.items():
            collect_rates(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for item in node:
            # Benchmark rows are keyed by their "name"/"config" field so the
            # comparison survives reordering between runs.
            if isinstance(item, dict):
                label = item.get("name") or item.get("config")
                collect_rates(
                    item, f"{prefix}[{label}]" if label else prefix, out)
    elif isinstance(node, (int, float)) and prefix.endswith(RATE_SUFFIXES):
        out[prefix] = float(node)


def load_rates(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    rates = {}
    collect_rates(doc, "", rates)
    if not rates:
        suffixes = " / ".join(RATE_SUFFIXES)
        sys.exit(f"bench_diff: no {suffixes} metrics in {path}")
    return rates


def fast_vs_traced(path, threshold):
    """Gate: fast (untraced) phase-2 must keep up with traced per script."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    scripts = doc.get("scripts")
    if not isinstance(scripts, list) or not scripts:
        sys.exit(f"bench_diff: {path} has no 'scripts' array "
                 "(expected a BENCH_opt_cache.json)")

    regressions = []
    print(f"{'script':<10} {'traced r/s':>12} {'fast r/s':>12} {'delta':>8}")
    for entry in scripts:
        name = entry.get("name", "?")
        traced = entry.get("traced", {}).get("phase2_rounds_per_sec")
        fast = entry.get("fast", {}).get("phase2_rounds_per_sec")
        if not traced or not fast:
            sys.exit(f"bench_diff: script {name} lacks traced/fast "
                     "phase2_rounds_per_sec")
        delta = (fast - traced) / traced
        marker = ""
        if delta < -threshold:
            regressions.append((name, traced, fast, delta))
            marker = "  << REGRESSION"
        print(f"{name:<10} {traced:>12.1f} {fast:>12.1f} {delta:>+7.1%}"
              f"{marker}")

    if regressions:
        print(f"\nfast path slower than traced beyond {threshold:.0%} on "
              f"{len(regressions)} workload(s):")
        for name, traced, fast, delta in regressions:
            print(f"  {name}: {traced:.1f} -> {fast:.1f} ({delta:+.1%})")
        return 1
    print(f"\nfast >= traced (within {threshold:.0%}) on all "
          f"{len(scripts)} workloads")
    return 0


def batch_vs_row(path, threshold):
    """Gate: the batched pipeline must keep up with the row path per script."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    scripts = doc.get("scripts")
    if not isinstance(scripts, list) or not scripts:
        sys.exit(f"bench_diff: {path} has no 'scripts' array "
                 "(expected a BENCH_exec.json)")

    failures = []
    print(f"{'script':<10} {'row r/s':>12} {'batch r/s':>12} {'delta':>8}")
    for entry in scripts:
        name = entry.get("name", "?")
        row = entry.get("row", {}).get("rows_per_sec")
        batch = entry.get("serial", {}).get("rows_per_sec")
        if not row or not batch:
            sys.exit(f"bench_diff: script {name} lacks row/serial "
                     "rows_per_sec (rerun bench/exec_throughput)")
        delta = (batch - row) / row
        marker = ""
        if delta < -threshold:
            failures.append((name, f"{delta:+.1%} slower than row path"))
            marker = "  << REGRESSION"
        if not entry.get("batch_identical", False):
            failures.append((name, "batched output diverged from row path"))
            marker += "  << DIVERGED"
        print(f"{name:<10} {row:>12.1f} {batch:>12.1f} {delta:>+7.1%}"
              f"{marker}")

    if failures:
        print(f"\nbatched pipeline failed the row-path gate on "
              f"{len(failures)} count(s):")
        for name, why in failures:
            print(f"  {name}: {why}")
        return 1
    print(f"\nbatched >= row path (within {threshold:.0%}) and bit-identical "
          f"on all {len(scripts)} scripts")
    return 0


def morsel_vs_partition(path, threshold):
    """Gate: morsel scheduling must keep up with whole-partition jobs."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    scripts = doc.get("scripts")
    if not isinstance(scripts, list) or not scripts:
        sys.exit(f"bench_diff: {path} has no 'scripts' array "
                 "(expected a BENCH_exec.json)")

    failures = []
    print(f"{'script':<10} {'part r/s':>12} {'morsel r/s':>12} {'delta':>8}")
    for entry in scripts:
        name = entry.get("name", "?")
        part = entry.get("partition", {}).get("rows_per_sec")
        morsel = entry.get("parallel", {}).get("rows_per_sec")
        if not part or not morsel:
            sys.exit(f"bench_diff: script {name} lacks partition/parallel "
                     "rows_per_sec (rerun bench/exec_throughput)")
        delta = (morsel - part) / part
        marker = ""
        if delta < -threshold:
            failures.append((name, f"{delta:+.1%} slower than "
                             "one-morsel-per-partition"))
            marker = "  << REGRESSION"
        if not entry.get("morsel_identical", False):
            failures.append((name, "morsel output diverged from "
                             "whole-partition run"))
            marker += "  << DIVERGED"
        print(f"{name:<10} {part:>12.1f} {morsel:>12.1f} {delta:>+7.1%}"
              f"{marker}")

    if failures:
        print(f"\nmorsel scheduling failed the partition-granularity gate "
              f"on {len(failures)} count(s):")
        for name, why in failures:
            print(f"  {name}: {why}")
        return 1
    print(f"\nmorsel >= partition granularity (within {threshold:.0%}) and "
          f"bit-identical on all {len(scripts)} scripts")
    return 0


def batched_vs_sequential(path):
    """Gate: one merged batch must beat running its scripts one at a time."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        sys.exit(f"bench_diff: {path} has no 'cells' array "
                 "(expected a BENCH_multiquery.json)")

    failures = []
    print(f"{'cell':<10} {'seq bytes':>14} {'batch bytes':>14} "
          f"{'cost ratio':>11}")
    for entry in cells:
        name = entry.get("name", "?")
        seq = entry.get("sequential", {}).get("bytes_moved")
        batch = entry.get("batched", {}).get("bytes_moved")
        ratio = entry.get("cost_ratio")
        overlap = entry.get("overlap", 0.0)
        if seq is None or batch is None or ratio is None:
            sys.exit(f"bench_diff: cell {name} lacks bytes_moved/cost_ratio "
                     "(rerun bench/multi_query)")
        marker = ""
        if batch > seq:
            failures.append((name, f"batched moved {batch - seq} more bytes "
                             "than sequential"))
            marker = "  << MORE-BYTES"
        if not entry.get("outputs_identical", False):
            failures.append((name, "batched outputs diverged from running "
                             "each script alone"))
            marker += "  << DIVERGED"
        if overlap >= 0.7 and ratio < 1.3:
            failures.append((name, f"cost ratio {ratio:.2f}x < 1.3x at "
                             f"{overlap:.0%} overlap"))
            marker += "  << NO-PAYOFF"
        print(f"{name:<10} {seq:>14} {batch:>14} {ratio:>10.2f}x{marker}")

    if failures:
        print(f"\nbatched submission failed the sequential-baseline gate on "
              f"{len(failures)} count(s):")
        for name, why in failures:
            print(f"  {name}: {why}")
        return 1
    print(f"\nbatched <= sequential bytes, identical outputs, and >= 1.3x "
          f"cheaper at high overlap on all {len(cells)} cells")
    return 0


def faulty_vs_clean(path, threshold):
    """Gate: fault machinery is free when idle and invisible when firing."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    scripts = doc.get("scripts")
    if not isinstance(scripts, list) or not scripts:
        sys.exit(f"bench_diff: {path} has no 'scripts' array "
                 "(expected a BENCH_fault.json)")

    failures = []
    clean_total = 0.0
    armed_total = 0.0
    injected_total = 0
    print(f"{'script':<10} {'clean ms':>10} {'armed ms':>10} "
          f"{'faulty ms':>10} {'killed':>7} {'recovered':>10}")
    for entry in scripts:
        name = entry.get("name", "?")
        clean = entry.get("clean", {})
        armed = entry.get("armed", {})
        faulty = entry.get("faulty", {})
        for arm_name, arm in (("clean", clean), ("armed", armed),
                              ("faulty", faulty)):
            if arm.get("seconds") is None:
                sys.exit(f"bench_diff: script {name} lacks a '{arm_name}' "
                         "arm (rerun bench/fault_recovery)")
        marker = ""
        for arm_name, arm in (("armed", armed), ("faulty", faulty)):
            if not arm.get("identical", False):
                failures.append((name, f"{arm_name} arm diverged from the "
                                 "clean run"))
                marker += f"  << {arm_name.upper()}-DIVERGED"
        if armed.get("failures_injected", 0) != 0:
            failures.append((name, "the inert armed plan injected a "
                             "failure"))
            marker += "  << INERT-PLAN-FIRED"
        clean_total += clean["seconds"]
        armed_total += armed["seconds"]
        injected_total += faulty.get("failures_injected", 0)
        print(f"{name:<10} {clean['seconds'] * 1e3:>10.2f} "
              f"{armed['seconds'] * 1e3:>10.2f} "
              f"{faulty['seconds'] * 1e3:>10.2f} "
              f"{faulty.get('failures_injected', 0):>7} "
              f"{faulty.get('partitions_recovered', 0):>10}{marker}")

    overhead = (armed_total / clean_total - 1.0) if clean_total > 0 else 0.0
    if overhead > threshold:
        failures.append(("aggregate",
                         f"armed-but-inert runtime {overhead:+.1%} over "
                         f"clean exceeds {threshold:.0%}"))
    if injected_total == 0:
        failures.append(("aggregate", "the faulty sweep injected zero "
                         "failures — recovery was never exercised"))

    print(f"\narmed-vs-clean aggregate overhead: {overhead:+.2%} "
          f"(threshold {threshold:.0%}), {injected_total} failures injected")
    if failures:
        print(f"fault machinery failed the clean-baseline gate on "
              f"{len(failures)} count(s):")
        for name, why in failures:
            print(f"  {name}: {why}")
        return 1
    print(f"fault-armed runs bit-identical and idle overhead within "
          f"{threshold:.0%} on all {len(scripts)} scripts")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="flag >threshold throughput regressions between two "
                    "bench JSONs")
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional drop that counts as a regression "
                             "(default 0.10)")
    parser.add_argument("--fast-vs-traced", action="store_true",
                        help="gate fast vs traced phase-2 rates within one "
                             "BENCH_opt_cache.json")
    parser.add_argument("--batch-vs-row", action="store_true",
                        help="gate batched vs row-path script rates within "
                             "one BENCH_exec.json")
    parser.add_argument("--morsel-vs-partition", action="store_true",
                        help="gate morsel vs whole-partition script rates "
                             "within one BENCH_exec.json")
    parser.add_argument("--batched-vs-sequential", action="store_true",
                        help="gate batched vs per-script-sequential bytes, "
                             "identity and cost within one "
                             "BENCH_multiquery.json")
    parser.add_argument("--faulty-vs-clean", action="store_true",
                        help="gate fault-armed vs clean identity and "
                             "armed-but-inert overhead within one "
                             "BENCH_fault.json")
    args = parser.parse_args()

    gates = [args.fast_vs_traced, args.batch_vs_row, args.morsel_vs_partition,
             args.batched_vs_sequential, args.faulty_vs_clean]
    if sum(gates) > 1:
        parser.error("--fast-vs-traced, --batch-vs-row, "
                     "--morsel-vs-partition, --batched-vs-sequential and "
                     "--faulty-vs-clean are exclusive")
    if any(gates):
        if args.current is not None:
            parser.error("single-file gates take exactly one JSON file")
        if args.fast_vs_traced:
            return fast_vs_traced(args.baseline, args.threshold)
        if args.batch_vs_row:
            return batch_vs_row(args.baseline, args.threshold)
        if args.batched_vs_sequential:
            return batched_vs_sequential(args.baseline)
        if args.faulty_vs_clean:
            return faulty_vs_clean(args.baseline, args.threshold)
        return morsel_vs_partition(args.baseline, args.threshold)
    if args.current is None:
        parser.error("two files required unless a single-file gate is given")

    base = load_rates(args.baseline)
    cur = load_rates(args.current)
    shared = sorted(set(base) & set(cur))
    if not shared:
        sys.exit("bench_diff: the two files share no rate metrics "
                 "(different benchmarks?)")

    regressions = []
    print(f"{'metric':<60} {'base':>10} {'cur':>10} {'delta':>8}")
    for key in shared:
        b, c = base[key], cur[key]
        delta = (c - b) / b if b > 0 else 0.0
        marker = ""
        if b > 0 and delta < -args.threshold:
            regressions.append((key, b, c, delta))
            marker = "  << REGRESSION"
        print(f"{key:<60} {b:>10.1f} {c:>10.1f} {delta:>+7.1%}{marker}")

    only_base = set(base) - set(cur)
    only_cur = set(cur) - set(base)
    for key in sorted(only_base):
        print(f"{key:<60} {base[key]:>10.1f} {'-':>10}   (missing in current)")
    for key in sorted(only_cur):
        print(f"{key:<60} {'-':>10} {cur[key]:>10.1f}   (new)")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}:")
        for key, b, c, delta in regressions:
            print(f"  {key}: {b:.1f} -> {c:.1f} ({delta:+.1%})")
        return 1
    print(f"\nno regressions beyond {args.threshold:.0%} "
          f"across {len(shared)} shared metric(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

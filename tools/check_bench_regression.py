#!/usr/bin/env python3
"""Gate bench results against a committed baseline or a paired run.

Usage:
  check_bench_regression.py <results.json> <BENCH_baseline.json>
  check_bench_regression.py --throughput-ratio <num.json> <den.json> \\
      [--min-ratio R] [--baseline BENCH_baseline.json --ratio NAME]
  check_bench_regression.py --hotpath-ratio <fast.json> <slow.json> \\
      --workload NAME [--min-ratio R] \\
      [--baseline BENCH_baseline.json --ratio NAME]
  check_bench_regression.py --cold-start <results.json> \\
      [--baseline BENCH_baseline.json] [--min-ratio R]
  check_bench_regression.py --recall <results.json> \\
      [--baseline BENCH_baseline.json] [--min-recall R] [--min-ratio R]

Default mode gates bench_pt2pt_hotpath: the bench emits machine-independent
metrics — per-workload speedup (reference ns/query divided by optimized
ns/query, both measured on the same machine in the same process) and
allocations/query of the optimized path. The baseline pins a minimum
speedup and a maximum allocation count per workload; a run fails when a
speedup drops more than the baseline's tolerance (default 25%) below its
floor, or when the optimized path allocates more than allowed.
Exact-result equality is enforced by the bench binary itself (it exits
non-zero on any mismatch before producing JSON). A run recorded with
"cache": false is gated against the baseline's "workloads_cache_off"
table instead of "workloads": with the result cache off, range and kNN
time the door-expansion algorithm rather than result-cache hits, so the
two regimes need separate floors.

--throughput-ratio mode gates bench_query_throughput: it compares the
peak_qps of two runs of the SAME workload, both measured on the same host
back to back, and fails when numerator/denominator drops below the floor.
Two pairings are gated in CI:

  cache ON vs cache OFF           — enabling the cross-query cache must
                                    keep paying for itself;
  cache ON +moves vs ON static    — mixing object moves into the workload
                                    (epoch-based partition-scoped
                                    invalidation) must retain most of the
                                    static-workload throughput.

The floor comes from --min-ratio, or from the committed baseline via
--baseline FILE --ratio NAME (the baseline's "throughput_ratios" map), so
the floors live next to the other bench floors instead of being hardcoded
in workflow YAML. The workload-identity check deliberately ignores
move_rate, cache, and landmarks: those are exactly the knobs a pairing
varies.

--hotpath-ratio mode gates the ALT landmark speedup: it compares the
optimized-path ns/query of one workload across two bench_pt2pt_hotpath
runs on the same host (first JSON = the configuration that must be
faster, e.g. the default landmark-pruned run; second = the
`--landmarks off` run), and fails when slow_ns / fast_ns drops below the
floor (baseline "hotpath_ratios" map; no tolerance is applied). Both runs
verify exact result equality against the reference in-process, so the
ratio compares bitwise-identical answers.

--cold-start mode gates bench_cold_start (the INDOORIX container payoff):
for every engine mode in the run's "modes" map it requires (a) the
cold-started engines answered bitwise-identically to the freshly built
one ("identical": true — the bench itself exits non-zero on a mismatch,
this re-checks the recorded verdict), and (b) build_ms / map_ms stays at
or above the floor from the baseline's "cold_start_ratios" map (or
--min-ratio). Both times come from the same process on the same machine,
so the ratio is machine-independent: if mapping a container ever stops
being dramatically cheaper than rebuilding the index, the container
format has lost its reason to exist and CI should say so.

--recall mode gates bench_recall (the approximate-kNN tier): the bench's
"summary" member carries the tier's operating point — the building
scenario's best k=10 sweep cell with recall >= 0.99 — and this mode fails
when its recall@10 or its approx/exact QPS ratio drops below the floors
from the baseline's "recall" object (min_recall_at_10, min_qps_ratio).
Both numbers come from the same process on the same machine, so they are
machine-independent. A run with "smoke": true uses the relaxed floors of
the baseline's recall.smoke object instead — the smoke workload is a
2-floor dense building where the tier's QPS advantage structurally cannot
appear; its gate only proves the path works and stays accurate.
"""

import json
import sys


def throughput_ratio(argv: list) -> int:
    min_ratio = None
    baseline_path = None
    ratio_name = None
    paths = []
    i = 0
    while i < len(argv):
        if argv[i] == "--min-ratio" and i + 1 < len(argv):
            min_ratio = float(argv[i + 1])
            i += 2
        elif argv[i] == "--baseline" and i + 1 < len(argv):
            baseline_path = argv[i + 1]
            i += 2
        elif argv[i] == "--ratio" and i + 1 < len(argv):
            ratio_name = argv[i + 1]
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if min_ratio is None and baseline_path is not None:
        with open(baseline_path) as f:
            ratios = json.load(f).get("throughput_ratios", {})
        if ratio_name not in ratios:
            print(
                f"baseline {baseline_path} has no throughput_ratios entry "
                f"{ratio_name!r}",
                file=sys.stderr,
            )
            return 2
        min_ratio = float(ratios[ratio_name])
    if min_ratio is None:
        min_ratio = 1.0
    label = ratio_name or "cache on/off"
    with open(paths[0]) as f:
        num = json.load(f)
    with open(paths[1]) as f:
        den = json.load(f)
    for key in ("floors", "objects", "queries_per_reader", "zipf", "mix",
                "seed"):
        if num.get(key) != den.get(key):
            print(
                f"workload mismatch: {key} differs between runs "
                f"({num.get(key)!r} vs {den.get(key)!r}) — the ratio would "
                "compare different workloads",
                file=sys.stderr,
            )
            return 2
    num_qps = float(num["peak_qps"])
    den_qps = float(den["peak_qps"])
    if den_qps <= 0:
        print("denominator run has no throughput", file=sys.stderr)
        return 2
    ratio = num_qps / den_qps
    print(
        f"{label}: peak {num_qps:.0f} QPS / {den_qps:.0f} QPS "
        f"= {ratio:.2f}x (min {min_ratio:.2f}x)"
    )
    if ratio < min_ratio:
        print(
            f"\nBENCH REGRESSION: {label} throughput ratio "
            f"{ratio:.2f}x is below the required {min_ratio:.2f}x",
            file=sys.stderr,
        )
        return 1
    print("\nthroughput ratio within baseline")
    return 0


def hotpath_ratio(argv: list) -> int:
    min_ratio = None
    baseline_path = None
    ratio_name = None
    workload = None
    paths = []
    i = 0
    while i < len(argv):
        if argv[i] == "--min-ratio" and i + 1 < len(argv):
            min_ratio = float(argv[i + 1])
            i += 2
        elif argv[i] == "--baseline" and i + 1 < len(argv):
            baseline_path = argv[i + 1]
            i += 2
        elif argv[i] == "--ratio" and i + 1 < len(argv):
            ratio_name = argv[i + 1]
            i += 2
        elif argv[i] == "--workload" and i + 1 < len(argv):
            workload = argv[i + 1]
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 2 or workload is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if min_ratio is None and baseline_path is not None:
        with open(baseline_path) as f:
            ratios = json.load(f).get("hotpath_ratios", {})
        if ratio_name not in ratios:
            print(
                f"baseline {baseline_path} has no hotpath_ratios entry "
                f"{ratio_name!r}",
                file=sys.stderr,
            )
            return 2
        min_ratio = float(ratios[ratio_name])
    if min_ratio is None:
        min_ratio = 1.0
    label = ratio_name or workload
    with open(paths[0]) as f:
        fast = json.load(f)
    with open(paths[1]) as f:
        slow = json.load(f)
    # Same building + workload on both sides; landmarks is exactly the
    # knob the pairing varies, so it is deliberately not compared.
    for key in ("smoke", "floors", "seed"):
        if fast.get(key) != slow.get(key):
            print(
                f"workload mismatch: {key} differs between runs "
                f"({fast.get(key)!r} vs {slow.get(key)!r})",
                file=sys.stderr,
            )
            return 2
    fast_run = fast["workloads"].get(workload)
    slow_run = slow["workloads"].get(workload)
    if fast_run is None or slow_run is None:
        print(f"workload {workload!r} missing from a run", file=sys.stderr)
        return 2
    fast_ns = float(fast_run["new_ns_per_query"])
    slow_ns = float(slow_run["new_ns_per_query"])
    if fast_ns <= 0:
        print("fast run has no measurement", file=sys.stderr)
        return 2
    ratio = slow_ns / fast_ns
    print(
        f"{label}: {slow_ns:.0f} ns/query -> {fast_ns:.0f} ns/query "
        f"= {ratio:.2f}x (min {min_ratio:.2f}x)"
    )
    if ratio < min_ratio:
        print(
            f"\nBENCH REGRESSION: {label} hot-path speedup {ratio:.2f}x "
            f"is below the required {min_ratio:.2f}x",
            file=sys.stderr,
        )
        return 1
    print("\nhot-path ratio within baseline")
    return 0


def cold_start(argv: list) -> int:
    min_ratio = None
    baseline_path = None
    paths = []
    i = 0
    while i < len(argv):
        if argv[i] == "--min-ratio" and i + 1 < len(argv):
            min_ratio = float(argv[i + 1])
            i += 2
        elif argv[i] == "--baseline" and i + 1 < len(argv):
            baseline_path = argv[i + 1]
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    floors = {}
    if baseline_path is not None:
        with open(baseline_path) as f:
            floors = json.load(f).get("cold_start_ratios", {})
    with open(paths[0]) as f:
        results = json.load(f)
    modes = results.get("modes", {})
    if not modes:
        print(f"{paths[0]} has no cold-start modes", file=sys.stderr)
        return 2
    failures = []
    for mode, run in modes.items():
        if not run.get("identical", False):
            failures.append(
                f"{mode}: cold-started engine did not answer bitwise-"
                "identically to the built one"
            )
            continue
        floor = min_ratio if min_ratio is not None else floors.get(mode)
        if floor is None:
            print(f"{mode}: no floor configured, skipping ratio check")
            continue
        ratio = float(run["build_over_map"])
        print(
            f"{mode}: build {float(run['build_ms']):.2f} ms vs map "
            f"{float(run['map_ms']):.3f} ms = {ratio:.1f}x "
            f"(min {float(floor):.1f}x), identical"
        )
        if ratio < float(floor):
            failures.append(
                f"{mode}: build/map ratio {ratio:.1f}x is below the "
                f"required {float(floor):.1f}x — mapping the container "
                "no longer beats rebuilding"
            )
    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\ncold-start ratios within baseline")
    return 0


def recall(argv: list) -> int:
    min_recall = None
    min_ratio = None
    baseline_path = None
    paths = []
    i = 0
    while i < len(argv):
        if argv[i] == "--min-recall" and i + 1 < len(argv):
            min_recall = float(argv[i + 1])
            i += 2
        elif argv[i] == "--min-ratio" and i + 1 < len(argv):
            min_ratio = float(argv[i + 1])
            i += 2
        elif argv[i] == "--baseline" and i + 1 < len(argv):
            baseline_path = argv[i + 1]
            i += 2
        else:
            paths.append(argv[i])
            i += 1
    if len(paths) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        results = json.load(f)
    summary = results.get("summary")
    if not summary:
        print(f"{paths[0]} has no recall summary", file=sys.stderr)
        return 2
    smoke = bool(results.get("smoke", False))
    if baseline_path is not None:
        with open(baseline_path) as f:
            floors = json.load(f).get("recall", {})
        if smoke:
            floors = floors.get("smoke", {})
        if min_recall is None and "min_recall_at_10" in floors:
            min_recall = float(floors["min_recall_at_10"])
        if min_ratio is None and "min_qps_ratio" in floors:
            min_ratio = float(floors["min_qps_ratio"])
    if min_recall is None or min_ratio is None:
        print(
            "no recall/ratio floors configured (pass --baseline or both "
            "--min-recall and --min-ratio)",
            file=sys.stderr,
        )
        return 2
    got_recall = float(summary["recall_at_k"])
    got_ratio = float(summary["qps_ratio"])
    mode = "smoke" if smoke else "full"
    print(
        f"approx knn operating point ({mode}): scenario="
        f"{summary.get('scenario')} k={summary.get('k')} "
        f"landmarks={summary.get('landmarks')} "
        f"factor={summary.get('factor')}"
    )
    print(
        f"  recall@{summary.get('k')} {got_recall:.4f} "
        f"(min {min_recall:.4f}), approx/exact QPS "
        f"{got_ratio:.2f}x (min {min_ratio:.2f}x)"
    )
    failures = []
    if int(summary.get("k", 0)) != 10:
        failures.append(
            f"summary cell is k={summary.get('k')}, not the gated k=10"
        )
    if got_recall < min_recall:
        failures.append(
            f"recall@10 {got_recall:.4f} is below the required "
            f"{min_recall:.4f}"
        )
    if got_ratio < min_ratio:
        failures.append(
            f"approx/exact QPS ratio {got_ratio:.2f}x is below the "
            f"required {min_ratio:.2f}x"
        )
    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nrecall gate within baseline")
    return 0


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--throughput-ratio":
        return throughput_ratio(sys.argv[2:])
    if len(sys.argv) >= 2 and sys.argv[1] == "--hotpath-ratio":
        return hotpath_ratio(sys.argv[2:])
    if len(sys.argv) >= 2 and sys.argv[1] == "--cold-start":
        return cold_start(sys.argv[2:])
    if len(sys.argv) >= 2 and sys.argv[1] == "--recall":
        return recall(sys.argv[2:])
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        results = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    tolerance = float(baseline.get("tolerance", 0.25))
    table = "workloads" if results.get("cache", True) else "workloads_cache_off"
    print(f"gating against baseline table {table!r}")
    failures = []
    for name, floor in baseline[table].items():
        run = results["workloads"].get(name)
        if run is None:
            failures.append(f"{name}: missing from bench results")
            continue
        speedup = float(run["speedup"])
        min_speedup = float(floor["min_speedup"])
        # A >tolerance regression of ns/query shows up as the speedup ratio
        # falling more than `tolerance` below its floor.
        threshold = min_speedup / (1.0 + tolerance)
        if speedup < threshold:
            failures.append(
                f"{name}: speedup {speedup:.2f}x is below the allowed "
                f"{threshold:.2f}x (baseline {min_speedup:.2f}x, "
                f"tolerance {tolerance:.0%})"
            )
        allocs = float(run["new_allocs_per_query"])
        max_allocs = float(floor["max_new_allocs_per_query"])
        if allocs > max_allocs:
            failures.append(
                f"{name}: {allocs:.2f} allocations/query in the optimized "
                f"path exceeds the allowed {max_allocs:.2f}"
            )
        print(
            f"{name}: speedup {speedup:.2f}x "
            f"(floor {min_speedup:.2f}x, threshold {threshold:.2f}x), "
            f"allocs/query {allocs:.2f} (max {max_allocs:.2f})"
        )

    if failures:
        print("\nBENCH REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall workloads within baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

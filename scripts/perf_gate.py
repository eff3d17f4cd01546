#!/usr/bin/env python3
"""Perf-trajectory gate for BENCH_evaluation.json.

Compares a freshly measured benchmark summary against the committed baseline
and fails (exit 1) when a tracked speedup regressed by more than the allowed
fraction (default 20%).  Metrics absent from the *baseline* are reported but
never gated — unless they are listed in REQUIRE_BASELINE, in which case a
missing baseline is itself a failure (those metrics have committed history
and silently dropping them from the summary would un-gate them).

Usage: perf_gate.py BASELINE.json FRESH.json [--max-regression=0.20]
"""

import json
import sys

TRACKED = [
    ("speedup_compiled_vs_interpreter_1_worker",),
    ("cascade", "speedup_compiled_vs_naive_1_worker"),
    # Serving path: jobs/sec at 2 platforms over 1 platform.  A ratio of two
    # same-machine measurements, like the speedups above; on a single-core
    # host it sits at ~1.0, on multi-core hosts above it — the gate only
    # fires if pool scaling regresses >20% below the committed baseline.
    ("service_throughput", "scaling_2_platforms"),
    # Incremental plan patching: ns/candidate of a fresh compile over a
    # parent-plan patch (diff + rewrite of only the mutated genes).
    ("plan_compile", "patch_speedup"),
    # Window memory layout: full-image evals/sec of the SoA plane path over
    # the AoS gather path, same plan, single worker.
    ("window_layout", "plane_speedup"),
    # Reference filters routed through WindowPlanes over the legacy
    # per-window kernel stream (byte-identity gated in the bench itself).
    ("reference_filters", "plane_speedup"),
    # Fault-scenario layer: schedule compilation throughput (events/sec,
    # higher is better — the ns/event figure is recorded alongside for
    # readability) and the generalised campaign executor's evals/sec plus
    # its ratio to the legacy sweep (byte-identity gated in the bench
    # itself; ~1.0 means the abstraction is free).  Recorded, not yet
    # gated — no committed baseline exists until this summary lands.
    ("resilience", "schedule_compile_events_per_sec"),
    ("resilience", "campaign_evals_per_sec"),
    ("resilience", "scenario_vs_legacy_ratio"),
    # Streaming engine: steady-state filtering throughput with a trained
    # incumbent (frames/sec) and the warm-vs-cold bootstrap evaluations gap
    # when the bootstrap starts from an explicit parent.  `frames_to_recover` is recorded in the
    # summary but not gated here — the gate is higher-is-better and recovery
    # latency is lower-is-better.  Recorded, not yet gated — no committed
    # baseline exists until this summary lands.
    ("streaming", "frames_per_sec_steady_state"),
    ("streaming", "warm_bootstrap_speedup"),
]

# Gated even when the committed baseline lacks them: these ratios have
# landed baselines, so "missing" means the summary (or the bench) lost the
# section, not that the metric is new.
REQUIRE_BASELINE = {
    ("plan_compile", "patch_speedup"),
    ("window_layout", "plane_speedup"),
}


def lookup(doc, path):
    node = doc
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return float(node)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    max_regression = 0.20
    for a in argv[1:]:
        if a.startswith("--max-regression="):
            max_regression = float(a.split("=", 1)[1])

    with open(args[0]) as f:
        baseline = json.load(f)
    with open(args[1]) as f:
        fresh = json.load(f)

    failures = []
    for path in TRACKED:
        name = ".".join(path)
        base = lookup(baseline, path)
        new = lookup(fresh, path)
        if new is None:
            failures.append(f"{name}: missing from the fresh summary")
            continue
        if base is None:
            if path in REQUIRE_BASELINE:
                failures.append(
                    f"{name}: missing from the baseline — this metric is "
                    f"gated and must not drop out of the committed summary"
                )
            else:
                print(f"{name}: {new:.2f} (no baseline yet — recorded, not gated)")
            continue
        floor = base * (1.0 - max_regression)
        status = "OK" if new >= floor else "REGRESSION"
        print(f"{name}: baseline {base:.2f} -> fresh {new:.2f} (floor {floor:.2f}) {status}")
        if new < floor:
            failures.append(
                f"{name} regressed: {new:.2f} < {floor:.2f} "
                f"({max_regression:.0%} below baseline {base:.2f})"
            )

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

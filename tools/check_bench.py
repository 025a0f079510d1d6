#!/usr/bin/env python3
"""Perf-regression gate: compare a bench run against its committed baseline.

The repo's benches print machine-readable lines prefixed with ``JSON ``
(one JSON object per line; ``summary`` / ``routing_summary`` rows
aggregate a run). This tool parses two such captures — a committed
baseline under ``bench/baselines/`` and the current run's stdout — and
fails (exit 1) when a gated metric regresses:

  * throughput-like metrics (images/sec, fractions of the measured GEMM
    peak, speedup and goodput ratios) may not DROP by more than
    ``--throughput-drop`` (default 20%);
  * latency-like metrics (p99, swap cost) may not GROW by more than
    ``--p99-growth`` (default 25%);
  * acceptance booleans (e.g. ``shed_protects``, ``routing_wins``) that
    were true in the baseline must stay true;
  * every gated metric of a baseline summary row must still be present in
    the current run's row (a bench that stops printing a verdict fails).

Only summary rows are gated: per-configuration rows are useful context
in the artifacts but too noisy to gate a CI run on. Absolute
throughput numbers move with runner hardware; ``--skip-absolute``
restricts the gate to machine-independent ratios and booleans (use it
when comparing runs from different machine classes — refresh the
baselines instead of loosening thresholds when the runner fleet
changes).

Usage:
  tools/check_bench.py --baseline bench/baselines/bench_overload.json \
      --current bench-out/bench_overload.txt

Exit codes: 0 pass, 1 regression, 2 bad input.
"""

import argparse
import json
import sys

# Gated metrics on summary rows. "absolute" throughput metrics scale
# with the host; ratio metrics and booleans are machine-independent.
HIGHER_BETTER_ABSOLUTE = {
    "sequential_images_per_sec",
    "best_batched_images_per_sec",
    "pinned_modeled_images_per_sec",
    "routed_modeled_images_per_sec",
    "steady_images_per_sec",
    "worst_publish_wave_images_per_sec",
    "float_peak_images_per_sec",
}
# deadline_goodput_ratio and unprotected_goodput_ratio are context, not
# gates: they share the calibration denominator, so one slow calibration
# inflates them in a committed baseline and every later run "regresses".
# shed_goodput_ratio is gated because it is additionally stabilized
# (best-of-3 in the bench) and doubles as the shed_protects acceptance.
# The fractions of the measured GEMM peak (batched_fwd_frac_peak_b16,
# batched_fwd_bwd_frac_peak_b16, fused_fwd_frac_peak_b16, float_frac_peak,
# fixed_frac_peak, fused_ode_frac_peak) and routing_speedup spread more
# than the 20% band over repeated runs on one host, so they are gated only
# through the floor verdicts in BOOLEAN_GATES (the *_frac_peak_ok floors,
# routing_wins). fused_conv_bn_relu_speedup is context: both of its arms
# run the same conv, so it measures only the two elementwise passes fusion
# saves, and its spread crosses the 20% band.
HIGHER_BETTER_RELATIVE = {
    "batched_speedup",
    "shed_goodput_ratio",
    "cluster_scaling_4x",
    "spill_goodput_ratio",
    "adversarial_spill_ratio",
}
LOWER_BETTER_ABSOLUTE = {
    "mean_swap_ms",
    "max_swap_ms",
    "p99_high_ms",
}
# Relative latency outcomes (throughput_dip) are deliberately NOT gated as
# percentages: their baselines are tiny, so a scheduler hiccup reads as a
# huge relative change. Their acceptance margins are enforced through the
# boolean verdicts instead (dip_within_25pct, and high_p99_bounded for
# the overload bench's high-priority p99).
LOWER_BETTER_RELATIVE = set()
# batching_wins and host_routing_wins are host-contention verdicts: on a
# core-starved runner producer and worker time-slice one core and the
# verdict flaps 50/50 with no code change, so they stay in the artifacts
# but out of the gate (best_batched_images_per_sec numerically gates the
# same regression).
BOOLEAN_GATES = {
    "routing_wins",
    "batched_fwd_frac_peak_ok",
    "batched_fwd_bwd_frac_peak_ok",
    "fused_fwd_frac_peak_ok",
    "float_frac_peak_ok",
    "fixed_frac_peak_ok",
    "fused_ode_frac_peak_ok",
    "dip_within_25pct",
    "shed_protects",
    "high_p99_bounded",
    "cluster_scales",
    "spill_protects",
    "frontend_ok",
    "tenant_isolation",
}


def parse_records(path):
    """All JSON objects in the file (with or without the JSON prefix)."""
    records = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for line in lines:
        line = line.strip()
        if line.startswith("JSON "):
            line = line[len("JSON "):]
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and "bench" in obj:
            records.append(obj)
    return records


def summary_rows(records):
    """Gated rows keyed so baseline and current line up."""
    rows = {}
    for r in records:
        if not (r.get("summary") or r.get("routing_summary")):
            continue
        key = (
            r.get("bench"),
            "routing" if r.get("routing_summary") else "summary",
        )
        rows[key] = r
    return rows


def main():
    ap = argparse.ArgumentParser(
        description="Compare bench JSON output against a committed baseline."
    )
    ap.add_argument("--baseline", required=True,
                    help="committed baseline capture (bench/baselines/*.json)")
    ap.add_argument("--current", required=True,
                    help="the current run's captured stdout")
    ap.add_argument("--throughput-drop", type=float, default=0.20,
                    help="max fractional drop for higher-is-better metrics")
    ap.add_argument("--p99-growth", type=float, default=0.25,
                    help="max fractional growth for lower-is-better metrics")
    ap.add_argument("--latency-floor-ms", type=float, default=5.0,
                    help="ignore latency growth whose absolute delta is "
                         "below this many ms (sub-5ms p99s move by whole "
                         "scheduler quanta)")
    ap.add_argument("--skip-absolute", action="store_true",
                    help="gate only machine-independent ratios and booleans")
    args = ap.parse_args()

    base = summary_rows(parse_records(args.baseline))
    curr = summary_rows(parse_records(args.current))
    if not base:
        print(f"error: no summary rows in baseline {args.baseline}",
              file=sys.stderr)
        return 2
    if not curr:
        print(f"error: no summary rows in current run {args.current} "
              "(did the bench crash?)", file=sys.stderr)
        return 2

    higher = set(HIGHER_BETTER_RELATIVE)
    lower = set(LOWER_BETTER_RELATIVE)
    if not args.skip_absolute:
        higher |= HIGHER_BETTER_ABSOLUTE
        lower |= LOWER_BETTER_ABSOLUTE

    failures = []
    bad_inputs = []
    compared = 0
    for key, brow in sorted(base.items()):
        crow = curr.get(key)
        if crow is None:
            failures.append(f"{key}: summary row missing from current run")
            continue
        for metric, bval in sorted(brow.items()):
            direction = ("higher" if metric in higher
                         else "lower" if metric in lower else None)
            if metric not in BOOLEAN_GATES and direction is None:
                continue
            if metric not in crow:
                failures.append(
                    f"{key[0]}/{key[1]}: gated metric '{metric}' is in the "
                    "baseline but missing from the current run")
                print(f"  {key[0]:>20s} {metric:<36s} "
                      f"{'':>10s}    {'missing':>10s}  FAIL")
                continue
            cval = crow[metric]
            if metric in BOOLEAN_GATES:
                compared += 1
                status = "ok"
                if bval is True and cval is not True:
                    status = "FAIL"
                    failures.append(
                        f"{key[0]}/{key[1]}: {metric} was true in the "
                        "baseline, now false")
                print(f"  {key[0]:>20s} {metric:<36s} "
                      f"{str(bval):>10s} -> {str(cval):>10s}  {status}")
                continue
            # A gated metric with a zero, negative or non-numeric baseline
            # can never be compared: every later run would silently skip
            # it and the gate would pass while guarding nothing. That is a
            # broken BASELINE (bad input), not a regression — name the
            # offending row and metric and exit 2 so it gets re-captured.
            if (isinstance(bval, bool) or not isinstance(bval, (int, float))
                    or bval <= 0):
                bad_inputs.append(
                    f"{key[0]}/{key[1]}: baseline value for gated metric "
                    f"'{metric}' is {bval!r} (need a positive number) — "
                    f"re-capture {args.baseline}")
                continue
            if isinstance(cval, bool) or not isinstance(cval, (int, float)):
                bad_inputs.append(
                    f"{key[0]}/{key[1]}: current value for gated metric "
                    f"'{metric}' is {cval!r} (need a number) — did the "
                    "bench emit a malformed summary row?")
                continue
            compared += 1
            change = (float(cval) - float(bval)) / float(bval)
            status = "ok"
            if direction == "higher" and change < -args.throughput_drop:
                status = "FAIL"
                failures.append(
                    f"{key[0]}/{key[1]}: {metric} dropped "
                    f"{-change:.1%} (baseline {bval:g}, current {cval:g}, "
                    f"limit {args.throughput_drop:.0%})")
            elif (direction == "lower" and change > args.p99_growth and
                  not (metric.endswith("_ms") and
                       float(cval) - float(bval) < args.latency_floor_ms)):
                status = "FAIL"
                failures.append(
                    f"{key[0]}/{key[1]}: {metric} grew {change:.1%} "
                    f"(baseline {bval:g}, current {cval:g}, "
                    f"limit {args.p99_growth:.0%})")
            print(f"  {key[0]:>20s} {metric:<36s} "
                  f"{bval:>10.4g} -> {cval:>10.4g}  {change:+7.1%}  {status}")

    if bad_inputs:
        print(f"\nBAD GATE INPUT ({len(bad_inputs)} problem(s)):",
              file=sys.stderr)
        for b in bad_inputs:
            print(f"  - {b}", file=sys.stderr)
        return 2
    if compared == 0:
        print("error: no gated metrics in common between baseline and "
              "current run", file=sys.stderr)
        return 2
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} regression(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"\nperf gate passed: {compared} metric(s) within thresholds "
          f"(drop<={args.throughput_drop:.0%}, "
          f"growth<={args.p99_growth:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

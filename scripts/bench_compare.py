#!/usr/bin/env python3
"""Compare an ocn-bench-report/v1 JSON run against a committed baseline.

Regression gate for CI bench-smoke and for local use:

    scripts/bench_compare.py --run out/e13.json --baseline bench/baselines/e13_quick.json
    scripts/bench_compare.py --run out/m1.json --baseline bench/baselines/m1_micro.json \
        --schema-only --exact 'shard_scaling.flits.*' --exact saturation64.flits

What is compared
  * schema / experiment id / quick flag / config fingerprint must match
    exactly (a fingerprint mismatch means the run measured a different
    configuration — comparing the numbers would be meaningless);
  * every metric in the baseline must exist in the run and lie within the
    tolerance band (relative error; absolute for near-zero baselines);
  * every "counters" snapshot in the baseline (the kernel's deterministic
    twins: kernel.component_steps, kernel.channel_advances, per-node and
    per-link counts) must match the run exactly: same cycle, same counter
    names, same values;
  * verdicts that were ok in the baseline must still be ok in the run
    (paper-claim regressions fail even when the raw numbers drift slowly);
  * every "perf_metrics" key in the baseline must exist in the run (key
    presence only — the values are wall-clock throughput numbers and are
    machine-dependent by contract);
  * "timing" and "notes" are never compared: wall-clock numbers are
    machine-dependent by contract (see bench/common.h).

--min-metric NAME=VALUE (repeatable) additionally enforces a hard floor on a
perf metric (falling back to "metrics" when NAME is not in "perf_metrics"):
the run fails when its value is below VALUE. This is how the Mflit/s router
hot-path gate is wired: the floor is chosen conservatively against the
machine class CI runs on (see EXPERIMENTS.md S2).

--schema-only skips the numeric comparison and only checks that every
baseline metric key is present — the mode for microbenchmark reports whose
values are wall-clock dependent.

--exact PATTERN (repeatable, fnmatch syntax) compares the matching baseline
metrics exactly, in either mode. It is how the deterministic twins of a
schema-only report (flit counts next to wall-clock rates) stay gated. A
pattern that matches no baseline metric is a usage error.

Exit status: 0 = no regression, 1 = regression or comparison mismatch,
2 = usage / unreadable input.
"""

import argparse
import fnmatch
import json
import sys

SCHEMA = "ocn-bench-report/v1"


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if doc.get("schema") != SCHEMA:
        print(f"bench_compare: {path}: schema {doc.get('schema')!r} != {SCHEMA!r}",
              file=sys.stderr)
        sys.exit(2)
    return doc


def parse_tolerance_overrides(pairs):
    out = {}
    for p in pairs:
        name, _, value = p.rpartition("=")
        if not name:
            print(f"bench_compare: --tolerance-for needs NAME=VALUE, got {p!r}",
                  file=sys.stderr)
            sys.exit(2)
        try:
            out[name] = float(value)
        except ValueError:
            print(f"bench_compare: bad tolerance in {p!r}", file=sys.stderr)
            sys.exit(2)
    return out


def parse_min_metrics(pairs):
    out = {}
    for p in pairs:
        name, _, value = p.rpartition("=")
        if not name:
            print(f"bench_compare: --min-metric needs NAME=VALUE, got {p!r}",
                  file=sys.stderr)
            sys.exit(2)
        try:
            out[name] = float(value)
        except ValueError:
            print(f"bench_compare: bad floor in {p!r}", file=sys.stderr)
            sys.exit(2)
    return out


def check_min_metrics(run, floors):
    """Enforce hard floors on (perf) metrics; returns problem strings."""
    problems = []
    perf = run.get("perf_metrics", {})
    metrics = run.get("metrics", {})
    for name, floor in floors.items():
        if name in perf:
            got = perf[name]
        elif name in metrics:
            got = metrics[name]
        else:
            problems.append(f"--min-metric {name}: metric missing from run")
            continue
        if got < floor:
            problems.append(
                f"perf metric {name}: run {got:.6g} below floor {floor:.6g}")
    return problems


def compare_counters(run, baseline):
    """Exact comparison of the "counters" snapshots; returns problems."""
    b_snaps = baseline.get("counters", [])
    r_snaps = run.get("counters", [])
    if len(b_snaps) != len(r_snaps):
        return [f"counters: baseline has {len(b_snaps)} snapshot(s), "
                f"run has {len(r_snaps)}"]
    problems = []
    for i, (b, r) in enumerate(zip(b_snaps, r_snaps)):
        where = f"counters[{i}]"
        if b.get("cycle") != r.get("cycle"):
            problems.append(f"{where}: baseline cycle {b.get('cycle')}, "
                            f"run cycle {r.get('cycle')}")
        b_vals, r_vals = b.get("counters", {}), r.get("counters", {})
        for name in sorted(b_vals.keys() | r_vals.keys()):
            if name not in r_vals:
                problems.append(f"{where}: counter missing from run: {name}")
            elif name not in b_vals:
                problems.append(f"{where}: counter not in baseline: {name}")
            elif b_vals[name] != r_vals[name]:
                problems.append(f"{where}: counter {name}: baseline "
                                f"{b_vals[name]}, run {r_vals[name]}")
    return problems


def compare(run, baseline, tolerance, overrides, schema_only, exact):
    """Return a list of human-readable regression strings."""
    problems = []

    for key in ("experiment", "quick", "config_fingerprint"):
        b, r = baseline.get(key), run.get(key)
        ident = b.get("id") if key == "experiment" and isinstance(b, dict) else b
        r_ident = r.get("id") if key == "experiment" and isinstance(r, dict) else r
        if ident != r_ident:
            problems.append(f"{key}: baseline {ident!r} != run {r_ident!r}")
    if problems:
        # Identity mismatches make every later diff meaningless: stop here.
        return problems

    b_metrics = baseline.get("metrics", {})
    r_metrics = run.get("metrics", {})
    for pattern in exact:
        if not fnmatch.filter(b_metrics, pattern):
            problems.append(f"--exact {pattern}: matches no baseline metric")
    for name, expect in b_metrics.items():
        if name not in r_metrics:
            problems.append(f"metric missing from run: {name}")
            continue
        got = r_metrics[name]
        if any(fnmatch.fnmatchcase(name, p) for p in exact):
            if got != expect:
                problems.append(f"metric {name}: baseline {expect!r}, "
                                f"run {got!r} (exact)")
            continue
        if schema_only:
            continue
        tol = overrides.get(name, tolerance)
        if abs(expect) < 1e-12:
            ok = abs(got) <= tol
        else:
            ok = abs(got - expect) / abs(expect) <= tol
        if not ok:
            rel = (got - expect) / expect * 100 if expect else float("inf")
            problems.append(
                f"metric {name}: baseline {expect:.6g}, run {got:.6g} "
                f"({rel:+.1f}%, tolerance {tol * 100:.1f}%)")

    # perf_metrics: key presence is part of the schema; values are
    # wall-clock dependent and never diffed (floors go through --min-metric).
    for name in baseline.get("perf_metrics", {}):
        if name not in run.get("perf_metrics", {}):
            problems.append(f"perf metric missing from run: {name}")

    b_verdicts = {v["metric"]: v for v in baseline.get("verdicts", [])}
    r_verdicts = {v["metric"]: v for v in run.get("verdicts", [])}
    for name, v in b_verdicts.items():
        if name not in r_verdicts:
            problems.append(f"verdict missing from run: {name}")
        elif v.get("ok") and not r_verdicts[name].get("ok"):
            problems.append(
                f"verdict regressed: {name} (paper {v.get('paper')!r}, "
                f"was {v.get('measured')!r}, now {r_verdicts[name].get('measured')!r})")

    problems += compare_counters(run, baseline)

    if run.get("exit_code", 0) != 0:
        problems.append(f"run reported nonzero exit_code {run.get('exit_code')}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", required=True, help="fresh report JSON")
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="relative tolerance for metrics (default 0.05)")
    ap.add_argument("--tolerance-for", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="per-metric tolerance override (repeatable)")
    ap.add_argument("--schema-only", action="store_true",
                    help="check metric key presence, not values "
                         "(wall-clock-dependent reports)")
    ap.add_argument("--exact", action="append", default=[],
                    metavar="PATTERN",
                    help="compare baseline metrics matching this fnmatch "
                         "pattern exactly, also under --schema-only "
                         "(repeatable)")
    ap.add_argument("--min-metric", action="append", default=[],
                    metavar="NAME=VALUE",
                    help="hard floor on a run (perf) metric (repeatable); "
                         "fails when the run value is below VALUE")
    args = ap.parse_args()

    run = load(args.run)
    baseline = load(args.baseline)
    overrides = parse_tolerance_overrides(args.tolerance_for)
    floors = parse_min_metrics(args.min_metric)
    problems = compare(run, baseline, args.tolerance, overrides,
                       args.schema_only, args.exact)
    problems += check_min_metrics(run, floors)

    exp = baseline.get("experiment", {}).get("id", "?")
    mode = "schema-only" if args.schema_only else f"tolerance {args.tolerance * 100:.1f}%"
    if problems:
        print(f"FAIL {exp} ({mode}): {len(problems)} regression(s)")
        for p in problems:
            print(f"  {p}")
        sys.exit(1)
    n = len(baseline.get("metrics", {}))
    n_counters = sum(len(s.get("counters", {}))
                     for s in baseline.get("counters", []))
    print(f"OK {exp} ({mode}): {n} metrics, "
          f"{len(baseline.get('verdicts', []))} verdicts, "
          f"{n_counters} counters match")


if __name__ == "__main__":
    main()

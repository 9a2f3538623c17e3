#!/usr/bin/env python3
"""Run alternating parent/change simbench pairs and record them in BENCH_simbench.json.

    scripts/simbench_pairs.py --parent ../parent --change . --workload uniform64 \\
        --pairs 10 --seconds 20 --seed 1 --label "what the change does" \\
        --out BENCH_simbench.json

Each pair runs `python3 simbench/run.py --workload W --seed S --seconds T`
once in each checkout (each builds its own .bench_build), alternating which
side goes first. The entry appended to --out has the format of the existing
entries: per workload the medians and quartiles of each side, change_over_parent (change
median / parent median, 3 decimals), every run, and change_better: in how
many pairs the change was strictly better, per metric, by the direction
BENCHMARK.json gives it. --section names the key the workloads go under
(default end_to_end_medians); --amend adds the workloads to that section of
the last entry instead of appending a new entry (another workload, or a
held-out seed under its own section). --require-sim-identical
exits 1 unless every sim_* metric is identical across every run of both
sides, as a behaviour-preserving change must leave it.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds, size):
    cmd = [sys.executable, "simbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--size", size]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"simbench_pairs: {' '.join(cmd)} in {checkout} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.exit(f"simbench_pairs: {workload} in {checkout} reported a failed run: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def directions(checkout):
    bench = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def quartiles(values):
    """[Q1, Q3] of `values` (the median of one value is the value)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(runs, better):
    names = list(runs["parent"][0].keys())
    out = {"runs": f"{len(runs['parent'])} pairs, alternating which side runs first; "
                   "0 failed operations on either side"}
    for side in ("parent", "change"):
        out[side] = {n: round(statistics.median(r[n] for r in runs[side]), 6) for n in names}
    out["quartiles"] = {
        side: {n: [round(q, 6) for q in quartiles([r[n] for r in runs[side]])] for n in names}
        for side in ("parent", "change")}
    out["change_over_parent"] = {
        n: (round(out["change"][n] / out["parent"][n], 3) if out["parent"][n] else None)
        for n in names}
    wins = {}
    for n in names:
        sign = -1 if better.get(n) == "lower" else 1
        wins[n] = sum(1 for p, c in zip(runs["parent"], runs["change"])
                      if sign * (c[n] - p[n]) > 0)
    out["change_better"] = wins
    out["every_run"] = {side: {n: [round(r[n], 6) for r in runs[side]] for n in names}
                        for side in ("parent", "change")}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--out", required=True, help="JSON file with an 'entries' list")
    ap.add_argument("--label", default="", help="the entry's 'change' text")
    ap.add_argument("--claim", default="")
    ap.add_argument("--host-class", default="")
    ap.add_argument("--section", default="end_to_end_medians")
    ap.add_argument("--amend", action="store_true",
                    help="add the section to the last entry instead of a new entry")
    ap.add_argument("--require-sim-identical", action="store_true")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    better = directions(args.change)
    section = {}
    mismatched = []
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, args.seed, args.seconds, args.size))
            print(f"{workload} pair {i + 1}/{args.pairs}: host_flit_hops_per_s parent "
                  f"{runs['parent'][-1]['host_flit_hops_per_s']:.0f} change "
                  f"{runs['change'][-1]['host_flit_hops_per_s']:.0f}", file=sys.stderr)
        section[workload] = {"seed": args.seed, **summarize(runs, better)}
        for name in runs["parent"][0]:
            if not name.startswith("sim_"):
                continue
            values = {r[name] for side in runs.values() for r in side}
            if len(values) != 1 or section[workload]["change_over_parent"][name] != 1.0:
                mismatched.append(f"{workload} {name}: {sorted(values)}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"entries": []}
    if args.amend:
        if not doc["entries"]:
            sys.exit("simbench_pairs: --amend needs an existing entry")
        entry = doc["entries"][-1]
    else:
        entry = {"change": args.label, "host_class": args.host_class,
                 "command": "python3 simbench/run.py --workload W --seed "
                            f"{args.seed} --seconds {args.seconds:g}",
                 "claim": args.claim}
        doc["entries"].append(entry)
    entry.setdefault(args.section, {}).update(section)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for workload, s in section.items():
        ratios = ", ".join(f"{n} {r}" for n, r in s["change_over_parent"].items())
        print(f"{workload}: {ratios}")
    if args.require_sim_identical and mismatched:
        print("sim_* metrics differ between runs:\n  " + "\n  ".join(mismatched), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

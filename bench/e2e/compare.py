#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py OLD_DIR NEW_DIR [--agree] [--spec BENCHMARK.json]

Each directory holds the run records `run.py --out DIR` writes, one per
(workload, seed); only untraced runs are compared. For every workload and
every end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles, their spread ((q3 - q1) / median), and a verdict against
the metric's bound (a share of the OLD median):

  regressed   NEW's median is worse than OLD's by more than the bound;
  unchanged   it is not, and both spreads are within the bound;
  unresolved  a spread exceeds the bound;
  better      a spread exceeds the bound, but every NEW run beats every
              OLD run;
  gain        NEW wins at least 9/10 of the seed-paired runs and the
              medians differ by more than OLD's interquartile range.

--agree checks two sets of the SAME build instead: every pair of medians
must lie within the metric's bound, in either direction.

It refuses to compare records whose environment differs (CPU count, build
type, BENCHMARK.json digest). Exit status: 0 if nothing regressed (or, with
--agree, everything agrees), 1 otherwise, 2 on unusable input.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory):
    runs = defaultdict(dict)  # workload -> seed -> record
    envs = set()
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") != 0 or record.get("smoke"):
            continue
        envs.add(json.dumps(record["env"], sort_keys=True))
        runs[record["workload"]][record["seed"]] = record
    return runs, envs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q):
    return (q[2] - q[0]) / q[1] if q[1] else float("inf")


def better(a, b, lower):
    """True if value a is strictly better than value b."""
    return a < b if lower else a > b


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--agree", action="store_true",
                        help="two sets of one build: medians must agree within each bound")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(args.spec.read_text())
    old, old_envs = load(args.old)
    new, new_envs = load(args.new)
    if not old or not new:
        print("compare.py: no untraced run records in one of the directories", file=sys.stderr)
        return 2
    if len(old_envs | new_envs) != 1:
        print("compare.py: refusing to compare runs from different environments:",
              file=sys.stderr)
        for env in sorted(old_envs | new_envs):
            print(f"  {env}", file=sys.stderr)
        return 2

    print(f"env: {next(iter(old_envs))}")
    print("| workload | metric | bound | old q1 / median / q3 | spread | "
          "new q1 / median / q3 | spread | change | pair wins | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in old or workload not in new:
            print(f"| {workload} | (missing on one side) | | | | | | | | |")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            a = {s: r["result"]["metrics"][name]["value"] for s, r in old[workload].items()}
            b = {s: r["result"]["metrics"][name]["value"] for s, r in new[workload].items()}
            qa, qb = quartiles(sorted(a.values())), quartiles(sorted(b.values()))
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            worse = change if lower else -change
            seeds = sorted(set(a) & set(b))
            wins = sum(better(b[s], a[s], lower) for s in seeds)
            if args.agree:
                verdict = "agree" if abs(change) <= bound else "DISAGREE"
            elif spread(qa) > bound or spread(qb) > bound:
                verdict = ("better" if all(better(x, y, lower)
                                              for x in b.values() for y in a.values())
                           else "unresolved")
            elif worse > bound:
                verdict = "REGRESSED"
            elif (seeds and wins >= 0.9 * len(seeds) and worse < 0
                  and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "gain"
            else:
                verdict = "unchanged"
            bad += verdict in ("DISAGREE", "REGRESSED")
            print(f"| {workload} | {name} | {bound:.0%} | "
                  f"{qa[0]:.4g} / {qa[1]:.4g} / {qa[2]:.4g} | {spread(qa):.1%} | "
                  f"{qb[0]:.4g} / {qb[1]:.4g} / {qb[2]:.4g} | {spread(qb):.1%} | "
                  f"{change:+.1%} | {wins}/{len(seeds)} | {verdict} |")

    print()
    print("| workload | old failed / attempted | new failed / attempted |")
    print("|---|---|---|")
    for workload in sorted(set(old) | set(new)):
        cells = []
        for side in (old, new):
            runs = side.get(workload, {}).values()
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            cells.append(f"{failed} / {attempted}")
        print(f"| {workload} | {cells[0]} | {cells[1]} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

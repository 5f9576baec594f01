#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage (from the repository root)::

    python3 bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are result files written by
``bench/run.py --out``, or directories of them.  Runs are paired by
seed, so both sides must hold the same seeds for each workload, one run
per seed, all measured for the same ``--seconds``; otherwise the script
exits with code 2 without a verdict.

For every workload and metric the table gives each side's median and
quartiles and a verdict:

* ``better``: B wins at least 9 of every 10 seed pairs (ties count for
  neither), the medians differ by more than A's interquartile range,
  and B has no more failures than A;
* ``worse``: B's median is worse than A's by more than the metric's
  bound;
* ``unresolved``: either side's spread (interquartile range over
  median) is wider than the bound, unless every run of B beats every
  run of A and B has no more failures than A;
* ``same``: otherwise.

A failure is a failed operation or a run that is not ``correct`` (a
failed check, such as the VQE energy bound).  B having more failures
than A is itself a ``worse`` line.  Bounds come from ``BENCHMARK.json``;
per-layer metrics have none and get no verdict.  The exit code is 1 if
anything is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: A gain must win at least this share of the pairs.
WIN_SHARE = 0.9


class CompareError(ValueError):
    """The two sets of runs cannot be compared."""


def load(path: Path) -> Tuple[Dict[str, Dict[int, dict]], set]:
    """``({workload: {seed: run}}, {seconds of every run})``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: Dict[str, Dict[int, dict]] = {}
    seconds = set()
    for f in files:
        data = json.loads(f.read_text())
        for run in data if isinstance(data, list) else [data]:
            if not isinstance(run, dict) or "workload" not in run:
                continue
            runs = out.setdefault(run["workload"], {})
            if run["seed"] in runs:
                raise CompareError(f"{path}: two {run['workload']} runs at seed {run['seed']}")
            runs[run["seed"]] = run
            seconds.add(run["seconds"])
    return out, seconds


def failures(runs: Dict[int, dict]) -> Tuple[int, int]:
    """``(failed operations, runs that are not correct)``."""
    return (
        sum(r["failed"] for r in runs.values()),
        sum(not r["correct"] for r in runs.values()),
    )


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(
    a: Dict[int, float],
    b: Dict[int, float],
    better: str,
    bound: float,
    more_failures: bool,
) -> str:
    """The verdict on one metric, from its values by seed on each side."""
    sign = 1.0 if better == "higher" else -1.0
    va, vb = list(a.values()), list(b.values())
    qa, qb = quartiles(va), quartiles(vb)
    if max(spread(va), spread(vb)) > bound:
        beats_all = all(sign * (y - x) > 0 for x in va for y in vb)
        return "better" if beats_all and not more_failures else "unresolved"
    wins = sum(sign * (b[seed] - a[seed]) > 0 for seed in a)
    gain = sign * (qb[1] - qa[1])
    if not more_failures and wins >= WIN_SHARE * len(a) and gain > qa[2] - qa[0]:
        return "better"
    if -gain > bound * abs(qa[1]):
        return "worse"
    return "same"


def _fmt(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a: Dict[str, Dict[int, dict]], b: Dict[str, Dict[int, dict]], spec: dict) -> int:
    """Print the table; return the number of worse lines."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted(set(a) & set(b)):
        if set(a[workload]) != set(b[workload]):
            raise CompareError(
                f"{workload}: seeds differ, A {sorted(a[workload])} vs B {sorted(b[workload])}"
            )
    worse = 0
    print(f"{'workload':18s} {'metric':28s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s} {'change':>8s}  verdict")
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        fa, fb = failures(ra), failures(rb)
        more_failures = fb[0] > fa[0] or fb[1] > fa[1]
        names = set.intersection(*(set(r["metrics"]) for r in [*ra.values(), *rb.values()]))
        for name in sorted(names, key=lambda n: (n not in bounded, n)):
            ma = {seed: r["metrics"][name]["value"] for seed, r in ra.items()}
            mb = {seed: r["metrics"][name]["value"] for seed, r in rb.items()}
            va, vb = list(ma.values()), list(mb.values())
            med = quartiles(va)[1]
            change = f"{(quartiles(vb)[1] - med) / abs(med):+8.1%}" if med else f"{'n/a':>8s}"
            if name in bounded:
                m = bounded[name]
                v = verdict(ma, mb, m["better"], m["bound"], more_failures)
                worse += v == "worse"
            else:
                v = "-"
            print(f"{workload:18s} {name:28s} {_fmt(va):>32s} {_fmt(vb):>32s} {change}  {v}")
        differ = [s for s in ra if (ra[s]["digest_ops"], ra[s]["counts_digest"])
                  != (rb[s]["digest_ops"], rb[s]["counts_digest"])]
        print(
            f"{workload:18s} failed operations A {fa[0]}, B {fb[0]}; "
            f"incorrect runs A {fa[1]}, B {fb[1]}"
            f"{'  worse' if more_failures else ''}; "
            f"counts digests differ at seeds {differ or 'none'}"
        )
        worse += more_failures
    return worse


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent runs (file or directory)")
    parser.add_argument("b", type=Path, help="changed runs (file or directory)")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    try:
        (a, sa), (b, sb) = load(args.a), load(args.b)
        if len(sa | sb) > 1:
            raise CompareError(f"runs of different lengths: {sorted(sa | sb)} s")
        worse = compare(a, b, spec)
    except CompareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the stack: REST jobs, a VQE loop, 146-day operations.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH]

``--seconds`` is the length of each measured phase; it defaults to
``run_seconds`` in ``BENCHMARK.json``, and results at different lengths
do not compare (``bench/compare.py`` refuses them).

Each workload runs in fresh child processes (``bench/workloads.py``), so
set-up time, peak RSS and the process-global plan cache belong to that
workload alone.  Untraced, a workload is set up ``SETUP_REPEATS`` times
(set-up only children and the measured one) and the end-to-end metrics
are reported; ``setup_s`` is the median set-up.  Traced, one untraced
and one traced phase run back to back and the per-layer metrics are
reported, including the tracing overhead between them.

The runner prints every metric with its unit and the correctness checks,
writes the full results as JSON (``--out``, default under ``bench/out/``)
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per untraced workload run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ``ops_per_s`` is the median rate over this many consecutive blocks of
#: operations, so a few seconds of contention from other processes on the
#: machine do not move it.
RATE_BLOCKS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics besides the per-span ``.ms`` / ``.calls`` pairs.
LAYER_COUNTER_UNITS = {
    "jit.cache_hit_ratio": "ratio",
    "jit.cache_entries": "count",
    "plans.cache_hit_ratio": "ratio",
    "qrm.requeues": "count",
    "trace.named_share": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end_metrics(setups: List[float], phase: dict) -> Dict[str, dict]:
    """The untraced metrics of one workload run."""
    latency = np.asarray(phase["latencies_s"])
    blocks = np.array_split(latency, min(RATE_BLOCKS, len(latency)))
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(len(b) / b.sum() for b in blocks),
        "latency_p50_ms": np.percentile(latency, 50) * 1e3,
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(untraced: dict, traced: dict) -> Dict[str, dict]:
    """Per-operation self time and calls of every span, plus counters."""
    ops = traced["ops"]
    out: Dict[str, dict] = {}
    named = 0.0
    for span, (seconds, calls) in traced["layers"].items():
        named += seconds
        out[f"{span}.ms"] = _metric(seconds * 1e3 / ops, "ms/op")
        out[f"{span}.calls"] = _metric(calls / ops, "calls/op")
    c = traced["counters"]
    values = {
        "jit.cache_hit_ratio": _ratio(c["jit_hits"], c["jit_hits"] + c["jit_misses"]),
        "jit.cache_entries": c["jit_entries"],
        "plans.cache_hit_ratio": _ratio(c["plan_hits"], c["plan_hits"] + c["plan_misses"]),
        "qrm.requeues": c["requeues"],
        "trace.named_share": named / traced["elapsed_s"],
        "trace.overhead": (traced["elapsed_s"] / ops)
        / (untraced["elapsed_s"] / untraced["ops"]),
    }
    for name, unit in LAYER_COUNTER_UNITS.items():
        out[name] = _metric(values[name], unit)
    return out


def extra_report(phase: dict, import_s: float) -> dict:
    """Numbers printed and saved beside the metrics of record: the
    set-up's import time, the sample count, mean throughput, tail latency
    at each percentile with at least ten samples beyond it, the error
    rate and the workload's result quality."""
    n = phase["ops"]
    out = {"import_s": import_s, "samples": n, "ops_per_s_mean": n / phase["elapsed_s"]}
    for q in (90, 99):
        if n * (100 - q) >= 1000:
            out[f"latency_p{q}_ms"] = float(np.percentile(phase["latencies_s"], q) * 1e3)
    return {**out, "error_rate": phase["failed"] / n, **phase["quality"]}


def digests_agree(a: dict, b: dict) -> list:
    """Check that two phases at one seed produced the same counts on the
    operations both completed."""
    n = min(len(a["digests"]), len(b["digests"]))
    ok = n > 0 and a["digests"][:n] == b["digests"][:n]
    return [ok, f"first {n} operations {'match' if ok else 'differ'}"]


def spawn(name: str, seed: int, seconds: float, mode: str, spans: Optional[str] = None) -> dict:
    """Run one child: set up *name* and, unless *mode* is ``"setup"``,
    measure it ``"untraced"`` or ``"traced"``."""
    spec = {"workload": name, "seed": seed, "seconds": seconds, "mode": mode, "spans": spans}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60 + 3 * seconds,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} ({mode}) timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{name} ({mode}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool, spans: Optional[str]) -> dict:
    if traced:
        base = spawn(name, seed, seconds, "untraced")
        phase = spawn(name, seed, seconds, "traced", spans)
        phases = [base, phase]
        setups = [base, phase]
        metrics = per_layer_metrics(base, phase)
    else:
        setups = [spawn(name, seed, seconds, "setup") for _ in range(SETUP_REPEATS - 1)]
        phase = spawn(name, seed, seconds, "untraced")
        phases = [phase]
        setups.append(phase)
        metrics = end_to_end_metrics([s["setup_s"] for s in setups], phase)
    checks: Dict[str, list] = {}
    for p in phases:  # a check fails if it failed in any phase
        for check, (ok, detail) in p["checks"].items():
            if check not in checks or not ok:
                checks[check] = [ok, detail]
    if traced:
        checks["traced_counts_match"] = digests_agree(base, phase)
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": failed == 0 and all(ok for ok, _ in checks.values()),
        "attempted": attempted,
        "failed": failed,
        "operation": phase["operation"],
        "metrics": metrics,
        "report": extra_report(phase, statistics.median(s["import_s"] for s in setups)),
        "checks": checks,
        "counts_digest": phase["counts_digest"],
        "digest_ops": phase["digest_ops"],
        "errors": [e for p in phases for e in p["errors"]],
    }


def print_result(result: dict) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(
        f"== {result['workload']}  seed {result['seed']}, {result['seconds']:g} s, {mode}: "
        f"{result['attempted']} operations (one {result['operation']} each), "
        f"{result['failed']} failed, "
        f"{'correct' if result['correct'] else 'INCORRECT'}"
    )
    metrics = result["metrics"]
    if result["traced"]:
        spans = sorted(
            (k[: -len(".ms")] for k in metrics if k.endswith(".ms")),
            key=lambda s: -metrics[s + ".ms"]["value"],
        )
        print(f"   {'span':24s} {'self ms/op':>12s} {'calls/op':>10s}")
        for span in spans:
            calls = metrics[span + ".calls"]["value"]
            if calls:
                print(f"   {span:24s} {metrics[span + '.ms']['value']:12.4f} {calls:10.2f}")
        names = LAYER_COUNTER_UNITS
    else:
        names = END_TO_END_UNITS
    for name in names:
        print(f"   {name:24s} {metrics[name]['value']:12.4f} {metrics[name]['unit']}")
    for key, value in result["report"].items():
        print(f"   {key:24s} {value:12.4f}")
    print(f"   counts digest            {result['counts_digest'][:16]} (first {result['digest_ops']} ops)")
    for check, (ok, detail) in result["checks"].items():
        print(f"   check {check}: {'ok' if ok else 'FAILED'} ({detail})")
    for error in result["errors"]:
        print(f"   error: {error}")


def final_line(results: List[dict]) -> dict:
    """The one-line summary; metric names are prefixed with the workload
    when a run covers several."""
    single = len(results) == 1
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            metrics[name if single else f"{r['workload']}.{name}"] = m
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: measure the per-layer metrics instead")
    parser.add_argument("--out", type=Path, help="results JSON (default under bench/out/)")
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    selected = args.workload or names
    out_dir = BENCH / "out"
    tag = f"{selected[0] if len(selected) == 1 else 'all'}-seed{args.seed}-trace{int(traced)}"
    out = args.out or out_dir / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in selected:
            spans = str(out.with_name(f"{out.stem}.{name}.spans.npz")) if traced else None
            result = run_workload(name, args.seed, args.seconds, traced, spans)
            print_result(result)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(results, indent=1))
    print(f"results written to {out}")
    print(json.dumps(final_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

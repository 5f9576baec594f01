"""Smoke test of the end-to-end benchmark in ``bench/``.

Runs every workload at a tiny size in this process, untraced and traced,
and checks that each metric named in ``BENCHMARK.json`` is emitted,
finite and in its unit, that every entry point the tracer wraps still
exists where the tracer looks for it, and that tracing puts back every
original it replaced.
"""

import json
import math
import resource
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _path in (HERE.parent / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: One short unit per workload (``measure`` with 0 seconds runs exactly one).
TINY = {
    "rest_ghz5": {"warmup": 1},
    "rest_ghz12": {"warmup": 1},
    "vqe_h2_scan": {"bond_lengths": [0.735], "iterations": 2},
    "ops_policy_sweep": {"days": 2, "policies": [["scheduler_controlled", 24.0]]},
}
SEED = 3

#: Every wrapped binding as it was before any test here traced anything.
ORIGINALS = [(owner, attr, raw) for _, owner, attr, raw in tracer.entry_points()]


@pytest.fixture(scope="module")
def phases():
    out = {}
    for name, params in TINY.items():
        untraced = workloads.measure(workloads.build(name, SEED, params), 0)
        traced = workloads.measure(workloads.build(name, SEED, params), 0, traced=True)
        out[name] = (untraced, traced)
    return out


def _assert_declared(emitted, declared):
    assert set(emitted) == {m["name"] for m in declared}
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
        assert math.isfinite(emitted[m["name"]]["value"]), m["name"]


def test_spec_names_the_runner_workloads_and_spans():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)
    spans = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]}
    assert set(tracer.SPANS) <= spans


def test_every_wrapped_entry_point_exists():
    resolved = tracer.entry_points()  # raises on a renamed or moved name
    assert {span for span, *_ in resolved} == set(tracer.SPANS)


def test_end_to_end_metrics_emitted(phases):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, (untraced, _) in phases.items():
        assert untraced["ops"] >= 1 and not untraced["errors"], name
        metrics = run.end_to_end_metrics([0.5, 0.6], {**untraced, "peak_rss_mb": rss})
        _assert_declared(metrics, SPEC["end_to_end"])


def test_per_layer_metrics_emitted(phases):
    for name, (untraced, traced) in phases.items():
        assert not traced["errors"], name
        _assert_declared(run.per_layer_metrics(untraced, traced), SPEC["per_layer"])


def test_traced_run_reproduces_untraced_counts(phases):
    for name, (untraced, traced) in phases.items():
        assert run.digests_agree(untraced, traced)[0], name
        assert untraced["counts_digest"] == traced["counts_digest"], name


def test_tracing_restores_every_original(phases):
    # The traced phases of the fixture have run and exited by now.
    assert all(vars(owner)[attr] is raw for owner, attr, raw in ORIGINALS)
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            assert all(vars(owner)[attr] is not raw for owner, attr, raw in ORIGINALS)
            raise RuntimeError("unwinds through the tracer")
    assert all(vars(owner)[attr] is raw for owner, attr, raw in ORIGINALS)

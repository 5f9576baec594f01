"""Smoke test for the perf harness: ``scripts/bench.py --quick --check``
must run inside the tier-1 time budget, emit a schema-valid
``BENCH_simulator.json``, and hold every speedup floor (and feasibility
ceiling) recorded in the committed reference artifact.

Schema ``repro.bench.simulator/v11`` has two entry shapes: paired lanes
(``baseline_seconds`` / ``fast_seconds`` / ``speedup``, optionally a
``floor``) for benchmarks with a before/after comparison, and
single-lane entries (``seconds``) for workloads no dense baseline can
represent.  v11 drops the shot-sharding lanes (``sharded_throughput``,
``sharded_with_faults``) and the per-entry ``workers`` count, since
every request samples on one stream in one process.  It keeps v10's
observability lane — ``tracing_overhead``, the same grouped sampling
workload timed with the flight recorder off vs on, with a floor pinning
the traced run within ~10% of untraced — v8's cache-blocked wide-state
lane (``blocked_wide_dense``), v7's ``plan_cache_parameterized`` lane
and v6's ``batched_ghz_grouped`` lane — all enforced by ``--check``,
the bench regression guard this suite keeps wired into tier-1.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

PAIRED_ENTRY_KEYS = {
    "name",
    "params",
    "baseline_seconds",
    "fast_seconds",
    "speedup",
}

SINGLE_LANE_KEYS = {"name", "params", "seconds"}


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_under_test", REPO / "scripts" / "bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_quick_check_emits_valid_schema_and_holds_floors(tmp_path):
    """One quick run doubles as schema validation and regression guard:
    ``--check`` exits nonzero if any lane drops below its committed
    floor (or above its committed ceiling), which would fail this
    tier-1 test."""
    out = tmp_path / "BENCH_simulator.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "bench.py"),
            "--quick",
            "--check",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "--check passed" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro.bench.simulator/v11"
    assert payload["quick"] is True
    assert isinstance(payload["config"], dict)
    names = set()
    for entry in payload["benchmarks"]:
        if "seconds" in entry:
            assert SINGLE_LANE_KEYS <= set(entry), entry
            assert entry["seconds"] > 0
            if "max_seconds" in entry:
                assert entry["max_seconds"] > 0
        else:
            assert PAIRED_ENTRY_KEYS <= set(entry), entry
            assert entry["baseline_seconds"] > 0
            assert entry["fast_seconds"] > 0
            assert entry["speedup"] == entry["baseline_seconds"] / entry["fast_seconds"]
            if "floor" in entry:
                assert entry["floor"] > 0
        names.add(entry["name"])
    # the acceptance-gate benchmarks and the workload lenses must exist
    assert "ghz_shot_sampling_grouped" in names
    assert "grouped_vs_per_shot" in names
    assert "vqe_iteration_sampled" in names
    assert "ghz_sampling_stabilizer" in names
    assert "stabilizer_scaling_ghz" in names
    assert "hybrid_segment_ghz_t" in names
    assert "stabilizer_packed_ghz" in names
    assert "diagonal_fusion_dense" in names
    assert "mps_brickwork" in names
    assert "mps_qaoa_wide" in names
    assert "batched_ghz_grouped" in names
    assert "noisy_device_ghz5" in names
    assert "blocked_wide_dense" in names
    assert "plan_cache_parameterized" in names
    assert "tracing_overhead" in names


def test_committed_artifact_is_v11_with_floors_and_wide_scaling():
    """The committed reference must carry the v11 surface --check relies
    on: floors on the acceptance lanes (now including the tracing
    overhead gate), the 256/512/1024-qubit packed scaling lanes, and the
    feasibility lanes with their ceilings."""
    payload = json.loads((REPO / "BENCH_simulator.json").read_text())
    assert payload["schema"] == "repro.bench.simulator/v11"
    floors = {e["name"] for e in payload["benchmarks"] if "floor" in e}
    assert "stabilizer_packed_ghz" in floors
    assert "diagonal_fusion_dense" in floors
    assert "ghz_shot_sampling_grouped" in floors
    assert "mps_brickwork" in floors
    assert "batched_ghz_grouped" in floors
    assert "noisy_device_ghz5" in floors
    assert "blocked_wide_dense" in floors
    assert "plan_cache_parameterized" in floors
    assert "tracing_overhead" in floors
    scaling_sizes = {
        e["params"]["num_qubits"]
        for e in payload["benchmarks"]
        if e["name"] == "stabilizer_scaling_ghz"
    }
    assert {256, 512, 1024} <= scaling_sizes
    device = [e for e in payload["benchmarks"] if e["name"] == "noisy_device_ghz5"]
    assert device, "committed artifact lost the noisy_device_ghz5 lane"
    for key in ("baseline_quartiles", "fast_quartiles", "speedup_quartiles"):
        low, median, high = device[0][key]
        assert low <= median <= high, key
    packed = [
        e for e in payload["benchmarks"] if e["name"] == "stabilizer_packed_ghz"
    ]
    assert packed and packed[0]["params"]["num_qubits"] == 100
    # the packed-tableau acceptance gate: ≥5× over the uint8 tableau
    assert packed[0]["speedup"] >= 5.0
    wide = [e for e in payload["benchmarks"] if e["name"] == "mps_qaoa_wide"]
    assert wide, "committed artifact lost the mps_qaoa_wide lane"
    entry = wide[0]
    # the MPS acceptance gate: a 64-qubit branching-tail workload —
    # infeasible on every other non-Clifford path — sampled in seconds,
    # with the truncation loss reported and below the recorded budget
    assert entry["params"]["num_qubits"] >= 64
    assert "max_seconds" in entry and entry["seconds"] <= entry["max_seconds"]
    assert "truncation_error" in entry
    assert entry["truncation_error"] <= 1e-9
    assert entry["max_bond_dimension"] >= 1
    # the batched-execution acceptance gate: the committed lane must
    # beat its floor (seeded counts are bit-identical in both lanes, so
    # the speedup is pure dispatch amortization)
    batched = [
        e for e in payload["benchmarks"] if e["name"] == "batched_ghz_grouped"
    ]
    assert batched, "committed artifact lost the batched_ghz_grouped lane"
    assert batched[0]["speedup"] >= batched[0]["floor"] >= 1.5
    # the cache-blocked wide-state acceptance gate: the committed dense
    # lane must clear the ≥1.3× floor at a width past the tile and
    # record the budget/tile it ran with
    blocked = [
        e for e in payload["benchmarks"] if e["name"] == "blocked_wide_dense"
    ]
    assert blocked, "committed artifact lost the blocked_wide_dense lane"
    assert blocked[0]["speedup"] >= blocked[0]["floor"] >= 1.3
    assert blocked[0]["params"]["num_qubits"] > blocked[0]["params"]["tile_qubits"]
    assert blocked[0]["params"]["batch_max_bytes"] >= 1024
    # the plan-cache acceptance gate: warm bindings of one ansatz must
    # beat cold (cache cleared per binding) by the committed floor
    plan = [
        e
        for e in payload["benchmarks"]
        if e["name"] == "plan_cache_parameterized"
    ]
    assert plan, "committed artifact lost the plan_cache_parameterized lane"
    assert plan[0]["speedup"] >= plan[0]["floor"] >= 2.0
    assert plan[0]["params"]["bindings"] >= 2
    # the observability cost gate: the committed tracing lane is a
    # paired off-vs-on ratio near 1.0×, and must clear its ~10%-overhead
    # floor (off_seconds / on_seconds >= 0.9)
    tracing = [
        e for e in payload["benchmarks"] if e["name"] == "tracing_overhead"
    ]
    assert tracing, "committed artifact lost the tracing_overhead lane"
    assert tracing[0]["speedup"] >= tracing[0]["floor"] >= 0.9
    assert tracing[0]["params"]["shots"] >= 1
    # no lane shards shots across processes any more
    names = {e["name"] for e in payload["benchmarks"]}
    assert not names & {"sharded_throughput", "sharded_with_faults"}
    assert all("workers" not in e["params"] for e in payload["benchmarks"])


def test_check_against_reference_logic():
    """Unit-level regression-guard check (no bench run): floors compare
    against fresh speedups, ceilings against fresh single-lane seconds,
    and missing lanes fail."""
    bench = _load_bench_module()
    reference = {
        "benchmarks": [
            {"name": "a", "speedup": 4.0, "floor": 2.0},
            {"name": "b", "speedup": 3.0, "floor": 1.5},
            {"name": "c", "speedup": 9.9},  # no floor: never enforced
            {"name": "w", "seconds": 5.0, "max_seconds": 60.0},
        ]
    }
    ok = {
        "benchmarks": [
            {"name": "a", "speedup": 2.5},
            {"name": "b", "speedup": 1.6},
            {"name": "w", "seconds": 30.0},
        ]
    }
    assert bench.check_against_reference(ok, reference) == []
    slow = {
        "benchmarks": [
            {"name": "a", "speedup": 1.9},
            {"name": "b", "speedup": 1.6},
            {"name": "w", "seconds": 30.0},
        ]
    }
    failures = bench.check_against_reference(slow, reference)
    assert len(failures) == 1 and "a" in failures[0]
    missing = {
        "benchmarks": [{"name": "a", "speedup": 2.5}, {"name": "w", "seconds": 1.0}]
    }
    failures = bench.check_against_reference(missing, reference)
    assert len(failures) == 1 and "b" in failures[0]
    too_slow = {
        "benchmarks": [
            {"name": "a", "speedup": 2.5},
            {"name": "b", "speedup": 1.6},
            {"name": "w", "seconds": 61.0},
        ]
    }
    failures = bench.check_against_reference(too_slow, reference)
    assert len(failures) == 1 and "w" in failures[0]
    no_wide = {
        "benchmarks": [{"name": "a", "speedup": 2.5}, {"name": "b", "speedup": 1.6}]
    }
    failures = bench.check_against_reference(no_wide, reference)
    assert len(failures) == 1 and "w" in failures[0]

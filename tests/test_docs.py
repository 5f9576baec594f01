"""Documentation smoke checks.

The repo's docs are part of its contract: a top-level README that names
the tier-1 verification command verbatim, an architecture document for
the simulator engine modes, and a non-empty package docstring on every
``src/repro/*`` package so the subsystem map stays self-describing.
These checks parse files statically (no imports), so they cannot be
skewed by interpreter state.
"""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
README = REPO / "README.md"
ROADMAP = REPO / "ROADMAP.md"
ARCHITECTURE = REPO / "docs" / "architecture.md"
SRC = REPO / "src" / "repro"


def _tier1_command() -> str:
    """The authoritative tier-1 command, parsed from ROADMAP.md."""
    match = re.search(r"\*\*Tier-1 verify:\*\*\s*`([^`]+)`", ROADMAP.read_text())
    assert match, "ROADMAP.md no longer states the tier-1 command"
    return match.group(1)


def test_readme_exists_and_names_tier1_command():
    assert README.is_file(), "top-level README.md is missing"
    text = README.read_text()
    assert _tier1_command() in text, (
        "README.md must quote the tier-1 test command verbatim "
        f"({_tier1_command()!r})"
    )


def test_readme_documents_bench_workflow():
    text = README.read_text()
    assert "scripts/bench.py" in text
    assert "BENCH_simulator.json" in text


def test_readme_maps_every_package():
    """The subsystem map must mention every src/repro/* package."""
    text = README.read_text()
    packages = sorted(
        p.name for p in SRC.iterdir() if p.is_dir() and (p / "__init__.py").is_file()
    )
    missing = [name for name in packages if f"src/repro/{name}" not in text]
    assert not missing, f"README subsystem map is missing packages: {missing}"


def test_architecture_doc_covers_engine_contract():
    assert ARCHITECTURE.is_file(), "docs/architecture.md is missing"
    text = ARCHITECTURE.read_text()
    for needle in (
        "engine_mode",
        "stabilizer",
        "baseline",
        "repro.testing.reference",
        "BENCH_simulator.json",
        "repro.bench.simulator/v11",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_engine_registry():
    """The registry section must name the protocol surface, the
    registration hook, every mode string, and the conversion boundary."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Engine registry",
        "ExecutionEngine",
        "repro.simulator.engines",
        "register_engine",
        "select_engine",
        '"hybrid"',
        '"auto"',
        "to_statevector",
        "coset_amplitudes",
        "hybrid_segment_ghz_t",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_packed_tableau():
    """The packed-tableau section must name the word layout, the
    popcount phase walk, the row-word amplitude port, the byte-tableau
    oracle, and the bench surface (lanes, floors, --check)."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Packed tableau",
        "ByteTableau",
        "sample_counts_tableau",
        "np.uint64",
        "ceil(n/64)",
        "np.bitwise_count",
        "CosetSupport",
        "offset_words",
        "stabilizer_packed_ghz",
        "diagonal_fusion_dense",
        "floor",
        "--check",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_diagonal_fusion():
    text = ARCHITECTURE.read_text()
    for needle in (
        "Diagonal-run kernel fusion",
        "apply_diagonal",
        "scan_diagonal_runs",
        "FUSE_DIAGONAL_RUNS",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_mps_engine():
    """The MPS section must name the canonical form, the chi/truncation
    contract, the sampling sweep, the routing heuristic, and the v5
    bench surface (lanes, ceiling, sub-option hygiene)."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "MPS engine",
        "MPSEngine",
        "mixed-canonical",
        "chi",
        "truncation_threshold",
        "truncation_error",
        "conditional-marginal sweep",
        "line-like",
        "LINE_RANGE",
        '"mps"',
        "mps_brickwork",
        "mps_qaoa_wide",
        "max_seconds",
        "max_bond_dimension",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_batched_execution():
    """The batched-execution section must name the batch container, the
    lockstep-window contract, the cache-working-set policy and the
    predicate the walk and admission share, the RNG parity rules, and
    the one-stream contract that replaced shot sharding."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Batched execution",
        "BatchedStateVector",
        "advance_batch_span",
        "lockstep",
        "BATCH_MAX_BYTES",
        "ExecutionConfig",
        "batched_walk_fits",
        "_use_batched_walk",
        "one RNG stream in one process",
        "There is no `workers` sub-option",
        "batched_ghz_grouped",
        "inject_site",
        "sample_outcomes",
        "group_realizations",
        "first-occurrence",
        "noisy_device_ghz5",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_blocked_execution():
    """The cache-blocked section must name the switch, the tile
    derivation, the schedule/executor surface, the remap layer with its
    unwind contract, and the v8 bench lanes."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Cache-blocked wide-state execution",
        "BLOCKED_SWEEPS",
        "blocked_tile_qubits",
        "plan_blocked_window",
        "execute_blocked",
        "remap_low",
        "unwind_remap",
        "placement_permutation",
        "block_schedules",
        "batch_max_bytes",
        "blocked_wide_dense",
        "tests/test_blocked.py",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_readme_covers_blocked_execution():
    """The README engine table must carry the blocked-sweep note and
    point at the recorded wide lanes."""
    text = README.read_text()
    for needle in (
        "cache-blocked sweeps",
        "blocked_wide_dense",
        "batch_max_bytes",
    ):
        assert needle in text, f"README lost the {needle!r} coverage"


def test_architecture_doc_covers_execution_plans():
    """The execution-plans section must name both plan tiers, the
    structural-hash contract, the cache surface (entry point, bound,
    options key, kill switch), every engine's artifact set, and the
    pinning suites (fuzzer + bench lane)."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Execution plans & the plan cache",
        "ExecutionPlan",
        "BoundPlan",
        "structural_hash",
        "plan_for",
        "PLAN_CACHE_MAX",
        "plan=None",
        "plan_artifacts",
        "window_partitions",
        "diagonal_tables",
        "block_matrices",
        "clifford_boundary",
        "swap_routes",
        "FUSE_BLOCKS",
        "plan_cache_parameterized",
        "--fuzz-deep",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_architecture_doc_covers_fault_tolerance():
    """The fault-tolerance section must name the resilience module and
    its counters, the admission-control contract, the degradation
    ladder, and the fault harness with both of its injection points."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Fault tolerance & admission control",
        "repro.simulator.resilience",
        "simulator.resilience.",
        "admission_rejects",
        "engine_fallbacks",
        "check_admission",
        "ResourceAdmissionError",
        "estimate_peak_bytes",
        "max_state_bytes",
        "run_with_fallback",
        "FALLBACK_CHAINS",
        "FallbackResult",
        "repro.testing.faults",
        "inject_faults",
        "fault_point",
        "FaultInjected",
        "engine.span",
        "resilience.admission",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_readme_covers_fault_tolerance():
    """The README must describe the resilience layer: the
    admission-control surface, the fallback ladder and its counters, and
    the fault harness with its injection points."""
    text = README.read_text()
    for needle in (
        "repro.simulator.resilience",
        "check_admission",
        "ResourceAdmissionError",
        "max_state_bytes",
        "run_with_fallback",
        "FALLBACK_CHAINS",
        "admission_rejects",
        "engine_fallbacks",
        "repro.testing.faults",
        "engine.span",
        "resilience.admission",
        "src/repro/testing",
    ):
        assert needle in text, f"README lost the {needle!r} resilience coverage"


def test_architecture_doc_covers_observability():
    """The observability section must name the tracing module, the
    run-scope/span surface, every span-name prefix, the report schema,
    the metrics fan-out, the REST surface, and the v10 bench lane."""
    text = ARCHITECTURE.read_text()
    for needle in (
        "Observability & tracing",
        "repro.telemetry.tracing",
        "ExecutionReport",
        "trace=True",
        "sampler.grouped",
        "plan.lookup",
        "engine.advance_window",
        "resilience.fallback",
        "record_execution",
        "simulator.exec.",
        "SimulatorCountersPlugin",
        "GET /metrics?prefix=",
        "execution_report",
        "tracing_overhead",
        "bit-identical with tracing on or off",
        "engine.batched_inject",
        "sampler.batched_sample",
    ):
        assert needle in text, f"architecture doc lost the {needle!r} section"


def test_readme_covers_observability():
    """The README performance workflow must describe the flight
    recorder: the trace sub-option, the bit-identity contract, the
    metrics fan-out, the REST surface, and the recorded bench lane."""
    text = README.read_text()
    for needle in (
        "repro.telemetry.tracing",
        "trace=True",
        "ExecutionReport",
        "bit-identical with tracing on or off",
        "record_execution",
        "simulator.exec.",
        "SimulatorCountersPlugin",
        "GET /metrics?prefix=",
        "execution_report",
        "tracing_overhead",
    ):
        assert needle in text, f"README lost the {needle!r} observability coverage"


def test_readme_covers_plan_cache():
    """The README performance workflow must describe the plan cache:
    the structural-hash keying, the bit-identity contract with its fuzz
    enforcement, and the recorded bench lane."""
    text = README.read_text()
    for needle in (
        "repro.compiler.plans",
        "ExecutionPlan",
        "structural hash",
        "bit-identical to the unplanned path",
        "-m fuzz",
        "--fuzz-deep",
        "plan_cache_parameterized",
        "plan=None",
    ):
        assert needle in text, f"README lost the {needle!r} plan-cache coverage"


def test_readme_covers_batched_walk():
    """The README must describe the batched grouped walk as the
    sampler's own choice (not a mode), point at its recorded lanes, and
    state that a request's shots are never split across processes."""
    text = README.read_text()
    for needle in (
        "batched grouped walk",
        "It is not a mode",
        "one RNG stream in one process",
        "no `workers`",
        "batched_ghz_grouped",
        "noisy_device_ghz5",
    ):
        assert needle in text, f"README lost the {needle!r} coverage"


def test_docs_do_not_advertise_shot_sharding():
    """The sharding layer, its entry point, its lanes and its test
    markers are gone; no doc may still offer them."""
    for path in (README, ARCHITECTURE):
        text = path.read_text()
        for needle in (
            "sample_counts_sharded",
            "SHARD_BLOCK_SHOTS",
            "repro.simulator.sharding",
            "engine_mode(workers=N)",
            "-m faults",
            "--faults-deep",
            "shard_spans",
        ):
            assert needle not in text, f"{path.name} still offers {needle!r}"


def test_readme_covers_mps_engine():
    """The README engine table must carry the MPS row and the scaling
    claims must point at the recorded lanes."""
    text = README.read_text()
    for needle in (
        "| mps |",
        "matrix product state",
        "chi",
        "mps_brickwork",
        "mps_qaoa_wide",
        "conditional-marginal",
    ):
        assert needle in text, f"README lost the {needle!r} MPS coverage"


def test_readme_scaling_table_reaches_1024_qubits():
    """The README scaling table must cover the packed-tableau widths and
    point at the lanes that record the authoritative numbers."""
    text = README.read_text()
    for needle in ("| 256 |", "| 512 |", "| 1024 |", "stabilizer_packed_ghz"):
        assert needle in text, f"README scaling table lost {needle!r}"
    assert "--check" in text, "README must document the bench regression guard"


def test_readme_points_at_engine_registry():
    text = README.read_text()
    assert "src/repro/simulator/engines" in text, (
        "README subsystem map must point at the execution-engine registry"
    )


def test_every_package_has_init_docstring():
    inits = sorted(SRC.rglob("__init__.py")) + [SRC / "__init__.py"]
    bad = []
    for init in inits:
        tree = ast.parse(init.read_text())
        doc = ast.get_docstring(tree)
        if not doc or not doc.strip():
            bad.append(str(init.relative_to(REPO)))
    assert not bad, f"packages without an __init__ docstring: {bad}"

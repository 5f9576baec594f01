"""Package-surface and exception-hierarchy tests."""

import pytest

import repro
from repro import errors


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_names_exported(self):
        for name in (
            "QuantumCircuit",
            "ghz_circuit",
            "MQSSClient",
            "QPUDevice",
            "Topology",
            "QuantumResourceManager",
            "Counts",
        ):
            assert hasattr(repro, name), name

    def test_all_subpackages_import(self):
        import repro.calibration
        import repro.circuits
        import repro.compiler
        import repro.facility
        import repro.hybrid
        import repro.middleware
        import repro.middleware.adapters
        import repro.ops
        import repro.qdmi
        import repro.qpu
        import repro.scheduler
        import repro.simulator
        import repro.telemetry
        import repro.transpiler

    def test_docstring_quickstart_runs(self):
        """The quickstart in the package docstring must actually work."""
        from repro import MQSSClient, QPUDevice, QuantumResourceManager
        from repro.circuits import ghz_circuit

        device = QPUDevice(seed=7)
        client = MQSSClient(QuantumResourceManager(device), context="hpc")
        counts = client.run(ghz_circuit(5), shots=128)
        assert counts.shots == 128

    def test_production_never_imports_the_seed_reference(self):
        """The seed engine is a test oracle: production code has one
        execution path and no module under ``repro`` imports it."""
        import ast
        import pathlib

        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            if path == root / "testing" / "reference.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if "repro.testing.reference" in modules:
                    offenders.append(str(path.relative_to(root)))
        assert offenders == []

    def test_no_module_level_execution_knobs(self):
        """Execution settings live on one ``ExecutionConfig`` passed down
        the call chain: no production module outside
        ``repro.simulator.config`` binds a module-level global under one
        of the retired knob names, so they cannot come back (the plan
        cache's on/off switch, the batched walk's mode gate and
        blocked-wide regime constants, and the dense engine's fusion and
        blocked-sweep switches included)."""
        import ast
        import pathlib

        retired = {
            "ENGINE",
            "BATCH_MAX_BYTES",
            "WORKERS",
            "CHI",
            "TRUNCATION_THRESHOLD",
            "MAX_STATE_BYTES",
            "ENABLED",
            "PLANS_ENABLED",
            "_BATCHED_WALK_MODES",
            "_WIDE_CHUNK_ROWS",
            "_WIDE_MIN_WINDOW_OPS",
            "FUSE_DIAGONAL_RUNS",
            "FUSE_BLOCKS",
            "BLOCKED_SWEEPS",
        }
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            if path == root / "simulator" / "config.py":
                continue
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = getattr(node, "targets", None) or [node.target]
                    names = {
                        n.id
                        for t in targets
                        for n in ast.walk(t)
                        if isinstance(n, ast.Name)
                    }
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.asname or alias.name for alias in node.names}
                else:
                    continue
                for name in sorted(names & retired):
                    offenders.append(f"{path.relative_to(root)}: {name}")
        assert offenders == []

    def test_shot_sharding_is_gone(self):
        """A request's shots run in one process on one RNG stream: the
        sharding module, the ``workers`` field and the ``workers``
        sub-option are all gone, and the sub-option fails like any
        unknown keyword before the config changes."""
        from repro.errors import EngineModeError
        from repro.simulator import ExecutionConfig, current_config, engine_mode

        with pytest.raises(ImportError):
            import repro.simulator.sharding  # noqa: F401
        with pytest.raises(TypeError):
            ExecutionConfig(workers=2)
        before = current_config()
        with pytest.raises(EngineModeError, match="unknown engine_mode sub-option"):
            with engine_mode("fast", workers=2):
                pass  # pragma: no cover
        assert current_config() is before

    @pytest.mark.parametrize("mode", ["fast", "mps", "auto"])
    def test_workers_is_unknown_in_every_mode(self, mode):
        """No engine mode takes ``workers``, not even one whose engine
        never sampled on the dense walk; each rejects it before the
        config changes."""
        from repro.errors import EngineModeError
        from repro.simulator import current_config, engine_mode

        before = current_config()
        with pytest.raises(EngineModeError, match="unknown engine_mode sub-option"):
            with engine_mode(mode, workers=2):
                pass  # pragma: no cover
        assert current_config() is before

    @pytest.mark.parametrize("mode", ["stabilizer", "hybrid"])
    def test_pin_only_modes_are_gone(self, mode):
        """``"stabilizer"`` and ``"hybrid"`` only pinned routes that
        ``"fast"`` and ``"auto"`` reach; both fail like any unknown mode,
        naming the three that exist, before the config changes."""
        from repro.errors import EngineModeError
        from repro.simulator import current_config, engine_mode
        from repro.simulator.config import ENGINE_MODES

        assert ENGINE_MODES == ("fast", "mps", "auto")
        before = current_config()
        with pytest.raises(EngineModeError, match=r"\('fast', 'mps', 'auto'\)"):
            with engine_mode(mode):
                pass  # pragma: no cover
        assert current_config() is before

    def test_fallback_ladder_is_gone(self):
        """Admission rejections are the caller's to re-issue: the package
        exports no degradation ladder, and the resilience counters hold
        admission rejects alone."""
        import repro.simulator as simulator
        from repro.simulator import resilience

        for name in (
            "run_with_fallback",
            "FallbackHop",
            "FallbackResult",
            "FALLBACK_CHAINS",
        ):
            assert not hasattr(simulator, name), name
            assert not hasattr(resilience, name), name
            assert name not in simulator.__all__
        assert resilience.COUNTER_NAMES == ("admission_rejects",)

    def test_production_never_imports_process_pools(self):
        """No module under ``repro`` imports ``multiprocessing``,
        ``concurrent.futures`` or ``shared_memory``: nothing in the
        stack forks workers or shares memory across processes."""
        import ast
        import pathlib

        banned = ("multiprocessing", "concurrent.futures", "shared_memory")
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                for module in modules:
                    if any(
                        module == name
                        or module.startswith(name + ".")
                        or module.endswith("." + name)
                        for name in banned
                    ):
                        offenders.append(f"{path.relative_to(root)}: {module}")
        assert offenders == []


class TestExceptionHierarchy:
    def test_everything_roots_at_repro_error(self):
        names = [
            n
            for n in dir(errors)
            if n.endswith("Error") and n != "ReproError"
        ]
        assert len(names) > 20
        for name in names:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_layer_families(self):
        assert issubclass(errors.GateError, errors.CircuitError)
        assert issubclass(errors.NoiseModelError, errors.SimulationError)
        assert issubclass(errors.TopologyError, errors.DeviceError)
        assert issubclass(errors.LoweringError, errors.CompilerError)
        assert issubclass(errors.RestApiError, errors.MiddlewareError)
        assert issubclass(errors.SiteSurveyError, errors.FacilityError)
        assert issubclass(errors.ReservationError, errors.SchedulerError)

    def test_rest_api_error_carries_status(self):
        err = errors.RestApiError(404, "not found")
        assert err.status == 404
        assert "not found" in str(err)

    def test_catching_at_layer_granularity(self):
        """A scheduler can catch device trouble without masking bugs."""
        try:
            raise errors.DeviceUnavailableError("cooling down")
        except errors.DeviceError as caught:
            assert "cooling" in str(caught)
        with pytest.raises(errors.ReproError):
            raise errors.QueueError("full")

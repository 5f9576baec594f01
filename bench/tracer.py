"""Outside-in layer tracing for the end-to-end benchmark.

The tracer times the stack from outside ``src/``: it swaps each layer's
public entry points (module functions and class methods) for timing
wrappers, records one span per call, and puts every original back when
it exits.  Spans live in flat in-memory arrays (name, start, end, parent,
operation id) so a traced REST run of ~10^6 spans stays a few tens of MB;
they are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

#: span name -> the ``("module[:Class]", attribute)`` entry points it wraps.
#: Several bindings of one function (``transpile`` is imported by name into
#: the JIT and the operations loop) share a span, so every call path is
#: timed exactly once.
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "rest.serialize": (("repro.middleware.rest", "circuit_to_dict"),),
    "rest.deserialize": (("repro.middleware.rest", "circuit_from_dict"),),
    "rest.post_job": (("repro.middleware.rest:RestServer", "post_job"),),
    "rest.get_job": (("repro.middleware.rest:RestServer", "get_job"),),
    "rest.process": (("repro.middleware.rest:RestServer", "process"),),
    "client.run": (("repro.middleware.client:MQSSClient", "run_detailed"),),
    "qrm.submit": (("repro.scheduler.qrm:QuantumResourceManager", "submit"),),
    "qrm.run_next": (("repro.scheduler.qrm:QuantumResourceManager", "run_next"),),
    "jit.compile": (("repro.compiler.jit:JITCompiler", "compile"),),
    "jit.lower": (("repro.compiler.jit:JITCompiler", "to_logical_circuit"),),
    "transpile.total": (
        ("repro.transpiler.transpile", "transpile"),
        ("repro.compiler.jit", "transpile"),
        ("repro.ops.operations", "transpile"),
    ),
    "transpile.decompose": (
        ("repro.transpiler.transpile", "decompose_to_cz"),
        ("repro.transpiler.transpile", "decompose_swaps"),
    ),
    "transpile.layout": (
        ("repro.transpiler.transpile", "trivial_layout"),
        ("repro.transpiler.transpile", "line_layout"),
        ("repro.transpiler.transpile", "noise_adaptive_layout"),
    ),
    "transpile.routing": (("repro.transpiler.transpile", "route"),),
    "transpile.synthesize": (("repro.transpiler.transpile", "synthesize_native"),),
    "device.execute": (("repro.qpu.device:QPUDevice", "execute"),),
    "device.calibration": (("repro.qpu.device:QPUDevice", "calibration"),),
    "device.schedule": (("repro.qpu.device:QPUDevice", "estimate_durations"),),
    "device.noise_model": (("repro.qpu.params:CalibrationSnapshot", "as_noise_model"),),
    "device.idle_noise": (("repro.qpu.device", "thermal_relaxation_error"),),
    "plans.lookup": (("repro.compiler.plans", "plan_for"),),
    "sampler.sample_counts": (("repro.qpu.device", "sample_counts"),),
    "sampler.admission": (("repro.simulator.resilience", "check_admission"),),
    "sampler.select_engine": (("repro.simulator.sampler", "select_engine"),),
    "engine.advance_span": (("repro.simulator.engines.dense:DenseEngine", "advance_span"),),
    "engine.inject": (("repro.simulator.engines.dense:DenseEngine", "inject"),),
    "engine.sample": (("repro.simulator.engines.dense:DenseEngine", "sample"),),
    "engine.fork": (("repro.simulator.engines.dense:DenseEngine", "fork"),),
    "hybrid.bind": (("repro.circuits.circuit:QuantumCircuit", "bind"),),
    "hybrid.estimate": (("repro.hybrid.vqe", "estimate_expectation"),),
    "hybrid.optimizer": (("repro.hybrid.vqe:VQE", "minimize"),),
    "ops.run": (("repro.ops.operations:OperationsSimulator", "run"),),
    "qpu.drift": (("repro.qpu.device:QPUDevice", "advance_time"),),
    "telemetry.collect": (("repro.telemetry.plugins:DCDBCollector", "run_cycle"),),
    "calibration.step": (("repro.calibration.controller:CalibrationController", "step"),),
    "calibration.run": (("repro.qpu.device:QPUDevice", "calibrate"),),
}


def entry_points() -> List[Tuple[str, object, str, object]]:
    """Resolve every wrapped entry point to ``(span, owner, attribute,
    raw attribute)``.

    The attribute must be defined on the owner itself (not inherited) and
    be a function or staticmethod; anything else raises, so a rename in
    ``src/`` fails loudly instead of silently dropping a layer.
    """
    out = []
    for span, targets in SPANS.items():
        for path, attr in targets:
            module_name, _, class_name = path.partition(":")
            # import_module returns the sys.modules entry, which matters for
            # repro.transpiler.transpile: the package attribute of that name
            # is the re-exported function, not the module.
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = vars(owner).get(attr)
            if not callable(raw):
                raise LookupError(f"{span}: {path}.{attr} is not a function here")
            out.append((span, owner, attr, raw))
    return out


class Tracer:
    """Context manager that installs the span wrappers and records spans.

    The workload loop sets :attr:`op` to the index of the operation in
    progress; every span records it.
    """

    def __init__(self) -> None:
        self.names: List[str] = list(SPANS)
        self.op = -1
        self._current = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._saved: List[Tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        ids = {name: i for i, name in enumerate(self.names)}
        try:
            for span, owner, attr, raw in entry_points():
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(raw.__func__, ids[span]))
                else:
                    patched = self._wrap(raw, ids[span])
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn, name_id: int):
        names, parents, ops = self._name, self._parent, self._op
        starts, ends = self._start, self._end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._current
            idx = len(starts)
            names.append(name_id)
            parents.append(parent)
            ops.append(tracer.op)
            ends.append(0.0)
            tracer._current = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer._current = parent

        return traced

    # -- results -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._start)

    def _arrays(self):
        # Copies, so no NumPy view keeps the growable arrays locked.
        return (
            np.frombuffer(self._name, dtype=np.intc).copy(),
            np.frombuffer(self._parent, dtype=np.intc).copy(),
            np.frombuffer(self._start, dtype=float).copy(),
            np.frombuffer(self._end, dtype=float).copy(),
        )

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """``{span: (self seconds, calls)}`` over everything recorded.

        A span's self time is its duration minus the durations of the
        spans it directly caused, so the self times of all spans add up
        to the time covered by root spans.
        """
        name, parent, start, end = self._arrays()
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(self))
        own = duration - covered
        k = len(self.names)
        seconds = np.bincount(name, weights=own, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {n: (float(seconds[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write the spans as a compressed ``.npz``: arrays ``name``
        (index into ``names``), ``start``/``end`` (``perf_counter``
        seconds), ``parent`` (span index, -1 for roots) and ``op``."""
        name, parent, start, end = self._arrays()
        op = np.frombuffer(self._op, dtype=np.intc).copy()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=op,
        )


__all__ = ["SPANS", "Tracer", "entry_points"]

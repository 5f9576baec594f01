"""DCDB collector plugins.

DCDB is "plugin-based": each plugin knows how to read one subsystem and
emit a flat dict of ``sensor → value``.  The :class:`DCDBCollector`
fans a collection cycle across its plugins and lands everything in the
:class:`~repro.telemetry.store.MetricStore` under the plugin's sensor
prefix.

Plugins provided here cover the paper's Figure 3 data plane: QPU
calibration metrics (per-qubit and medians), device/job accounting, and
hooks for the facility models (cryostat, power, environment — those
plugins live next to their models in :mod:`repro.facility` and
:mod:`repro.ops`, but implement the same protocol).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import SensorError
from repro.qpu.device import QPUDevice
from repro.telemetry.store import MetricStore


class Plugin(ABC):
    """One metric source: name prefix + a ``collect`` hook."""

    #: hierarchical sensor prefix, e.g. ``"qpu"``.
    prefix: str = "plugin"

    @abstractmethod
    def collect(self, timestamp: float) -> Dict[str, float]:
        """Return ``{sensor_suffix: value}`` for this cycle."""

    def sensor(self, suffix: str) -> str:
        return f"{self.prefix}.{suffix}"


class QPUMetricsPlugin(Plugin):
    """Live quality metrics of the QPU: the Figure 4 fidelity series plus
    per-qubit T1/T2 and error rates."""

    prefix = "qpu"

    def __init__(self, device: QPUDevice, *, per_qubit: bool = True) -> None:
        self._device = device
        self._per_qubit = bool(per_qubit)

    def collect(self, timestamp: float) -> Dict[str, float]:
        snapshot = self._device.drift.effective_snapshot()
        out: Dict[str, float] = dict(snapshot.summary())
        out["status_online"] = 1.0 if self._device.status.value == "online" else 0.0
        out["calibration_age"] = timestamp - snapshot.timestamp
        if self._per_qubit:
            for q, qp in enumerate(snapshot.qubits):
                tag = f"qubit{q:02d}"
                out[f"{tag}.t1"] = qp.t1
                out[f"{tag}.t2"] = qp.t2
                out[f"{tag}.prx_error"] = qp.prx_error
                out[f"{tag}.readout_error"] = 1.0 - qp.readout_fidelity
            for (a, b), cp in snapshot.couplers.items():
                out[f"coupler{a:02d}_{b:02d}.cz_error"] = cp.cz_error
        return out


class JobAccountingPlugin(Plugin):
    """Utilization counters: jobs executed, busy/calibrating seconds."""

    prefix = "accounting"

    def __init__(self, device: QPUDevice) -> None:
        self._device = device

    def collect(self, timestamp: float) -> Dict[str, float]:
        return {
            "jobs_executed": float(self._device.jobs_executed),
            "busy_seconds": float(self._device.busy_seconds),
            "calibrating_seconds": float(self._device.calibrating_seconds),
        }


class CallbackPlugin(Plugin):
    """Adapter turning any ``timestamp -> dict`` callable into a plugin
    (how the facility models register without import cycles)."""

    def __init__(self, prefix: str, fn) -> None:
        self.prefix = str(prefix)
        self._fn = fn

    def collect(self, timestamp: float) -> Dict[str, float]:
        out = self._fn(timestamp)
        if not isinstance(out, dict):
            raise SensorError(
                f"plugin {self.prefix!r} callback must return a dict, got "
                f"{type(out).__name__}"
            )
        return out


class SimulatorCountersPlugin(Plugin):
    """One-stop snapshot of the execution core: plan-cache counters,
    resilience counters, and cumulative exec-tracing counters.  One
    :meth:`DCDBCollector.run_cycle` lands all three sensor families
    (``simulator.plan_cache.*``, ``simulator.resilience.*``,
    ``simulator.exec.*``) at one timestamp."""

    prefix = "simulator"

    def collect(self, timestamp: float) -> Dict[str, float]:
        from repro.compiler import plans
        from repro.simulator import resilience
        from repro.telemetry import tracing

        out: Dict[str, float] = {}
        info = plans.plan_cache_info()
        for key in ("entries", "hits", "misses", "evictions"):
            out[f"plan_cache.{key}"] = float(info[key])
        for name, value in resilience.counters().items():
            out[f"resilience.{name}"] = float(value)
        for name, value in tracing.exec_counters().items():
            out[f"exec.{name}"] = float(value)
        return out


class DCDBCollector:
    """Fans collection cycles across plugins into a store.

    ``interval`` is bookkeeping only — the operations loop decides when
    cycles actually happen and calls :meth:`run_cycle` with explicit
    simulation timestamps.
    """

    def __init__(
        self,
        store: MetricStore,
        plugins: Sequence[Plugin],
        interval: float = 60.0,
    ) -> None:
        self.store = store
        self.plugins: List[Plugin] = list(plugins)
        self.interval = float(interval)
        self.cycles_run = 0
        self.last_cycle_at: Optional[float] = None

    def add_plugin(self, plugin: Plugin) -> None:
        self.plugins.append(plugin)

    def run_cycle(self, timestamp: float) -> int:
        """Collect every plugin once; returns the number of points landed.

        A plugin raising :class:`SensorError` is skipped for the cycle
        (real collectors log-and-continue; losing one subsystem must not
        blind the rest of the monitoring plane)."""
        landed = 0
        for plugin in self.plugins:
            try:
                values = plugin.collect(timestamp)
            except SensorError:
                continue
            for suffix, value in values.items():
                self.store.insert(plugin.sensor(suffix), timestamp, float(value))
                landed += 1
        self.cycles_run += 1
        self.last_cycle_at = float(timestamp)
        return landed


__all__ = [
    "Plugin",
    "QPUMetricsPlugin",
    "JobAccountingPlugin",
    "CallbackPlugin",
    "SimulatorCountersPlugin",
    "DCDBCollector",
]

"""DCDB-like time-series metric store.

The paper monitors the QPU through DCDB, "an open-source, plugin-based
system designed for continuous and holistic collection of operational
and environmental metrics … aggregat[ing] this data in a distributed
noSQL data store, enabling cross-system correlation".

:class:`MetricStore` is the in-memory stand-in: append-only per-sensor
series with range queries, latest-value lookup, windowed aggregation and
cross-sensor correlation.  Storage is chunked NumPy arrays so that the
146-day operations run (hundreds of thousands of points) stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TelemetryError

_CHUNK = 4096


class _Series:
    """Append-only (timestamp, value) series with amortized growth."""

    __slots__ = ("_t", "_v", "_n")

    def __init__(self) -> None:
        self._t = np.empty(_CHUNK, dtype=float)
        self._v = np.empty(_CHUNK, dtype=float)
        self._n = 0

    def append(self, t: float, v: float) -> None:
        if self._n and t < self._t[self._n - 1]:
            raise TelemetryError(
                f"out-of-order insert: {t} < {self._t[self._n - 1]}"
            )
        if self._n == self._t.size:
            self._t = np.concatenate([self._t, np.empty(self._t.size, dtype=float)])
            self._v = np.concatenate([self._v, np.empty(self._v.size, dtype=float)])
        self._t[self._n] = t
        self._v[self._n] = v
        self._n += 1

    def view(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._t[: self._n], self._v[: self._n]

    def __len__(self) -> int:
        return self._n


@dataclass(frozen=True)
class MetricPoint:
    """One observation of one sensor."""

    sensor: str
    timestamp: float
    value: float


class MetricStore:
    """Per-sensor time series with range queries and aggregation.

    Sensor names are hierarchical strings, DCDB-style, e.g.
    ``"qpu.qubit03.t1"`` or ``"facility.cooling.water_in_temp"``.
    """

    def __init__(self) -> None:
        self._series: Dict[str, _Series] = {}

    # -- ingestion ---------------------------------------------------------------

    def insert(self, sensor: str, timestamp: float, value: float) -> None:
        """Append one observation (timestamps must be non-decreasing per
        sensor, which a collector loop guarantees)."""
        if not sensor:
            raise TelemetryError("sensor name must be non-empty")
        series = self._series.get(sensor)
        if series is None:
            series = self._series[sensor] = _Series()
        series.append(float(timestamp), float(value))

    def insert_many(self, timestamp: float, values: Mapping[str, float]) -> None:
        """Append one collection cycle's worth of observations."""
        for sensor, value in values.items():
            self.insert(sensor, timestamp, value)

    # -- queries --------------------------------------------------------------------

    def sensors(self, prefix: str = "") -> List[str]:
        """Sensor names, optionally filtered by hierarchical prefix."""
        return sorted(s for s in self._series if s.startswith(prefix))

    def __contains__(self, sensor: str) -> bool:
        return sensor in self._series

    def __len__(self) -> int:
        return len(self._series)

    def num_points(self, sensor: Optional[str] = None) -> int:
        if sensor is not None:
            return len(self._get(sensor))
        return sum(len(s) for s in self._series.values())

    def _get(self, sensor: str) -> _Series:
        try:
            return self._series[sensor]
        except KeyError:
            raise TelemetryError(f"unknown sensor {sensor!r}") from None

    def latest(self, sensor: str) -> MetricPoint:
        series = self._get(sensor)
        if not len(series):
            raise TelemetryError(f"sensor {sensor!r} has no data")
        t, v = series.view()
        return MetricPoint(sensor, float(t[-1]), float(v[-1]))

    def query(
        self,
        sensor: str,
        start: float = -math.inf,
        end: float = math.inf,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(timestamps, values) with ``start <= t <= end`` (views, no copy
        beyond the boolean selection)."""
        t, v = self._get(sensor).view()
        lo = np.searchsorted(t, start, side="left")
        hi = np.searchsorted(t, end, side="right")
        return t[lo:hi], v[lo:hi]

    def aggregate(
        self,
        sensor: str,
        start: float,
        end: float,
        window: float,
        how: str = "mean",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Windowed aggregation (``mean``/``min``/``max``/``last``) over
        ``[start, end)`` with fixed *window* width.  Empty windows yield
        NaN.  This is the dashboard's downsampling query."""
        if window <= 0:
            raise TelemetryError("window must be positive")
        if how not in ("mean", "min", "max", "last"):
            raise TelemetryError(f"unknown aggregation {how!r}")
        t, v = self.query(sensor, start, end)
        n_windows = max(1, int(math.ceil((end - start) / window)))
        centers = start + (np.arange(n_windows) + 0.5) * window
        out = np.full(n_windows, np.nan)
        if t.size:
            idx = np.minimum(((t - start) / window).astype(int), n_windows - 1)
            # Timestamps are sorted, so ``idx`` is non-decreasing and every
            # window is one contiguous run of points: a single searchsorted
            # plus segmented reduceat replaces the O(windows × points)
            # per-window masking loop.
            boundaries = np.searchsorted(idx, np.arange(n_windows), side="left")
            ends = np.append(boundaries[1:], idx.size)
            counts = ends - boundaries
            nonempty = counts > 0
            starts = boundaries[nonempty]
            if how == "mean":
                out[nonempty] = np.add.reduceat(v, starts) / counts[nonempty]
            elif how == "min":
                out[nonempty] = np.minimum.reduceat(v, starts)
            elif how == "max":
                out[nonempty] = np.maximum.reduceat(v, starts)
            else:  # "last"
                out[nonempty] = v[ends[nonempty] - 1]
        return centers, out

    # -- collectors --------------------------------------------------------------

    def record_plan_cache(self, timestamp: float) -> None:
        """Snapshot the compiler plan cache's counters into the
        ``simulator.plan_cache.*`` sensor family.

        One call appends one observation per counter (entries, hits,
        misses, evictions) at *timestamp* — the DCDB-style collector-loop
        shape, so cache behaviour lands on the same timeline as the
        operational metrics and can be windowed or correlated against
        them like any other sensor."""
        from repro.compiler import plans

        info = plans.plan_cache_info()
        self.insert_many(
            timestamp,
            {
                f"simulator.plan_cache.{key}": float(info[key])
                for key in ("entries", "hits", "misses", "evictions")
            },
        )

    def record_resilience(self, timestamp: float) -> None:
        """Snapshot the simulator's resilience counters into the
        ``simulator.resilience.*`` sensor family.

        One call appends one observation per counter
        (admission_rejects, engine_fallbacks) at *timestamp* — same
        collector-loop shape as :meth:`record_plan_cache`, so rejection
        and degradation events land on the operational timeline where an
        operator can window and correlate them (e.g. engine fallbacks
        against node load)."""
        from repro.simulator import resilience

        snapshot = resilience.counters()
        self.insert_many(
            timestamp,
            {
                f"simulator.resilience.{name}": float(snapshot[name])
                for name in resilience.COUNTER_NAMES
            },
        )

    def record_execution(self, report, timestamp: float) -> None:
        """Flatten one :class:`~repro.telemetry.tracing.ExecutionReport`
        into the ``simulator.exec.*`` sensor family.

        Accepts the report object or its ``to_dict()`` form.  Scalar
        features (wall time, shots, peak bytes, plan-cache hit, max
        bond, truncation error) land as ``simulator.exec.<name>``,
        per-phase wall times as ``simulator.exec.phase.<span>``, and
        event counters as ``simulator.exec.events.<name>`` — all plain
        numeric sensors, so ``aggregate``/``correlate`` work on them
        exactly like on the facility metrics (the feature timeline the
        measured-cost router trains on)."""
        data = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        values: Dict[str, float] = {
            "simulator.exec.wall_seconds": float(data.get("wall_seconds") or 0.0),
            "simulator.exec.shots": float(data.get("shots") or 0),
            "simulator.exec.num_qubits": float(data.get("num_qubits") or 0),
            "simulator.exec.plan_cache_hit": (
                1.0 if data.get("plan_cache_hit") else 0.0
            ),
        }
        for key in (
            "estimated_peak_bytes",
            "max_bond_dimension",
            "truncation_error",
        ):
            value = data.get(key)
            if value is not None:
                values[f"simulator.exec.{key}"] = float(value)
        for name, secs in (data.get("phase_seconds") or {}).items():
            values[f"simulator.exec.phase.{name}"] = float(secs)
        for name, n in (data.get("counters") or {}).items():
            values[f"simulator.exec.events.{name}"] = float(n)
        self.insert_many(timestamp, values)

    def correlate(
        self, sensor_a: str, sensor_b: str, start: float, end: float, window: float
    ) -> float:
        """Pearson correlation of two sensors on a common windowed grid —
        the "cross-system correlation" DCDB exists to enable (e.g. water
        temperature vs readout fidelity)."""
        _, a = self.aggregate(sensor_a, start, end, window)
        _, b = self.aggregate(sensor_b, start, end, window)
        mask = ~(np.isnan(a) | np.isnan(b))
        if mask.sum() < 3:
            raise TelemetryError("not enough overlapping data to correlate")
        aa, bb = a[mask], b[mask]
        if aa.std() < 1e-15 or bb.std() < 1e-15:
            return 0.0
        return float(np.corrcoef(aa, bb)[0, 1])


__all__ = ["MetricStore", "MetricPoint"]

"""The benchmark's four workloads, driven through the stack's public APIs.

Each workload is a closed loop with one client in one thread: the next
operation starts only when the previous one has returned.  An operation
is a REST job, a VQE energy evaluation, or one simulated day of
operations.  A measured phase runs units (one job, one bond length's
VQE, one 146-day policy run) until the time budget is used up; see
:func:`measure` for where it stops.

All workloads run on one fixed chip, the factory calibration of the
quickstart's seed-7 device.  The benchmark seed drives everything else
(drift, shot sampling, optimizer starts) through ``child_rng``.  With the
chip fixed, the circuit a job compiles to, and so its cost, does not
change from seed to seed; with a seeded chip, GHZ-12 routing alone moved
throughput by up to 2x between seeds.

Run as a script, this module is the per-workload child process of
``bench/run.py``: ``python bench/workloads.py '<json spec>'`` sets up one
workload, optionally measures it, and prints one JSON line.  Its set-up
time runs from before the stack's imports to the end of the warm-up, so
import time counts as set-up.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import contextlib
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.circuits import ghz_circuit
from repro.compiler.plans import plan_cache_info
from repro.hybrid import VQE, h2_hamiltonian
from repro.middleware import MQSSClient
from repro.middleware.rest import RestClient, RestServer
from repro.ops import OperationsConfig, OperationsSimulator
from repro.qpu import QPUDevice, Topology
from repro.qpu.params import nominal_calibration
from repro.scheduler import QuantumResourceManager
from repro.simulator import Counts
from repro.telemetry.plugins import CallbackPlugin
from repro.utils.rng import child_rng
from repro.utils.units import DAY, HOUR

from tracer import Tracer

IMPORTED = time.perf_counter()

#: Seed of the fixed chip's factory calibration (see the module docstring).
CHIP_SEED = 7

#: Lowest per-job GHZ fidelity estimate accepted, by width.  Seed runs
#: gave per-job minima of 0.81 (GHZ-5, 2048 shots) and 0.54 (GHZ-12,
#: 1024 shots); the floors leave room for shot noise and drift.
GHZ_FIDELITY_FLOOR = {5: 0.70, 12: 0.40}

#: Largest |mean(E - E_exact)| over the completed bond lengths, in mHa.
#: Seed runs gave means of 59 to 178 mHa; one bond length's SPSA run
#: now and then stalls near 500 mHa, so the bound is on the scan mean.
VQE_MAX_ERROR_MHA = 300.0

#: Paper (Fig. 4): more than 100 days without human intervention.
OPS_MIN_UNATTENDED_DAYS = 100

WORKLOADS: Dict[str, dict] = {
    "rest_ghz5": {
        "kind": "rest", "qubits": 5, "shots": 2048, "warmup": 3, "digest_ops": 200,
    },
    "rest_ghz12": {
        "kind": "rest", "qubits": 12, "shots": 1024, "warmup": 2, "digest_ops": 20,
    },
    "vqe_h2_scan": {
        "kind": "vqe",
        "bond_lengths": [0.5 + k / 7 for k in range(8)],
        "iterations": 120,
        "shots": 512,
        "digest_ops": 241,
    },
    "ops_policy_sweep": {
        "kind": "ops",
        "days": 146,
        "jobs_per_day": 12,
        "policies": [
            ["scheduler_controlled", 24.0],
            ["fixed_period", 24.0],
            ["fixed_period", 12.0],
        ],
        "digest_ops": 146,
    },
}


def derived_seed(seed: int, *key: object) -> int:
    """An integer seed for one input stream, derived from the bench seed."""
    return int(child_rng(seed, *key).integers(2**63))


def counts_digest(counts) -> str:
    """SHA-256 of a histogram in canonical (sorted-key) form."""
    text = json.dumps(sorted(dict(counts).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _chip():
    topology = Topology.iqm_garnet_like()
    return topology, nominal_calibration(topology, rng=child_rng(CHIP_SEED, "calibration"))


class BudgetSpent(Exception):
    """Raised at an operation boundary inside a unit once the phase's
    time budget is spent."""


class Recorder:
    """Per-operation bookkeeping of one measured phase.

    ``mark`` closes the operation in progress: its latency runs from the
    previous ``mark``, or from the start of the phase.  Every second of
    the phase therefore belongs to some operation, including a unit's own
    set-up (building a VQE or a device) and wind-down (the exact energy,
    a run's summary).  ``units`` counts the units completed so far.
    """

    def __init__(self, seconds: float, tracer: Optional[Tracer] = None) -> None:
        self.latencies: List[float] = []
        self.digests: List[str] = []
        self.failed = 0
        self.errors: List[str] = []
        self.units = 0
        self._tracer = tracer
        self._last = time.perf_counter()
        self._deadline = self._last + seconds
        self._set_op()

    def past_deadline(self) -> bool:
        return time.perf_counter() >= self._deadline

    def stop_if_spent(self) -> None:
        """End the phase here, mid-unit, if the budget is spent and a
        unit has completed."""
        if self.units and self.past_deadline():
            raise BudgetSpent

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def _set_op(self) -> None:
        if self._tracer is not None:
            self._tracer.op = len(self.latencies)

    def mark(self) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self._last)
        self._last = now
        self._set_op()

    def result(self, digest: str, ok: bool) -> None:
        self.digests.append(digest)
        self.failed += not ok

    def checkpoint(self) -> tuple:
        return self.ops, self.failed

    def fail_since(self, checkpoint: tuple) -> None:
        """Count every operation since *checkpoint* as failed."""
        ops, failed = checkpoint
        if self.ops == ops:
            self.mark()
        while len(self.digests) < self.ops:
            self.digests.append("error")
        self.failed = failed + (self.ops - ops)


class RestWorkload:
    """``RestClient.submit`` -> ``wait`` -> ``RestServer`` -> QRM -> JIT ->
    ``QPUDevice``: the quickstart's remote path, one GHZ job per unit."""

    operation = "job"

    def __init__(self, name: str, seed: int, p: dict) -> None:
        topology, chip = _chip()
        device = QPUDevice(topology, seed=derived_seed(seed, name, "device"), base_calibration=chip)
        self.qrm = QuantumResourceManager(device)
        self.client = RestClient(RestServer(self.qrm))
        self.circuit = ghz_circuit(p["qubits"])
        self.shots = p["shots"]
        self.floor = GHZ_FIDELITY_FLOOR[p["qubits"]]
        self.fidelities: List[float] = []
        for _ in range(p["warmup"]):
            self.client.wait(self.client.submit(self.circuit, shots=self.shots))

    def unit(self, index: int, rec: Recorder) -> None:
        body = self.client.wait(self.client.submit(self.circuit, shots=self.shots))
        counts = Counts(
            {k: int(v) for k, v in body["counts"].items()}, num_bits=self.circuit.num_clbits
        )
        fidelity = counts.ghz_fidelity_estimate()
        rec.mark()
        self.fidelities.append(fidelity)
        ok = sum(counts.values()) == self.shots == body["shots"] and fidelity >= self.floor
        rec.result(counts_digest(counts), ok)

    def checks(self) -> Dict[str, list]:
        low = min(self.fidelities, default=float("nan"))
        return {"ghz_fidelity_floor": [low >= self.floor, f"min {low:.3f} vs floor {self.floor}"]}

    def quality(self) -> Dict[str, float]:
        return {"ghz_fidelity": float(np.mean(self.fidelities))}

    def counters(self) -> Dict[str, int]:
        return _qrm_counters(self.qrm)


class VQEWorkload:
    """``VQE`` -> ``MQSSClient(context="hpc")`` -> QRM -> JIT -> device: the
    tightly coupled accelerator loop, one bond length's SPSA run per unit."""

    operation = "energy evaluation"

    def __init__(self, name: str, seed: int, p: dict) -> None:
        topology, chip = _chip()
        device = QPUDevice(topology, seed=derived_seed(seed, name, "device"), base_calibration=chip)
        self.client = MQSSClient(QuantumResourceManager(device), context="hpc")
        self.qrm = self.client.qrm
        self.name, self.seed = name, seed
        self.shots = p["shots"]
        self.iterations = p["iterations"]
        self.hamiltonians = [h2_hamiltonian(b) for b in p["bond_lengths"]]
        self.errors_mha: List[float] = []
        warm = VQE(self.hamiltonians[0], self._run, shots=self.shots)
        warm.energy(np.zeros(len(warm.parameters)))

    def _run(self, circuit, shots: int):
        return self.client.run(circuit, shots=shots)

    def unit(self, index: int, rec: Recorder) -> None:
        hamiltonian = self.hamiltonians[index % len(self.hamiltonians)]
        jobs_per_eval = len(hamiltonian.grouped_terms())
        jobs, digest, ok = 0, hashlib.sha256(), True

        def run_circuit(circuit, shots):
            # Every evaluation runs one circuit per measurement group.
            nonlocal jobs, digest, ok
            counts = self._run(circuit, shots)
            ok &= sum(counts.values()) == shots
            digest.update(counts_digest(counts).encode())
            jobs += 1
            if jobs % jobs_per_eval == 0:
                rec.mark()
                rec.result(digest.hexdigest()[:16], ok)
                digest, ok = hashlib.sha256(), True
                rec.stop_if_spent()
            return counts

        result = VQE(hamiltonian, run_circuit, shots=self.shots).minimize(
            iterations=self.iterations,
            rng=derived_seed(self.seed, self.name, "optimizer", index),
        )
        self.errors_mha.append(result.error_to_exact * 1e3)

    def checks(self) -> Dict[str, list]:
        mean = float(np.mean(self.errors_mha))
        return {
            "energy_error_bound": [
                abs(mean) <= VQE_MAX_ERROR_MHA,
                f"mean E - E_exact {mean:.1f} mHa over {len(self.errors_mha)} bond "
                f"lengths vs bound {VQE_MAX_ERROR_MHA}",
            ]
        }

    def quality(self) -> Dict[str, float]:
        return {"energy_error_mha": float(np.mean(self.errors_mha))}

    def counters(self) -> Dict[str, int]:
        return _qrm_counters(self.qrm)


class OpsWorkload:
    """``OperationsSimulator``: drift, DCDB telemetry, the calibration
    controller and 12 GHZ-3 jobs a day (``transpile(layout_method="line")``
    straight to the device), one 146-day run per policy and unit."""

    operation = "simulated day"

    #: Telemetry read back at the end of each day: its digest stands for
    #: the day's output, and the three fidelities must lie in (0, 1].
    DAY_SENSORS = (
        "qpu.median_prx_fidelity",
        "qpu.median_readout_fidelity",
        "qpu.median_cz_fidelity",
        "accounting.jobs_executed",
        "accounting.calibrating_seconds",
    )

    def __init__(self, name: str, seed: int, p: dict) -> None:
        self.topology, self.chip = _chip()
        self.name, self.seed = name, seed
        self.days = p["days"]
        self.jobs_per_day = p["jobs_per_day"]
        self.policies = p["policies"]
        self.cz_fidelity: List[float] = []
        self.runs: List[list] = []
        warm = self._device("warmup")
        OperationsSimulator(warm, self._config("scheduler_controlled", 24.0, days=1)).run()

    def _device(self, *key) -> QPUDevice:
        return QPUDevice(
            self.topology,
            seed=derived_seed(self.seed, self.name, "device", *key),
            base_calibration=self.chip,
        )

    def _config(self, policy: str, period_h: float, days: int) -> OperationsConfig:
        return OperationsConfig(
            duration_days=days,
            policy=policy,
            fixed_period=period_h * HOUR,
            workload_jobs_per_day=self.jobs_per_day,
        )

    def unit(self, index: int, rec: Recorder) -> None:
        policy, period_h = self.policies[index % len(self.policies)]
        # Every policy of one cycle runs on the same device seed.
        device = self._device(index // len(self.policies))
        config = self._config(policy, period_h, self.days)
        sim = OperationsSimulator(device, config)
        steps_per_day = max(1, int(round(DAY / config.telemetry_interval)))
        cycles = 0

        def close_day():
            rec.mark()
            values = [sim.store.latest(s).value for s in self.DAY_SENSORS]
            ok = all(0.0 < v <= 1.0 for v in values[:3])
            rec.result(hashlib.sha256(repr(values).encode()).hexdigest()[:16], ok)

        def day_clock(_timestamp):
            # Added after the stack's own plugins, so this cycle's values
            # are in the store.  The first cycle of each day after the
            # first closes the previous day.
            nonlocal cycles
            cycles += 1
            if cycles > 1 and cycles % steps_per_day == 1:
                close_day()
                rec.stop_if_spent()
            return {}

        sim.collector.add_plugin(CallbackPlugin("bench", day_clock))
        checkpoint = rec.checkpoint()
        result = sim.run()
        close_day()
        summary = result.summary()
        self.cz_fidelity.append(summary["mean_cz_fidelity"])
        run = [
            policy,
            period_h,
            result.unattended_days(),
            int(summary["quick_calibrations"]),
            int(summary["full_calibrations"]),
        ]
        self.runs.append(run)
        if not self._run_ok(run) or len(result.days) != rec.ops - checkpoint[0]:
            rec.fail_since(checkpoint)

    def _run_ok(self, run: list) -> bool:
        policy, _, unattended, quick, full = run
        if unattended < min(OPS_MIN_UNATTENDED_DAYS, self.days):
            return False
        return policy != "scheduler_controlled" or (quick >= 1 and full >= 1)

    def checks(self) -> Dict[str, list]:
        bad = [r for r in self.runs if not self._run_ok(r)]
        return {
            "unattended_and_calibrated": [
                bool(self.runs) and not bad,
                f"{len(self.runs)} policy runs [policy, period_h, unattended days, "
                f"quick, full]: {self.runs}",
            ]
        }

    def quality(self) -> Dict[str, float]:
        return {"cz_fidelity_mean": float(np.mean(self.cz_fidelity))}

    def counters(self) -> Dict[str, int]:
        return {"jit_hits": 0, "jit_misses": 0, "jit_entries": 0, "requeues": 0}


KINDS = {"rest": RestWorkload, "vqe": VQEWorkload, "ops": OpsWorkload}


def _qrm_counters(qrm: QuantumResourceManager) -> Dict[str, int]:
    info = qrm.jit.cache_info()
    return {
        "jit_hits": info["hits"],
        "jit_misses": info["misses"],
        "jit_entries": info["entries"],
        "requeues": qrm.stats.jobs_requeued,
    }


def build(name: str, seed: int, overrides: Optional[dict] = None):
    """Build workload *name*'s stack for *seed* and run its warm-up."""
    params = {**WORKLOADS[name], **(overrides or {})}
    workload = KINDS[params["kind"]](name, seed, params)
    workload.digest_ops = params["digest_ops"]
    return workload


def measure(workload, seconds: float, *, traced: bool = False, spans: Optional[str] = None) -> dict:
    """Run units of *workload* until the first operation that ends past
    *seconds*; the first unit always completes.

    Stopping at an operation rather than at a unit boundary keeps the
    amount of work continuous in the machine's speed: with 2-7 s units,
    the number of whole units (and with it the JIT cache and peak RSS)
    would jump between two values from run to run.  Returns the raw
    per-operation data; ``bench/run.py`` turns it into metrics.
    """
    counters0 = workload.counters()
    plans0 = plan_cache_info()
    with Tracer() if traced else contextlib.nullcontext() as tracer:
        rec = Recorder(seconds, tracer)
        t0 = time.perf_counter()
        while True:
            checkpoint = rec.checkpoint()
            try:
                workload.unit(rec.units, rec)
            except BudgetSpent:
                break
            except Exception:  # a failed unit is counted, and the loop goes on
                rec.errors.append(traceback.format_exc(limit=4))
                rec.fail_since(checkpoint)
            rec.units += 1
            if rec.past_deadline():
                break
        elapsed = time.perf_counter() - t0
    counters1 = workload.counters()
    plans1 = plan_cache_info()
    out = {
        "operation": workload.operation,
        "ops": rec.ops,
        "failed": rec.failed,
        "units": rec.units,
        "elapsed_s": elapsed,
        "latencies_s": rec.latencies,
        "digests": rec.digests,
        # Reproducible at one seed however many operations a run fits.
        "digest_ops": min(rec.ops, workload.digest_ops),
        "counts_digest": hashlib.sha256(
            "".join(rec.digests[: workload.digest_ops]).encode()
        ).hexdigest(),
        "errors": rec.errors[:3],
        "checks": workload.checks(),
        "quality": workload.quality(),
        "counters": {
            "jit_hits": counters1["jit_hits"] - counters0["jit_hits"],
            "jit_misses": counters1["jit_misses"] - counters0["jit_misses"],
            "jit_entries": counters1["jit_entries"],
            "plan_hits": plans1["hits"] - plans0["hits"],
            "plan_misses": plans1["misses"] - plans0["misses"],
            "requeues": counters1["requeues"] - counters0["requeues"],
        },
    }
    if tracer is not None:
        out["layers"] = tracer.layer_totals()
        if spans:
            tracer.save(spans)
    return out


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    workload = build(spec["workload"], spec["seed"])
    out = {"setup_s": time.perf_counter() - STARTED, "import_s": IMPORTED - STARTED}
    if spec["mode"] != "setup":
        out.update(
            measure(
                workload,
                spec["seconds"],
                traced=spec["mode"] == "traced",
                spans=spec.get("spans"),
            )
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""QRM — the Quantum Resource Manager (second-level scheduler).

Figure 2: "QRM operates as a second-level scheduler, incorporating a
Just-In-Time (JIT) LLVM-based compiler and multiple support libraries."

The QRM owns the QPU: it keeps the quantum job queue, JIT-compiles every
program against live QDMI data at the moment it reaches the device (so a
recalibration between submission and execution yields a *better*
placement, not a stale one), executes jobs, and coordinates calibration
slots with the first-level cluster scheduler via advance reservations —
the paper's "exact timing controlled by the HPC center".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.compiler.jit import JITCompiler, Program
from repro.errors import DeviceUnavailableError, JobError, QueueError
from repro.qdmi.devices import QPUQDMIDevice
from repro.qpu.device import (
    FULL_CALIBRATION_DURATION,
    QUICK_CALIBRATION_DURATION,
    DeviceStatus,
    QPUDevice,
    QPUJobResult,
)
from repro.scheduler.cluster import ClusterScheduler, Reservation
from repro.scheduler.jobs import Job, JobState
from repro.simulator.config import current_config
from repro.telemetry import tracing as _tracing

#: rough per-shot wall-clock estimate used for queue planning (reset-dominated).
_SHOT_ESTIMATE = 350e-6
_JOB_OVERHEAD_ESTIMATE = 2.0

#: name of the QPU's partition in the first-level scheduler.
QUANTUM_PARTITION = "quantum"


@dataclass
class QRMStats:
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_requeued: int = 0
    total_wait_time: float = 0.0
    total_exec_time: float = 0.0
    calibration_slots_opened: int = 0

    @property
    def mean_wait_time(self) -> float:
        done = self.jobs_completed + self.jobs_failed
        return self.total_wait_time / done if done else 0.0


class QuantumResourceManager:
    """Second-level scheduler in front of one :class:`QPUDevice`."""

    def __init__(
        self,
        device: QPUDevice,
        *,
        jit: Optional[JITCompiler] = None,
        cluster: Optional[ClusterScheduler] = None,
        layout_method: str = "noise_adaptive",
    ) -> None:
        self.device = device
        self.jit = jit or JITCompiler(
            QPUQDMIDevice(device), layout_method=layout_method
        )
        self.cluster = cluster
        self.queue: List[Job] = []
        self.stats = QRMStats()
        if cluster is not None and QUANTUM_PARTITION not in cluster.partitions:
            raise QueueError(
                f"cluster has no {QUANTUM_PARTITION!r} partition; add one "
                "(the QPU appears as a single-node partition)"
            )

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        program: Program,
        *,
        shots: int = 1024,
        name: Optional[str] = None,
        user: str = "user",
        priority: int = 0,
    ) -> Job:
        """Enqueue a quantum job; returns its :class:`Job` handle."""
        if shots < 1:
            raise JobError("shots must be >= 1")
        runtime_estimate = shots * _SHOT_ESTIMATE + _JOB_OVERHEAD_ESTIMATE
        job = Job(
            name=name or getattr(program, "name", "quantum-job"),
            user=user,
            partition=QUANTUM_PARTITION,
            num_nodes=1,
            walltime_limit=max(60.0, 10.0 * runtime_estimate),
            runtime=runtime_estimate,
            priority=priority,
            is_quantum=True,
            payload={"program": program, "shots": int(shots)},
        )
        job.mark_submitted(self.device.time)
        self.queue.append(job)
        return job

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    # -- execution --------------------------------------------------------------

    def run_next(self) -> Optional[Job]:
        """Execute the highest-priority queued job; returns it, or None.

        A device outage mid-queue marks the job requeued rather than
        failed — the "robust job restart" behaviour early users asked
        for (Section 4).
        """
        if not self.queue:
            return None
        self.queue.sort(key=lambda j: (-j.priority, j.submitted_at or 0.0, j.job_id))
        job = self.queue.pop(0)
        started = self.device.time
        job.mark_started(started)
        self.stats.total_wait_time += max(0.0, started - (job.submitted_at or started))
        # The job's own tracing scope: a traced job's report covers JIT
        # compile and device execution (the sampler's run nests in it as
        # a span) and reaches only this job.
        with _tracing.run_scope(
            "qrm.run_next", enabled=current_config().trace
        ) as run:
            try:
                artifact = self.jit.compile(job.payload["program"])
                result = self.device.execute(
                    artifact.circuit, shots=job.payload["shots"]
                )
            except DeviceUnavailableError as exc:
                job.mark_requeued(self.device.time, str(exc))
                job.mark_submitted(self.device.time)
                self.queue.append(job)
                self.stats.jobs_requeued += 1
                return job
            except Exception as exc:  # compile/validation errors are user errors
                job.mark_failed(self.device.time, f"{type(exc).__name__}: {exc}")
                self.stats.jobs_failed += 1
                return job
        job.mark_completed(self.device.time, result)
        job.payload["layout"] = artifact.result.final_layout
        job.payload["calibration_timestamp"] = artifact.calibration_timestamp
        if run.report is not None:
            # Served by GET /jobs/{id} with the result.
            job.payload["execution_report"] = run.report.to_dict()
        self.stats.jobs_completed += 1
        self.stats.total_exec_time += result.duration
        return job

    def drain(self, *, max_jobs: int = 100_000) -> int:
        """Run queued jobs until the queue is empty or the device goes
        unavailable; returns the number of jobs completed/failed."""
        done = 0
        stuck_requeues = 0
        while self.queue and done + stuck_requeues < max_jobs:
            job = self.run_next()
            if job is None:
                break
            if job.state is JobState.REQUEUED or job in self.queue:
                stuck_requeues += 1
                if stuck_requeues > len(self.queue):
                    break  # device down: everything requeues, stop looping
            else:
                done += 1
        return done

    # -- calibration coordination -----------------------------------------------

    def calibration_slot(self, kind: str = "full") -> float:
        """Open a calibration slot *now*: reserve the quantum partition in
        the first-level scheduler (if attached) and run the procedure.

        Returns the slot duration.  This is the paper's coordination
        point: users see the slot as a reservation, not as a mystery
        outage.
        """
        duration = (
            FULL_CALIBRATION_DURATION if kind == "full" else QUICK_CALIBRATION_DURATION
        )
        if self.cluster is not None:
            self.cluster.reserve(
                Reservation(
                    partition=QUANTUM_PARTITION,
                    start=self.cluster.sim.now,
                    end=self.cluster.sim.now + duration,
                    num_nodes=1,
                    label=f"calibration-{kind}",
                )
            )
        self.device.calibrate(kind)
        self.stats.calibration_slots_opened += 1
        return duration

    def idle(self) -> bool:
        """True when no quantum work is queued — the natural moment for a
        calibration slot."""
        return not self.queue and self.device.status is DeviceStatus.ONLINE

    def __repr__(self) -> str:
        return (
            f"<QRM queue={len(self.queue)} done={self.stats.jobs_completed} "
            f"failed={self.stats.jobs_failed} device={self.device.status.value}>"
        )


__all__ = ["QuantumResourceManager", "QRMStats", "QUANTUM_PARTITION"]

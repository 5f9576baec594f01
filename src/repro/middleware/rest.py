"""REST access path emulation.

Section 2.6's first interaction mode: "remote, API-based asynchronous
access: users submit jobs to a queue which are later executed on a QPU".

:class:`RestServer` models the server side without sockets: endpoints
are methods taking/returning JSON-compatible dicts plus an HTTP-like
status code.  The job store supports **pagination** — implemented, per
Section 4, because "many users found it difficult to navigate large job
histories on the dashboard, which led us to implement more efficient
pagination in the results section" — and a device-info endpoint exposing
the coupling map ("users requested … access to qubit coupling maps").
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.circuits.serialize import circuit_from_dict, circuit_to_dict
from repro.errors import JobTimeoutError, RestApiError, SerializationError
from repro.qdmi.interface import QDMIProperty
from repro.scheduler.jobs import Job, JobState
from repro.scheduler.qrm import QuantumResourceManager

JSON = Dict[str, Any]

#: Job states a job never leaves: what :class:`RestServer` retention counts.
_FINISHED = (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED)


@dataclass(frozen=True)
class RestResponse:
    """An HTTP-ish response: status code plus JSON body."""

    status: int
    body: JSON

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class RestServer:
    """The queue-fronted REST facade over a QRM.

    Jobs submitted here sit in the QRM queue until :meth:`process`
    executes them (the asynchronous mode's decoupling of submission from
    execution).  An operations loop calls ``process`` periodically.

    The job store keeps every queued and running job, but only the
    :attr:`MAX_FINISHED_JOBS` most recently finished ones: a job that
    finishes (through :meth:`process`, or cancelled through
    :meth:`delete_job`) past that count evicts the oldest finished job,
    whose id then reads 404.  Without the bound a long-running server
    holds every result histogram it ever produced.
    """

    MAX_PAGE_SIZE = 100
    MAX_FINISHED_JOBS = 256

    def __init__(self, qrm: QuantumResourceManager, metrics=None) -> None:
        self.qrm = qrm
        #: optional :class:`~repro.telemetry.store.MetricStore` behind
        #: ``GET /metrics``; finished jobs' execution reports are also
        #: flattened into it (``simulator.exec.*``) as they complete.
        self.metrics = metrics
        self._jobs: Dict[int, Job] = {}
        #: ids of the finished jobs in ``_jobs``, oldest first.
        self._finished: Deque[int] = deque()
        self.requests_served = 0

    # -- endpoints -----------------------------------------------------------

    def post_job(self, payload: JSON) -> RestResponse:
        """``POST /jobs`` — body: ``{"circuit": <circuit dict>,
        "shots": int, "user": str}``."""
        self.requests_served += 1
        if not isinstance(payload, dict):
            return _error(400, "job payload must be a JSON object")
        try:
            circuit = circuit_from_dict(payload["circuit"])
        except KeyError:
            return _error(400, "missing required field 'circuit'")
        except SerializationError as exc:
            return _error(400, f"invalid circuit payload: {exc}")
        shots = payload.get("shots", 1024)
        if not _is_int(shots) or shots < 1:
            return _error(400, f"invalid shots {shots!r}")
        if shots > 1_000_000:
            return _error(422, "shots exceed the per-job limit (1000000)")
        user = str(payload.get("user", "anonymous"))
        job = self.qrm.submit(circuit, shots=shots, user=user, name=circuit.name)
        self._jobs[job.job_id] = job
        return RestResponse(201, {"job_id": job.job_id, "status": job.state.value})

    def post_batch(self, payload: JSON) -> RestResponse:
        """``POST /batches`` — body: ``{"jobs": [<job payload>, …]}``.

        Batch-job support was an explicit early-user request (Section 4:
        "Users requested features such as batch-job support").  Submission
        is atomic: if any element is invalid, nothing is enqueued.
        """
        self.requests_served += 1
        jobs = payload.get("jobs") if isinstance(payload, dict) else None
        if not isinstance(jobs, list) or not jobs:
            return _error(400, "batch needs a non-empty 'jobs' list")
        if len(jobs) > 100:
            return _error(422, "batch exceeds 100 jobs")
        parsed = []
        for i, body in enumerate(jobs):
            try:
                circuit = circuit_from_dict(body["circuit"])
            except (KeyError, TypeError):
                return _error(400, f"batch element {i}: missing/invalid 'circuit'")
            except SerializationError as exc:
                return _error(400, f"batch element {i}: {exc}")
            shots = body.get("shots", 1024)
            if not _is_int(shots) or not 1 <= shots <= 1_000_000:
                return _error(400, f"batch element {i}: invalid shots {shots!r}")
            parsed.append((circuit, shots, str(body.get("user", "anonymous"))))
        ids = []
        for circuit, shots, user in parsed:
            job = self.qrm.submit(circuit, shots=shots, user=user, name=circuit.name)
            self._jobs[job.job_id] = job
            ids.append(job.job_id)
        return RestResponse(201, {"job_ids": ids, "count": len(ids)})

    def get_job(self, job_id: int) -> RestResponse:
        """``GET /jobs/{id}`` — status plus, when finished, the result
        histogram (the paper's dominant output format)."""
        self.requests_served += 1
        job = self._job(job_id)
        if job is None:
            return _error(404, f"no such job {job_id}")
        body: JSON = {
            "job_id": job.job_id,
            "name": job.name,
            "user": job.user,
            "status": job.state.value,
            "submitted_at": job.submitted_at,
            "started_at": job.started_at,
            "finished_at": job.finished_at,
            "requeue_count": job.requeue_count,
        }
        if job.state is JobState.COMPLETED and job.result is not None:
            result = job.result
            body["result"] = {
                "counts": result.counts.to_dict(),
                "shots": result.shots,
                "duration": result.duration,
                "calibration_timestamp": result.calibration_timestamp,
            }
            report = job.payload.get("execution_report")
            if report is not None:
                body["result"]["execution_report"] = report
        if job.state is JobState.FAILED:
            body["error"] = job.failure_reason
        return RestResponse(200, body)

    def list_jobs(
        self,
        *,
        offset: int = 0,
        limit: int = 20,
        user: Optional[str] = None,
        status: Optional[str] = None,
    ) -> RestResponse:
        """``GET /jobs?offset=&limit=&user=&status=`` — paginated history,
        newest first."""
        self.requests_served += 1
        if offset < 0 or limit < 1:
            return _error(400, "offset must be >= 0 and limit >= 1")
        limit = min(limit, self.MAX_PAGE_SIZE)
        rows = sorted(self._jobs.values(), key=lambda j: -j.job_id)
        if user is not None:
            rows = [j for j in rows if j.user == user]
        if status is not None:
            rows = [j for j in rows if j.state.value == status]
        total = len(rows)
        page = rows[offset : offset + limit]
        return RestResponse(
            200,
            {
                "total": total,
                "offset": offset,
                "limit": limit,
                "jobs": [
                    {"job_id": j.job_id, "name": j.name, "status": j.state.value}
                    for j in page
                ],
                "next_offset": offset + limit if offset + limit < total else None,
            },
        )

    def delete_job(self, job_id: int) -> RestResponse:
        """``DELETE /jobs/{id}`` — cancel a still-pending job."""
        self.requests_served += 1
        job = self._job(job_id)
        if job is None:
            return _error(404, f"no such job {job_id}")
        if job.state is not JobState.PENDING:
            return _error(409, f"job is {job.state.value}; only pending jobs cancel")
        if job in self.qrm.queue:
            self.qrm.queue.remove(job)
        job.mark_cancelled(self.qrm.device.time, "cancelled via REST")
        self._retire(job)
        return RestResponse(200, {"job_id": job.job_id, "status": job.state.value})

    def get_device(self) -> RestResponse:
        """``GET /device`` — topology, native gates, live medians."""
        self.requests_served += 1
        with self.qrm.jit.qdmi.open_session() as session:
            body = {
                "name": session.query(QDMIProperty.NAME),
                "num_qubits": session.query(QDMIProperty.NUM_QUBITS),
                "coupling_map": [list(c) for c in session.query(QDMIProperty.COUPLING_MAP)],
                "native_gates": list(session.query(QDMIProperty.NATIVE_GATES)),
                "status": session.query(QDMIProperty.STATUS),
                "median_prx_fidelity": session.query(QDMIProperty.MEDIAN_PRX_FIDELITY),
                "median_cz_fidelity": session.query(QDMIProperty.MEDIAN_CZ_FIDELITY),
                "median_readout_fidelity": session.query(
                    QDMIProperty.MEDIAN_READOUT_FIDELITY
                ),
                "calibration_timestamp": session.query(
                    QDMIProperty.CALIBRATION_TIMESTAMP
                ),
            }
        # Live queue depth so clients can back off before submitting
        # (the structured-timeout counterpart on the server side).
        body["queue_depth"] = self.qrm.queue_length
        return RestResponse(200, body)

    def get_metrics(self, prefix: str = "") -> RestResponse:
        """``GET /metrics?prefix=`` — latest value per matching sensor.

        Exposes the attached :class:`MetricStore`'s live values (the
        dashboard's "current state" read), 404 when the server runs
        without one.  Sensors that exist but have no data yet are
        omitted."""
        self.requests_served += 1
        if self.metrics is None:
            return _error(404, "no metric store attached to this server")
        from repro.errors import TelemetryError

        sensors: JSON = {}
        for name in self.metrics.sensors(str(prefix)):
            try:
                point = self.metrics.latest(name)
            except TelemetryError:
                continue
            sensors[name] = {"timestamp": point.timestamp, "value": point.value}
        return RestResponse(
            200, {"prefix": str(prefix), "count": len(sensors), "sensors": sensors}
        )

    def _job(self, job_id) -> Optional[Job]:
        """The job a path id names, or ``None`` (a path segment that is
        not an integer names no job)."""
        try:
            return self._jobs.get(int(job_id))
        except (TypeError, ValueError):
            return None

    def _retire(self, job: Job) -> None:
        """Record that *job* finished, evicting the oldest finished jobs
        beyond :attr:`MAX_FINISHED_JOBS`."""
        if job.job_id not in self._jobs:
            return
        self._finished.append(job.job_id)
        while len(self._finished) > self.MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    # -- server-side processing -----------------------------------------------

    def process(self, max_jobs: int = 1) -> int:
        """Execute up to *max_jobs* queued jobs (the worker loop).

        When a metric store is attached, each finished job's execution
        report (if tracing produced one) is flattened into the
        ``simulator.exec.*`` sensor family at the device clock's
        completion time — the REST loop doubles as the collector hook
        for per-run execution telemetry."""
        done = 0
        for _ in range(max_jobs):
            job = self.qrm.run_next()
            if job is None:
                break
            done += 1
            if job.state in _FINISHED:
                self._retire(job)
            if self.metrics is not None:
                report = job.payload.get("execution_report")
                if report is not None and job.finished_at is not None:
                    self.metrics.record_execution(report, job.finished_at)
        return done


def _error(status: int, message: str) -> RestResponse:
    return RestResponse(status, {"error": message})


def _is_int(value: object) -> bool:
    """A JSON integer: ``bool`` subclasses ``int`` but ``true`` is not
    a shot count."""
    return isinstance(value, int) and not isinstance(value, bool)


class RestClient:
    """Client-side convenience over :class:`RestServer` method calls.

    Raises :class:`RestApiError` on non-2xx responses so calling code
    can be written like real HTTP client code.
    """

    def __init__(self, server: RestServer) -> None:
        self._server = server

    def submit(self, circuit, *, shots: int = 1024, user: str = "anonymous") -> int:
        resp = self._server.post_job(
            {"circuit": circuit_to_dict(circuit), "shots": shots, "user": user}
        )
        _raise_for_status(resp)
        return int(resp.body["job_id"])

    def submit_batch(self, circuits, *, shots: int = 1024, user: str = "anonymous") -> list:
        """Submit many circuits in one request; returns their job ids."""
        resp = self._server.post_batch(
            {
                "jobs": [
                    {"circuit": circuit_to_dict(c), "shots": shots, "user": user}
                    for c in circuits
                ]
            }
        )
        _raise_for_status(resp)
        return [int(j) for j in resp.body["job_ids"]]

    def status(self, job_id: int) -> str:
        resp = self._server.get_job(job_id)
        _raise_for_status(resp)
        return str(resp.body["status"])

    def result(self, job_id: int) -> JSON:
        """The result body; raises if the job has not completed."""
        resp = self._server.get_job(job_id)
        _raise_for_status(resp)
        if resp.body["status"] != "completed":
            raise RestApiError(409, f"job {job_id} is {resp.body['status']}")
        return resp.body["result"]

    def wait(self, job_id: int, *, max_ticks: int = 10_000) -> JSON:
        """Poll-and-process until the job finishes (in the emulation, the
        client tick also drives the server worker).

        Raises a structured :class:`~repro.errors.JobTimeoutError`
        (status 504, carrying ``job_id`` and ``last_status``) when the
        tick budget runs out, so callers can distinguish a stuck queue
        from a dead job and back off — ``GET /device`` exposes the
        live ``queue_depth`` for exactly that."""
        status = "unknown"
        for _ in range(max_ticks):
            status = self.status(job_id)
            if status == "completed":
                return self.result(job_id)
            if status in ("failed", "cancelled"):
                resp = self._server.get_job(job_id)
                raise RestApiError(
                    500, f"job {job_id} {status}: {resp.body.get('error')}"
                )
            self._server.process(1)
        raise JobTimeoutError(job_id, status, max_ticks)

    def list_jobs(self, **query) -> JSON:
        resp = self._server.list_jobs(**query)
        _raise_for_status(resp)
        return resp.body

    def cancel(self, job_id: int) -> None:
        _raise_for_status(self._server.delete_job(job_id))

    def device_info(self) -> JSON:
        resp = self._server.get_device()
        _raise_for_status(resp)
        return resp.body


def _raise_for_status(resp: RestResponse) -> None:
    if not resp.ok:
        raise RestApiError(resp.status, str(resp.body.get("error", "request failed")))


__all__ = ["RestServer", "RestClient", "RestResponse"]

"""Exception hierarchy for the HPC+QC integration stack.

Every layer of the stack raises a subclass of :class:`ReproError` so that
callers can catch errors at the granularity they care about: a scheduler
can catch :class:`DeviceError` from the QPU layer without accidentally
swallowing programming errors, and the REST middleware can map each
family onto an HTTP-style status code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Circuit / IR layer
# ---------------------------------------------------------------------------


class CircuitError(ReproError):
    """Invalid circuit construction or manipulation."""


class GateError(CircuitError):
    """Unknown gate, wrong arity, or malformed gate parameters."""


class ParameterError(CircuitError):
    """Unbound or wrongly-bound symbolic circuit parameters."""


class SerializationError(CircuitError):
    """Circuit (de)serialization failure."""


# ---------------------------------------------------------------------------
# Simulation layer
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """State-vector engine failure (dimension mismatch, bad channel, ...)."""


class NoiseModelError(SimulationError):
    """Malformed noise channel (non-CPTP Kraus set, bad probability)."""


class EngineModeError(SimulationError, ValueError):
    """Unknown or conflicting simulation-engine mode selection.

    Doubles as a :class:`ValueError` so callers validating configuration
    strings can catch it without importing the simulation layer.
    """


class ResourceAdmissionError(SimulationError):
    """A request was rejected by pre-flight admission control.

    Raised by :func:`repro.simulator.resilience.check_admission` **before
    any state allocation** when an engine's estimated peak memory exceeds
    the active budget (``engine_mode(max_state_bytes=...)``), instead of
    letting the allocation fail (or the OOM killer strike) mid-run.
    Structured so service layers can report and degrade: the offending
    engine, the estimate, the budget, and the circuit width all ride on
    the exception.
    """

    def __init__(
        self,
        message: str,
        *,
        engine: str = "",
        requested_bytes: int = 0,
        budget_bytes: int = 0,
        num_qubits: int = 0,
    ) -> None:
        super().__init__(message)
        self.engine = str(engine)
        self.requested_bytes = int(requested_bytes)
        self.budget_bytes = int(budget_bytes)
        self.num_qubits = int(num_qubits)


# ---------------------------------------------------------------------------
# Device / QPU layer
# ---------------------------------------------------------------------------


class DeviceError(ReproError):
    """QPU device-model failure."""


class TopologyError(DeviceError):
    """Operation applied to a qubit pair without a coupler, or bad index."""


class CalibrationError(DeviceError):
    """Calibration routine failure or use of a stale/absent calibration."""


class DeviceUnavailableError(DeviceError):
    """Device is offline (warming up, in maintenance, or calibrating)."""


# ---------------------------------------------------------------------------
# Compiler layer
# ---------------------------------------------------------------------------


class CompilerError(ReproError):
    """Generic compiler failure."""


class DialectError(CompilerError):
    """Unknown dialect or operation not legal in the given dialect."""


class LoweringError(CompilerError):
    """A lowering pass could not make progress."""


class TranspilationError(CompilerError):
    """Routing / placement / decomposition failure."""


# ---------------------------------------------------------------------------
# QDMI layer
# ---------------------------------------------------------------------------


class QDMIError(ReproError):
    """Device-management-interface failure."""


class PropertyNotSupportedError(QDMIError):
    """The queried QDMI property is not supported by the device."""


class SessionError(QDMIError):
    """QDMI session misuse (closed session, double-open, ...)."""


# ---------------------------------------------------------------------------
# Telemetry layer
# ---------------------------------------------------------------------------


class TelemetryError(ReproError):
    """Telemetry store or collector failure."""


class SensorError(TelemetryError):
    """A sensor plugin produced invalid data."""


# ---------------------------------------------------------------------------
# Scheduler layer
# ---------------------------------------------------------------------------


class SchedulerError(ReproError):
    """Resource-manager failure."""


class JobError(SchedulerError):
    """Invalid job specification or illegal job-state transition."""


class ReservationError(SchedulerError):
    """Conflicting or malformed advance reservation."""


class QueueError(SchedulerError):
    """Queue policy failure."""


# ---------------------------------------------------------------------------
# Middleware layer
# ---------------------------------------------------------------------------


class MiddlewareError(ReproError):
    """MQSS-style client/server failure."""


class RoutingError(MiddlewareError):
    """The client could not determine an access path for a job."""


class RestApiError(MiddlewareError):
    """REST emulation failure; carries an HTTP-like status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message


class JobTimeoutError(RestApiError):
    """A client-side wait on a job outlived its tick budget.

    Carries the job id and the last status the client observed, so a
    caller (or an operator reading a log line) can tell a stuck queue
    from a dead job without a second round-trip.
    """

    def __init__(self, job_id: int, last_status: str, max_ticks: int) -> None:
        super().__init__(
            504,
            f"job {job_id} did not finish in {max_ticks} ticks "
            f"(last status: {last_status})",
        )
        self.job_id = int(job_id)
        self.last_status = str(last_status)
        self.max_ticks = int(max_ticks)


class AdapterError(MiddlewareError):
    """A front-end adapter produced an untranslatable program."""


# ---------------------------------------------------------------------------
# Facility layer
# ---------------------------------------------------------------------------


class FacilityError(ReproError):
    """Facility-model failure."""


class SiteSurveyError(FacilityError):
    """Survey data missing or insufficient (e.g. < 25 h temperature log)."""


class CryostatError(FacilityError):
    """Illegal cryostat state transition."""


class OutageError(FacilityError):
    """Outage-injection or recovery-procedure failure."""

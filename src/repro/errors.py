"""Exception hierarchy for the value-prediction reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers embedding the library can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class PredictorError(ReproError):
    """Raised when a value predictor is misused or misconfigured."""


class PredictorConfigError(PredictorError):
    """Raised when a predictor is constructed with invalid parameters."""


class UnknownPredictorError(PredictorError):
    """Raised when the predictor registry is asked for an unknown name."""


class IsaError(ReproError):
    """Base class for errors raised by the ISA substrate."""


class InvalidRegisterError(IsaError):
    """Raised when a register index outside the architectural file is used."""


class InvalidInstructionError(IsaError):
    """Raised when an instruction is malformed (bad operands, bad opcode)."""


class MemoryError_(IsaError):
    """Raised for invalid memory accesses (negative or misaligned address)."""


class ProgramError(IsaError):
    """Raised when a program is structurally invalid (e.g. unknown label)."""


class ExecutionError(IsaError):
    """Raised when execution cannot proceed (e.g. runaway program)."""


class ExecutionLimitExceeded(ExecutionError):
    """Raised when a program exceeds the dynamic instruction budget."""


class TraceError(ReproError):
    """Raised for malformed traces or trace-serialisation failures."""


class WorkloadError(ReproError):
    """Raised when a workload is configured with invalid parameters."""


class UnknownWorkloadError(WorkloadError):
    """Raised when the workload suite is asked for an unknown benchmark."""


class SimulationError(ReproError):
    """Raised when a prediction simulation is configured incorrectly."""


class SweepError(ReproError):
    """Raised when a parameter-sweep specification is invalid."""


class DispatchError(ReproError):
    """Raised when an executor backend cannot complete a dispatch.

    This is an *infrastructure* failure — a worker process died (killed,
    out of memory) before returning its outcome — as opposed to a work
    unit's own exception, which propagates as whatever the task raised."""


class ReportingError(ReproError):
    """Raised when experiment/report generation fails."""


class ArtifactError(ReproError):
    """Raised for reproduction-artifact failures (:mod:`repro.artifact`).

    Covers malformed or missing artifact manifests, ``--only`` selectors
    matching no deliverable, and golden files that cannot be read.  A
    *mismatch* between regenerated numbers and committed goldens is not an
    exception — it is a :class:`repro.artifact.check.CheckReport` with
    per-cell diffs, surfaced through the CLI's exit code."""

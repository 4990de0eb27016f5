"""Exception hierarchy for the PoWiFi reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch library failures without swallowing programming errors such as
``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class CodecError(ReproError):
    """A packet or frame could not be encoded or decoded."""


class TruncatedFrameError(CodecError):
    """The byte buffer ended before the structure being parsed did."""


class ChecksumError(CodecError):
    """A decoded header carried a checksum that does not match its bytes."""


class CircuitError(ReproError):
    """An analog circuit model was driven outside its valid operating range."""


class MediumError(SimulationError):
    """Invalid interaction with the shared wireless medium model."""


class QueueFullError(ReproError):
    """A bounded transmit queue rejected an enqueue."""


class ObservabilityError(ReproError):
    """The metrics/trace instrumentation layer was misused."""


class InjectedFault(ReproError):
    """A fault deliberately fired by the fault-injection subsystem.

    Raised (or simulated) only when a :class:`repro.faults.plan.FaultPlan` armed
    the corresponding fault point — never during normal operation. The
    message always names the fault point so failure records stay
    attributable to the plan that caused them.
    """

"""Exception types raised across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator-specific failures."""


class ZeroNorm(SimulationError):
    """All amplitudes cancelled; the state cannot be normalized."""


class UnknownLabel(SimulationError):
    """A basis label or subsystem name is not declared in the relevant space."""


class SubsystemClash(SimulationError):
    """Two states being combined share a subsystem name."""


class UnknownOutcome(SimulationError):
    """An outcome class name is not part of the observable's partition."""


class EmptyBranch(SimulationError):
    """A projection removed every term (zero-norm branch)."""


class PointerNotReady(SimulationError):
    """The pointer subsystem is not at its ready label (its first) in every term."""


class DuplicateObserver(SimulationError):
    """An observer id is already registered in this universe."""


class AllOutcomesForbidden(SimulationError):
    """No outcome class carries probability mass in the conditional state."""


class OutOfOrderDetermination(SimulationError):
    """A ledger append would break the non-decreasing determination-time order."""


class NotFarField(SimulationError):
    """The momentum detector is too close to the slits for the planar-wave approximation."""


class SingularPoint(SimulationError):
    """An amplitude was requested exactly at a slit location."""


class ConfigError(SimulationError):
    """A CLI flag or config file entry is missing or invalid."""

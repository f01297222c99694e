"""Exception hierarchy shared across the package."""


class NeumannError(Exception):
    """Base class for all package errors."""


class ConfigError(NeumannError):
    """Invalid user configuration (bad spectrum, malformed file, ...)."""


class OffManifoldError(NeumannError):
    """Phase point violates the sphere/tangency constraints beyond tolerance."""


class SingularStratumError(NeumannError):
    """Operation requested on a singular stratum where regular coordinates fail."""


class NumericalFailure(NeumannError):
    """A numerical procedure did not converge or detected an ill-posed input."""


class BlowUpDetected(NumericalFailure):
    """A trajectory stopped being finite or escaped past a bound in finite time.

    Reduced motion with a negative coupling does so near xi_sigma = 0.
    """

    def __init__(self, time, message=""):
        self.time = time
        super().__init__(message or f"solution blow-up detected at t={time:.6g}")

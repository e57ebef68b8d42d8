"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError` so
callers can catch the whole family with one handler.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError, ValueError):
    """A tensor or convolution shape is inconsistent or unsupported."""


class CodegenError(ReproError):
    """A code generator could not produce a kernel for the request."""


class CheckError(ReproError):
    """Static verification found errors or an analyzer could not run.

    Raised by :mod:`repro.check` when a generated kernel, network graph or
    runtime construct fails verification; the message names the offending
    ConvSpec, instruction or slice so the failure is actionable.
    """


class PlanError(ReproError):
    """An execution plan is invalid or refers to unknown engines."""


class InjectedFault(ReproError):
    """A fault raised on purpose by :mod:`repro.resilience.faults`.

    Carries the injection site and invocation index so retry handlers and
    tests can tell deliberate chaos from organic failures.
    """

    def __init__(self, site: str, invocation: int, message: str = ""):
        self.site = site
        self.invocation = invocation
        text = message or f"injected fault at {site!r} (invocation {invocation})"
        super().__init__(text)


class MachineModelError(ReproError):
    """The machine model was asked to time an impossible work item."""

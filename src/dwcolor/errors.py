"""Exception types shared across the package."""


class DwcError(Exception):
    """Base class for all errors raised by this package."""


class MalformedEdge(DwcError):
    """Edge is a self-loop or has an endpoint outside the vertex range."""


class DuplicateEdge(DwcError):
    """The same edge was supplied more than once."""


class InvalidWeight(DwcError):
    """Vertex weights must be integers >= 1."""


class ArityMismatch(DwcError):
    """Weight list length does not match the vertex count."""


class InvalidVertex(DwcError):
    """Vertex id outside 0..n-1."""


class InvalidColoring(DwcError):
    """Color classes do not partition the vertex set."""


class InvalidInterval(DwcError):
    """Interval with left endpoint greater than right endpoint."""


class InstanceTooLarge(DwcError):
    """Instance exceeds the configured size cap of an exponential routine."""


class PreconditionViolated(DwcError):
    """Caller violated a documented precondition."""


class NonMaximalAntimatchingWitness(DwcError):
    """Residual-clique structure contradicts maximality of the supplied antimatching.

    Raised when class analysis finds a configuration that would allow the
    antimatching to be enlarged, i.e. the caller's antimatching was not maximum.
    """


class ClaimViolation(DwcError):
    """A structural audit check failed.

    ``check`` names the failed check.
    """

    def __init__(self, check: str, message: str = ""):
        self.check = check
        super().__init__(f"{check}: {message}" if message else check)


class TrivialBudget(DwcError):
    """Set-cover budget at least the universe size; the instance is trivial."""


class MalformedInstance(DwcError):
    """Structurally invalid instance data (e.g. empty set-cover family)."""


class FormatError(DwcError):
    """Instance file does not conform to its format."""

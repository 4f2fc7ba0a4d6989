"""Exception types shared across the package."""


class GraphCleanError(Exception):
    """Base class for all errors raised by this package.

    exit_code is the command line's exit status for the error: 1
    infeasible, 2 bad input, 3 over a size cap, 5 (the default) a
    failed internal check.
    """

    exit_code = 5


class InvalidParameterError(GraphCleanError, ValueError):
    """A family or solver parameter is outside its accepted range."""

    exit_code = 2


class ParseError(GraphCleanError, ValueError):
    """A text input could not be parsed; the message names the line."""

    exit_code = 2

    def __init__(self, line_no: int, message: str, source: str | None = None):
        self.line_no = line_no
        self.message = message
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}line {line_no}: {message}")


class InvalidInputError(GraphCleanError, ValueError):
    """Inputs are mutually inconsistent (sizes, ids, infeasible cleanings)."""

    exit_code = 2


class InvalidSequenceError(GraphCleanError, ValueError):
    """A cleaning sequence repeats, omits or misnames vertices."""

    exit_code = 2


class InfeasibleStepError(GraphCleanError):
    """A simulation step fired a vertex holding fewer brushes than it owes."""

    exit_code = 1

    def __init__(self, vertex: int, have: int, need: int):
        self.vertex = vertex
        self.have = have
        self.need = need
        super().__init__(
            f"vertex {vertex} holds {have} brushes but faces {need} dirty edges"
        )


class TooLargeError(GraphCleanError):
    """The instance exceeds the configured size cap for this solver."""

    exit_code = 3


class PreconditionViolationError(GraphCleanError, ValueError):
    """A structural precondition on the input cleaning does not hold."""

    exit_code = 2


class InternalInconsistencyError(GraphCleanError):
    """A state the construction rules out was reached; diagnostic, not a crash."""

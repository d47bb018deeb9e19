"""Exception types shared by all shellsat modules."""


class ShellsatError(ValueError):
    """Base class for every error raised by this package."""


class MalformedFaceError(ShellsatError):
    """A face listing contains a repeated vertex, or labels are out of order."""


class NotAFaceError(ShellsatError):
    """A referenced face does not belong to the complex."""


class UnsupportedDimensionError(ShellsatError):
    """The operation does not support complexes of this dimension."""


class EmptyComplexError(ShellsatError):
    """A complex with no vertices was supplied where one is required."""


class ParseError(ShellsatError):
    """A text input could not be parsed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PurityError(ShellsatError):
    """The operation requires a pure complex."""


class ConnectivityError(ShellsatError):
    """The operation requires a connected complex or graph."""


class ContainmentError(ShellsatError):
    """A graph is not a spanning subgraph of its host."""


class FlagnessError(ShellsatError):
    """The operation requires a flag complex (every 3-clique spans a triangle)."""


class NotFreeError(ShellsatError):
    """A collapse step names a face that is not free; carries the blocking facet."""

    def __init__(self, message: str, blocking_facet=None):
        self.blocking_facet = blocking_facet
        super().__init__(message)


class CertificateError(ShellsatError):
    """A certificate is semantically invalid for the given subject."""


class MalformedCertificateError(CertificateError):
    """A certificate is structurally broken (wrong coverage, arity or syntax)."""


class ParameterError(ShellsatError):
    """A generator or search parameter is infeasible."""


class OracleBoundError(ShellsatError):
    """An instance exceeds the exhaustive bound of a brute-force oracle."""

"""Exception hierarchy for the qgas package.

Every error raised on purpose by this package derives from QgasError, so
callers (the CLI in particular) can distinguish domain failures from bugs.
"""


class QgasError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QgasError):
    """Matrix/ket dimensions are mismatched, non-square, or outside 1..8."""


class NotHermitianError(QgasError):
    """A matrix required to be Hermitian is not, within tolerance."""


class StateError(QgasError):
    """A statistical matrix violates its invariants (trace one, positive)."""


class PovmError(QgasError):
    """A set of effects does not satisfy the completeness relation."""


class WeightError(QgasError):
    """Mixture weights are non-positive or do not sum to one."""


class EmbeddingError(QgasError):
    """An observer sector does not realize the whole observer space, so
    observer-space membranes cannot be lifted to the lab."""


class DomainError(QgasError):
    """A scalar argument is outside its physical domain."""


class UnknownChamberError(QgasError):
    """A chamber name does not exist in the lab state."""


class EmptyChamberError(QgasError):
    """An operation needs gas contents but the chamber holds none."""


class IndistinguishableError(QgasError):
    """The given membranes cannot tell the two chambers' contents apart,
    so they cannot reversibly merge them."""


class UnitaryError(QgasError):
    """A ket mapping does not extend to a unitary on the lab space."""


class BasisError(QgasError):
    """Table kets do not form the orthonormal basis an observer requires."""


class SectorError(QgasError):
    """Observer table rows admit no valid grouping into sectors."""


class ShapeError(QgasError):
    """Two lab states cannot be compared chamber by chamber."""


class UnknownCheckpointError(QgasError):
    """A checkpoint label was never recorded in the ledger."""


class ParseError(QgasError):
    """Protocol source rejected; points at the offending token."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        self.line = line
        self.column = column
        self.message = message
        self.token = token
        where = f"line {line}, column {column}"
        if token:
            super().__init__(f"{where}: {message} (at {token!r})")
        else:
            super().__init__(f"{where}: {message}")


class ProtocolRuntimeError(QgasError):
    """A protocol step failed while executing; carries the step index.

    A negative step index marks a failure while processing declarations.
    """

    def __init__(self, step_index: int, line: int, message: str):
        self.step_index = step_index
        self.line = line
        if step_index < 0:
            super().__init__(f"declaration (line {line}): {message}")
        else:
            super().__init__(f"step {step_index} (line {line}): {message}")


class AssertClosedError(QgasError):
    """An assert-closed step found the cycle open for its observer."""

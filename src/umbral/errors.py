"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DivisionByNonUnit(EngineError):
    """Series division by a series with zero constant term."""


class CompositionNonNilpotent(EngineError):
    """Composition f(g) with g(0) != 0."""


class NotReversible(EngineError):
    """Reversion of a series with f(0) != 0 or f'(0) == 0."""


class NonUnitBase(EngineError):
    """Fractional power of a series whose constant term is not 1."""


class DiagSingular(EngineError):
    """Diagonal-sequence ratio hit a zero or pole below the working order."""

    def __init__(self, index, detail=""):
        self.index = index
        super().__init__(f"diagonal ratio singular at index {index}" + (f": {detail}" if detail else ""))


class NotInvertible(EngineError):
    """Operator inversion outside the triangular / nonzero-diagonal case."""


class ReliabilityExhausted(EngineError):
    """Truncation losses left no trustworthy block to work on."""


class DegenerateB(EngineError):
    """Continued-fraction extraction hit b == 0 (finitely supported functional)."""

    def __init__(self, depth):
        self.depth = depth
        super().__init__(f"b = 0 at depth {depth}")


class OrderExhausted(EngineError):
    """A computation needs more series coefficients than are known."""


class NodeAtZeroOfP(EngineError):
    """Kernel-deformation point is a zero of one of the polynomials."""


class SingularParams(EngineError):
    """Family parameters violate an invertibility guard."""

    def __init__(self, guard, detail=""):
        self.guard = guard
        super().__init__(f"{guard} invalid" + (f": {detail}" if detail else ""))


class EvaluationDomain(EngineError):
    """Numeric evaluation requested outside the documented safe region."""


class NonpositiveArgument(EngineError):
    """Logarithm of a nonpositive exact value."""

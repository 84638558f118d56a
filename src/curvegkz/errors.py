"""Shared exception types."""


class MatrixValidationError(ValueError):
    """Raised when an exponent list does not describe an admissible curve matrix.

    The ``reason`` attribute is a stable machine-readable code, one of
    ``"too-short"``, ``"first-not-zero"``, ``"non-monotone"``, ``"gcd"``.
    """

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class SeriesDenominatorError(ArithmeticError):
    """A series coefficient has a vanishing denominator.

    Carries the kernel vector ``u`` and the coordinate ``i`` whose factor
    vanished; callers discard the offending starting exponent.
    """

    def __init__(self, u, coordinate):
        super().__init__(f"zero denominator at coordinate {coordinate} for step {u}")
        self.u = u
        self.coordinate = coordinate


class BasisCountError(ArithmeticError):
    """The solutions assembled at a parameter point do not form a basis:
    their number differs from the rank there, or two of them coincide.

    Carries ``basis``, the SolutionBasis as assembled, so a caller can still
    check the solutions it holds.
    """

    def __init__(self, message, basis):
        super().__init__(message)
        self.basis = basis


class PolarLineError(ArithmeticError):
    """A shift recursion hit a parameter on a polar line (zero denominator)."""


class LogObstructionError(ValueError):
    """A parametric derivative would produce logarithmic terms.

    Raised when some coefficient does not vanish to the requested order at the
    evaluation point.
    """

    def __init__(self, offset, order_found, order_needed):
        super().__init__(
            f"coefficient at offset {offset} vanishes to order {order_found}, "
            f"need at least {order_needed}"
        )
        self.offset = offset
        self.order_found = order_found
        self.order_needed = order_needed


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested accuracy."""

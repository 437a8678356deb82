"""Exception types shared across the package."""


class NotDivisible(ArithmeticError):
    """Exact division failed: the divisor does not divide the dividend."""


class NonInvertibleImage(ValueError):
    """A variable with a negative exponent was substituted by a non-monomial."""


class NotSymmetric(ValueError):
    """A polynomial that must be symmetric in z1..zk is not."""


class ArityTooSmall(ValueError):
    """An operation was applied to an element of insufficient arity."""


class IdentityViolated(AssertionError):
    """An identity that the kernel guarantees failed to hold (internal fault)."""


class ExprSyntaxError(ValueError):
    """Parse failure, with the character offset of the offending token."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class ArityMismatch(ValueError):
    """Expression combines shuffle elements of incompatible arities."""

    def __init__(self, position: int, message: str):
        super().__init__(f"at position {position}: {message}")
        self.position = position

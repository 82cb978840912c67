"""Exception types shared across the package."""


class CsdcircError(Exception):
    """Base class for all csdcirc errors."""


class NotSquareError(CsdcircError):
    pass


class NotUnitaryError(CsdcircError):
    def __init__(self, residual, tol):
        super().__init__(f"matrix is not unitary: residual {residual:.3e} exceeds {tol:.3e}")
        self.residual = residual


class ShapeMismatchError(CsdcircError):
    pass


class NumericalFailureError(CsdcircError):
    def __init__(self, residual, tol):
        super().__init__(
            f"decomposition failed: reconstruction residual {residual:.3e} exceeds {tol:.3e}"
        )
        self.residual = residual


class OutOfRangeError(CsdcircError):
    pass


class NotRealDecompositionError(CsdcircError):
    pass


class BadQubitIndexError(CsdcircError):
    pass


class CircuitTooLargeError(CsdcircError):
    pass


class LengthMismatchError(CsdcircError):
    pass


class TextSyntaxError(CsdcircError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadPayloadLengthError(TextSyntaxError):
    pass


class JsonFormatError(CsdcircError):
    """A JSON circuit or matrix file whose structure or values are malformed."""


class IsolatedNodeError(CsdcircError):
    pass


class AsymmetricAdjacencyError(CsdcircError):
    pass


class VerifyFailedError(CsdcircError):
    def __init__(self, residual, tol):
        super().__init__(f"verification failed: residual {residual:.3e} exceeds {tol:.3e}")
        self.residual = residual

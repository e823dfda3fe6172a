"""Shared exception types."""


class ValidationError(ValueError):
    """An argument or model parameter violates a documented precondition."""


class BitFormatError(ValidationError):
    """Malformed bit-file input.  ``offset`` is the byte offset of the defect."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DegenerateSourceError(ValidationError):
    """The source puts zero mass on every string that normalizes to the requested length."""


class ConvergenceError(RuntimeError):
    """An iterative routine hit its iteration cap, ``iterations``, on the
    incomplete-beta parameters ``a``, ``b`` and ``x``."""

    def __init__(self, message, a, b, x, iterations):
        super().__init__(message)
        self.a, self.b, self.x, self.iterations = a, b, x, iterations

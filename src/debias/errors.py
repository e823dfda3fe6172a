"""Shared exception types, and the two argument checks every module uses:
:func:`_integer` for an ``int`` or numpy integer (never a float) and
:func:`_interval` for a real, which NaN always fails."""

import math
import operator


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


def _integer(name: str, v, least: int, most: int | None = None, limit: str | None = None) -> int:
    """``v`` as an ``int`` (a numpy uint would wrap on ``-v``) if it is an ``int``
    or numpy integer from ``least`` to ``most`` (None: no upper end); ``limit``
    names ``most`` in the message: ``"m = 27 exceeds the enumeration guard 26"``."""
    try:
        i = operator.index(v)  # refuses floats, NaN and inf among them
    except TypeError:
        i = None
    else:
        if least <= i and (most is None or i <= most):
            return i
    if most is None:
        raise ValidationError(f"{name} must be an integer >= {least}, got {v!r}")
    if limit is not None and i is not None and i > most:
        raise ValidationError(f"{name} = {i} exceeds {limit}")
    raise ValidationError(f"{name} must be an integer in [{least}, {limit or most}], got {v!r}")


def _interval(name: str, v, lo, hi, ends: str = "()") -> None:
    """Raise unless ``lo < v < hi``, with ``[`` or ``]`` in ``ends`` making
    that end ``<=``; NaN fails every interval.  With ``hi = inf`` the message
    reads ``"must be finite and >= lo"`` (or ``"must be >= lo"`` for ``]``)."""
    if ((lo <= v) if ends[0] == "[" else (lo < v)) and ((v <= hi) if ends[1] == "]" else (v < hi)):
        return
    if hi != math.inf:
        raise ValidationError(f"{name} must lie in {ends[0]}{lo},{hi}{ends[1]}, got {v}")
    below = f"{'>=' if ends[0] == '[' else '>'} {lo}"
    raise ValidationError(f"{name} must be {'finite and ' if ends[1] == ')' else ''}{below}, got {v}")

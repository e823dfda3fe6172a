"""What the command-line parser and the argument guards need, without numpy:
the drift parameters, the choices of the enumerated options and the
enumeration guard.  Besides ``cli``, ``debias tv`` and ``debias calibrate``
load only this module, ``errors`` and ``bounds``."""

import math
from collections import namedtuple

from .errors import _integer, _interval

TRAJECTORIES = ("walk", "sine", "fixed", "adversarial")
METHODS = ("vn", "peres", "parity")
MODES = ("non-overlapping", "overlapping")
FORMATS = ("ascii", "packed")  # of a bit file

MAX_ENUM_N = 26
_GUARD = f"the enumeration guard {MAX_ENUM_N}"


def _check_enum_guard(n: int, what: str = "n", least: int = 0) -> int:
    """``n`` as an ``int`` from ``least`` to MAX_ENUM_N."""
    return _integer(what, n, least, MAX_ENUM_N, _GUARD)


class DriftParams(namedtuple("DriftParams", "p0 beta delta")):
    """Base zero-probability p0 with drift amplitude bound beta and speed
    bound delta.  A named tuple rather than a dataclass: ``dataclasses``
    loads ``inspect``, about 8 ms of every fresh ``debias tv`` process."""

    __slots__ = ()

    def __new__(cls, p0: float, beta: float, delta: float):
        _interval("p0", p0, 0, 1)
        _interval("beta", beta, 0, math.inf, "[]")  # NaN: "beta must be >= 0"
        _interval("beta", beta, 0, min(p0, 1.0 - p0), "[)")
        _interval("delta", delta, 0, beta, "[]")
        return super().__new__(cls, p0, beta, delta)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def p1(self) -> float:
        return 1.0 - self.p0

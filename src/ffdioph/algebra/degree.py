"""Degree values: integers plus a dedicated minus-infinity sentinel.

Absolute values on F_q((1/T)) live in the discrete group e**Z together
with 0.  The package never materializes e**k; every magnitude is carried
as its integer logarithm (the degree), and |0| = 0 is the sentinel
NEG_INF.  The sentinel orders below every int, absorbs addition, and is
a singleton so `is NEG_INF` checks are safe.
"""

from __future__ import annotations


class _NegInf:
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ffdioph.NEG_INF")

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate -inf degree")


NEG_INF = _NegInf()

Degree = "int | _NegInf"  # documentation alias; no typing dependency


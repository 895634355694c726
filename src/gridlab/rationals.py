"""The rational numbers Q, the one coefficient field of characteristic 0:
`Rationals` and its one instance `QQ`.

This is the only module that imports `fractions`, and with it `decimal`.
It is reached through the module (`from . import rationals`), on a Q path
only, so a process over F_p or F_{p^s} compiles and imports neither.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, MalformedExpression, MixedFields
from .primefields import Field, FieldElem


class Rationals(Field):
    kind = "rationals"
    characteristic = 0

    def coerce(self, x) -> Fraction:
        if isinstance(x, FieldElem):
            if x.field != self:
                raise MixedFields("cannot coerce from another field")
            return x.val
        return Fraction(x)

    def _zero(self):
        return Fraction(0)

    def _one(self):
        return Fraction(1)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def coeff_str(self, a: Fraction) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def coeff_from_str(self, s: str) -> Fraction:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise MalformedExpression(f"coefficient {s!r} has a zero denominator") from None
        except ValueError:
            raise MalformedExpression(f"coefficient {s!r} is not a rational number") from None

    def descriptor(self):
        return {"kind": "rationals"}

    def descriptor_key(self):
        return ("rationals",)

    def short_name(self):
        return "QQ"


QQ = Rationals()

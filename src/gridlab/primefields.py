"""The bottom layer of the coefficient fields: the prime fields F_p.

Field elements, the common `Field` surface, dense univariate polynomials
over any field, the enumeration budget, a deterministic primality test,
the base-p digits that number field elements and points, exact rank and
primitive roots.  Q is `gridlab.rationals`', the extension fields F_{p^s}
are `gridlab.extfields`', and `gridlab.fields` names a field by its
descriptor; a process over F_p compiles neither, and imports no
`fractions`.
"""

from __future__ import annotations

import os
from math import gcd

from .errors import (
    BudgetExceeded,
    DivisionByZero,
    MalformedExpression,
    MixedFields,
    UnsupportedParameters,
    WrongField,
)


DEFAULT_BUDGET = 10**8


def enumeration_budget() -> int:
    return int(os.environ.get("GRIDLAB_BUDGET", DEFAULT_BUDGET))


def check_budget(count: int, what: str) -> int:
    """`count` when the enumeration budget admits it; otherwise
    BudgetExceeded, "<what>, over budget <limit>"."""
    limit = enumeration_budget()
    if count > limit:
        raise BudgetExceeded(f"{what}, over budget {limit}")
    return count


# Miller-Rabin to the first 13 prime bases proves primality below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test; UnsupportedParameters above the bound
    where the fixed bases are proven to decide."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise UnsupportedParameters(
            f"{n} is beyond the proven range of the primality test"
        )
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldElem:
    """An element of a field, in canonical reduced form.

    Immutable; arithmetic delegates to the owning field object. Mixing
    elements of different fields raises MixedFields.
    """

    __slots__ = ("field", "val")

    def __init__(self, field: "Field", val):
        self.field = field
        self.val = val

    def _check(self, other) -> "FieldElem":
        if not isinstance(other, FieldElem):
            return self.field.elem(other)
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field._add(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field._sub(self.val, other.val))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field._mul(self.val, other.val))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(self.field, self.field._neg(self.val))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._check(other) / self

    def inv(self) -> "FieldElem":
        return FieldElem(self.field, self.field._inv(self.val))

    def __pow__(self, e: int) -> "FieldElem":
        """Square-and-multiply on the raw values, wrapped once at the end."""
        if e < 0:
            return self.inv() ** (-e)
        field, base = self.field, self.val
        mul, result = field._mul, field._one()
        while True:
            if e & 1:
                result = mul(result, base)
            e >>= 1
            if not e:
                return FieldElem(field, result)
            base = mul(base, base)

    def is_zero(self) -> bool:
        return self.field._is_zero(self.val)

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.field == other.field and self.val == other.val

    def __hash__(self):
        return hash((id(self.field.__class__), self.field.descriptor_key(), self.val))

    def __repr__(self):
        return f"{self.field.short_name()}({self.field.coeff_str(self.val)})"


class Field:
    """Common surface of the three coefficient domains."""

    kind: str
    characteristic: int

    def elem(self, x) -> FieldElem:
        return FieldElem(self, self.coerce(x))

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, self._zero())

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, self._one())

    def elements(self):
        """Iterate over all field elements (finite fields only)."""
        raise WrongField("infinite field")

    def descriptor(self) -> dict:
        raise NotImplementedError

    def descriptor_key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Field)
            and self.descriptor_key() == other.descriptor_key()
        )

    def __hash__(self):
        return hash(self.descriptor_key())

    def __repr__(self):
        return self.short_name()


def _int_literal(s: str) -> int:
    """The integer written `s`; MalformedExpression when it is none."""
    try:
        return int(s)
    except ValueError:
        raise MalformedExpression(f"coefficient {s!r} is not an integer") from None


class PrimeField(Field):
    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise UnsupportedParameters(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def coerce(self, x) -> int:
        if isinstance(x, FieldElem):
            if x.field != self:
                raise MixedFields("cannot coerce from another field")
            return x.val
        den = getattr(x, "denominator", 1)  # a fraction's, read without naming its type
        if den == 1:
            return int(x) % self.p
        if den % self.p == 0:
            raise DivisionByZero("denominator divisible by p")
        return x.numerator * pow(den, -1, self.p) % self.p

    def _zero(self):
        return 0

    def _one(self):
        return 1

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def elements(self):
        for a in range(self.p):
            yield FieldElem(self, a)

    def coeff_str(self, a: int) -> str:
        return str(a)

    def coeff_from_str(self, s: str) -> int:
        return _int_literal(s) % self.p

    def descriptor(self):
        return {"kind": "prime", "p": self.p}

    def descriptor_key(self):
        return ("prime", self.p)

    def short_name(self):
        return f"F{self.p}"


class DenseUnivariate:
    """Dense univariate polynomials over `field`: lists of its raw values,
    low degree first, with no trailing zero."""

    def __init__(self, field: Field):
        self.field = field
        self.add, self.sub, self.mul = field._add, field._sub, field._mul
        self.inv, self.is_zero = field._inv, field._is_zero
        self.zero, self.one = field._zero(), field._one()

    def trim(self, f: list) -> list:
        is_zero = self.is_zero
        while f and is_zero(f[-1]):
            f.pop()
        return f

    def value(self, f: list, x):
        """f(x) by Horner."""
        add, mul = self.add, self.mul
        acc = self.zero
        for c in reversed(f):
            acc = add(mul(acc, x), c)
        return acc

    def scale(self, f: list, c) -> list:
        mul = self.mul
        return [mul(k, c) for k in f]

    def plus(self, f: list, g: list) -> list:
        if len(f) < len(g):
            f, g = g, f
        add = self.add
        out = f[:]
        for i, c in enumerate(g):
            out[i] = add(out[i], c)
        return self.trim(out)

    def product(self, f: list, g: list) -> list:
        if not f or not g:
            return []
        add, mul = self.add, self.mul
        out = [self.zero] * (len(f) + len(g) - 1)
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                out[i + j] = add(out[i + j], mul(fi, gj))
        return self.trim(out)

    def divmod(self, f: list, g: list) -> tuple:
        """Quotient and remainder of f by a nonzero g."""
        sub, mul, is_zero = self.sub, self.mul, self.is_zero
        r = f[:]
        dg = len(g) - 1
        if len(r) <= dg:
            return [], r
        lead_inv = self.inv(g[-1])
        q = [self.zero] * (len(r) - dg)
        for i in range(len(q) - 1, -1, -1):
            c = r[i + dg]
            if is_zero(c):
                continue
            c = q[i] = mul(c, lead_inv)
            for j in range(dg):
                r[i + j] = sub(r[i + j], mul(c, g[j]))
        del r[dg:]
        return q, self.trim(r)

    def monic(self, f: list) -> list:
        if not f or f[-1] == self.one:
            return f
        return self.scale(f, self.inv(f[-1]))

    def ugcd(self, f: list, g: list) -> list:
        """Monic gcd of two lists by Euclid; [] only when both are zero."""
        while g:
            f, g = g, self.divmod(f, g)[1]
        return self.monic(f)


def base_digits(k: int, p: int, s: int) -> tuple:
    """The s base-p digits of 0 <= k < p^s, most significant first: the
    s-tuple of residues mod p at index k in lexicographic order.  The one
    numbering of field elements (`extfields.ExtensionField.elements`),
    modulus candidates (`extfields.canonical_modulus`) and chart points
    (`projective.chart_point`)."""
    digits = [0] * s
    for i in range(s - 1, -1, -1):
        k, digits[i] = divmod(k, p)
    return tuple(digits)


# -- linear algebra over a field -----------------------------------------------

def matrix_rank(rows: list, field: Field) -> int:
    """Exact rank by forward elimination over the coefficient field; the
    entries are field elements or anything `field.coerce` accepts."""
    m = [[field.coerce(c) for c in row] for row in rows]
    is_zero, mul, sub = field._is_zero, field._mul, field._sub
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next(
            (i for i in range(rank, len(m)) if not is_zero(m[i][col])), None
        )
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        inv = field._inv(top[col])
        for row in m[rank + 1 :]:
            # entries left of `col` are already zero below the pivot
            if not is_zero(row[col]):
                factor = mul(row[col], inv)
                row[col:] = [
                    sub(c, mul(factor, d)) for c, d in zip(row[col:], top[col:])
                ]
        rank += 1
        if rank == len(m):
            break
    return rank


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no factor below 100, by
    Pollard's rho: x -> x^2 + c from x = 2, for c = 1, 2, ... until one
    splits n."""
    c = 0
    while True:
        c += 1
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def _prime_factors(n: int) -> set:
    """The prime factors of n >= 1: those below 100 by trial division, then
    each part proved prime by `is_prime` or split by `_rho_factor`.  Rho's
    cost grows with the square root of a part's smallest prime factor, so a
    large prime factor costs one primality test."""
    factors = set()
    for q in range(2, 100):
        if n % q == 0:
            factors.add(q)
            while n % q == 0:
                n //= q
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            factors.add(m)
        else:
            d = _rho_factor(m)
            parts += [d, m // d]
    return factors


def primitive_root(p: int) -> int:
    """The smallest generator of F_p^*, p prime."""
    factors = _prime_factors(p - 1)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))

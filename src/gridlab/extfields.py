"""Extension fields F_{p^s} = F_p[b]/(modulus), s >= 2, with the norm and
the isomorphism pi_s.

The modulus is by default the canonical one: the lexicographically
smallest monic irreducible polynomial of degree s over F_p, coefficients
compared low-degree-first, found by Rabin's irreducibility test.
Elements are coefficient vectors in the basis 1, b, ..., b^(s-1), which is
exactly the basis the linear isomorphism pi_s uses.
Each extension field keeps the matrix of the F_p-linear Frobenius map
a -> a^p: the norm is the product of the conjugates a, a^p, ..., a^(p^(s-1))
(the power formula's value) and an inverse is the product of all but a over
the norm, at s-1 matrix applications each instead of ~2 s log2(p) products.
`gridlab.fields.GF` reaches this module only for s >= 2.
"""

from __future__ import annotations

from operator import mul as _times

from .errors import (
    CoefficientNotInPrimeField,
    DimensionMismatch,
    DivisionByZero,
    MixedFields,
    UnsupportedParameters,
    WrongField,
)
from .primefields import (
    DenseUnivariate,
    Field,
    FieldElem,
    PrimeField,
    _int_literal,
    _prime_factors,
    base_digits,
    check_budget,
)


def _rabin_cost(p: int, deg: int) -> int:
    """The coefficient multiplications of `_is_irreducible` on a modulus of
    degree `deg` over F_p: deg powerings by p of bit_length(p) squarings and
    bit_count(p) multiplications, each a product and a reduction of deg^2
    coefficient multiplications."""
    return 2 * deg**3 * (p.bit_length() + p.bit_count())


def _is_irreducible(m: tuple, p: int) -> bool:
    """Rabin's test of m, of degree n >= 2: m is irreducible over F_p iff
    x^(p^n) = x mod m and gcd(x^(p^(n/q)) - x, m) = 1 for each prime q | n,
    at the cost of `_rabin_cost`, which its callers charge to the budget."""
    n = len(m) - 1
    ring, m, x = DenseUnivariate(PrimeField(p)), list(m), [0, 1]

    def times(f, g):
        return ring.divmod(ring.product(f, g), m)[1]

    frob = [x]  # frob[k] = x^(p^k) mod m
    for _ in range(n):
        acc, base, e = [1], frob[-1], p
        while e:
            if e & 1:
                acc = times(acc, base)
            base, e = times(base, base), e >> 1
        frob.append(acc)
    return frob[n] == x and all(
        len(ring.ugcd(ring.plus(frob[n // q], [0, p - 1]), m)) == 1 for q in _prime_factors(n)
    )


def canonical_modulus(p: int, s: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree s over F_p.

    Coefficient tuples are compared low-degree-first, so the order of
    `base_digits` is the comparison order.  A candidate with constant term
    0 is divisible by b, so the search starts at constant term 1, index
    p^(s-1).  Each candidate's test is charged to the budget before the
    candidate is decoded: a search is refused when the tests so far would
    exceed it, and before any candidate when one test would."""
    if s < 2:
        raise UnsupportedParameters("s must be at least 2")
    cost = _rabin_cost(p, s)
    for tried, k in enumerate(range(p ** (s - 1), p**s), 1):
        check_budget(tried * cost, f"the modulus search for F_{p}^{s} needs {tried * cost}"
                     f" coefficient multiplications by candidate {tried}")
        m = base_digits(k, p, s) + (1,)
        if _is_irreducible(m, p):
            return m
    raise UnsupportedParameters(f"no irreducible of degree {s} over F_{p}")


class ExtensionField(Field):
    """F_{p^s} = F_p[b]/(modulus); elements are length-s coefficient tuples."""

    kind = "extension"

    def __init__(self, p: int, s: int, modulus: tuple | None = None):
        self.prime_subfield = PrimeField(p)  # refuses a p that is not prime
        if s < 2:
            raise UnsupportedParameters("s must be at least 2; GF(p) is the prime field")
        self.p = p
        self.s = s
        self.characteristic = p
        # the tables below take s - 1 reductions of at most s^2 coefficient
        # multiplications, then b^p by square-and-multiply and s - 1 more
        # products in F_{p^s}, each 2 s^2; charged with one irreducibility
        # test before either, and a modulus search is charged by itself
        cost = s * s * (3 * s + 2 * (p.bit_length() + p.bit_count())) + _rabin_cost(p, s)
        check_budget(cost, f"F_{p}^{s} needs {cost} coefficient multiplications for its"
                     " tables and one irreducibility test")
        if modulus is None:
            modulus = canonical_modulus(p, s)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise UnsupportedParameters("modulus must be monic of degree s")
            if not _is_irreducible(modulus, p):
                raise UnsupportedParameters("modulus is reducible")
        self.modulus = modulus
        # reduction table: _red[k] = b^(s+k) in the power basis, k = 0..s-2
        ring, self._red = DenseUnivariate(self.prime_subfield), []
        for k in range(s - 1):
            r = ring.divmod([0] * (s + k) + [1], list(modulus))[1]
            self._red.append(tuple(r) + (0,) * (s - len(r)))
        # the Frobenius matrix by columns: _frob[k][j] = coordinate k of
        # (b^j)^p = (b^p)^j
        bp = (self.generator ** p).val
        rows = [self._one()]
        for _ in range(s - 1):
            rows.append(self._mul(rows[-1], bp))
        self._frob = tuple(zip(*rows))

    def coerce(self, x) -> tuple:
        if isinstance(x, FieldElem):
            if x.field == self:
                return x.val
            if isinstance(x.field, PrimeField) and x.field.p == self.p:
                return (x.val,) + (0,) * (self.s - 1)
            raise MixedFields("cannot coerce from another field")
        if isinstance(x, (tuple, list)):
            if len(x) != self.s:
                raise DimensionMismatch(f"need {self.s} coordinates")
            return tuple(int(c) % self.p for c in x)
        return (int(x) % self.p,) + (0,) * (self.s - 1)

    @property
    def generator(self) -> FieldElem:
        return FieldElem(self, (0, 1) + (0,) * (self.s - 2))

    def _zero(self):
        return (0,) * self.s

    def _one(self):
        return (1,) + (0,) * (self.s - 1)

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def _mul(self, a, b):
        p, s = self.p, self.s
        prod = [0] * (2 * s - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = [c % p for c in prod[:s]]
        for k in range(s, 2 * s - 1):
            c = prod[k] % p
            if c:
                red = self._red[k - s]
                for i in range(s):
                    out[i] = (out[i] + c * red[i]) % p
        return tuple(out)

    def _conjugates(self, a):
        """Frob(a) * Frob^2(a) * ... * Frob^(s-1)(a), the conjugates of a
        other than a itself; a times it is the norm of a."""
        p, frob = self.p, self._frob
        prod = None
        for _ in range(self.s - 1):
            a = tuple([sum(map(_times, a, col)) % p for col in frob])
            prod = a if prod is None else self._mul(prod, a)
        return prod

    def _inv(self, a):
        rest = self._conjugates(a)
        n = self._mul(a, rest)[0]
        if not n:
            raise DivisionByZero("inverse of zero")
        n = pow(n, -1, self.p)
        return tuple([c * n % self.p for c in rest])

    def _is_zero(self, a):
        return all(c == 0 for c in a)

    def elements(self):
        p, s = self.p, self.s
        for k in range(p**s):
            yield FieldElem(self, base_digits(k, p, s))

    def coeff_str(self, a: tuple) -> str:
        return ",".join(str(c) for c in a)

    def coeff_from_str(self, s: str) -> tuple:
        return self.coerce([_int_literal(c) for c in s.split(",")])

    def descriptor(self):
        return {
            "kind": "extension",
            "p": self.p,
            "s": self.s,
            "modulus": list(self.modulus),
        }

    def descriptor_key(self):
        return ("extension", self.p, self.s, self.modulus)

    def short_name(self):
        return f"F{self.p}^{self.s}"


# -- norm and pi_s -------------------------------------------------------------

def norm(alpha: FieldElem) -> FieldElem:
    """Field norm F_{p^s} -> F_p: the product of the Frobenius conjugates
    alpha, alpha^p, ..., alpha^(p^(s-1)), which is the value of the power
    formula alpha^((p^s-1)/(p-1))."""
    F = alpha.field
    if not isinstance(F, ExtensionField):
        raise WrongField("norm needs an extension-field element")
    val = F._mul(alpha.val, F._conjugates(alpha.val))
    if any(val[1:]):
        raise CoefficientNotInPrimeField("norm left the prime subfield")
    return FieldElem(F.prime_subfield, val[0])


def pi_s(F: ExtensionField, u) -> FieldElem:
    """The F_p-linear isomorphism F_p^s -> F_{p^s}, u -> sum u_i b^(i-1)."""
    if not isinstance(F, ExtensionField):
        raise WrongField("pi_s needs an extension field")
    p = F.p
    coords = tuple((c.val if isinstance(c, FieldElem) else int(c)) % p for c in u)
    if len(coords) != F.s:
        raise DimensionMismatch(f"need {F.s} coordinates")
    return FieldElem(F, coords)

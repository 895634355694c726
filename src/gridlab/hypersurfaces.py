"""The points of P^s over a finite field by index in one budgeted order
(`ChartPoints`), reduction mod p of polynomials, open sets and
hypersurfaces, and the classical K_{s,t}-free constructions over prime
fields with the norm forms they rest on and their candidate symmetries.
Points, open sets and hypersurfaces themselves are `gridlab.projective`'s."""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from math import comb

from .errors import (
    BadCharacteristic,
    BadReduction,
    CoefficientNotInPrimeField,
    UnsupportedParameters,
)
from .fields import GF
from .primefields import check_budget, enumeration_budget, is_prime, primitive_root
from .projective import Hypersurface, OpenSet, chart_point, chart_size
from .ring import MultiPoly, bihomogenize, primitive_integral_model


def chart_codes(cols, p: int) -> list:
    """codes[k] = the index, in the chart's order over F_p
    (`projective.chart_block`), of the point whose coordinates are
    (cols[0][k], ..., cols[s][k]), residues mod p, once it is scaled to
    first nonzero coordinate 1; -1 for the zero vector: the inverse of
    `projective.chart_point`.

    A point with a nonzero first coordinate a has the code of
    t = a^-1 (u1, ..., us) in base p, and one with first coordinate 0 has
    p^s plus its code in P^(s-1)."""
    first, rest = cols[0], cols[1:]
    if first.count(1) == len(first):
        # affine chart points, or their images under an affine map: no
        # scaling, which cuts the affine 1a graph's build by about a third
        if not rest:
            return [0] * len(first)
        codes = rest[0]
        for col in rest[1:]:
            codes = [c * p + u for c, u in zip(codes, col)]
        return list(codes) if codes is rest[0] else codes
    inv = {a: pow(a, -1, p) if a else 0 for a in set(first)}
    scale = [inv[a] for a in first]
    codes = [0] * len(first)
    for col in rest:
        codes = [c * p + u * w % p for c, u, w in zip(codes, col, scale)]
    at_infinity = [k for k, a in enumerate(first) if not a]
    if at_infinity:
        if not rest:
            tail = [-1] * len(at_infinity)
        else:
            tail = chart_codes([[col[k] for k in at_infinity] for col in rest], p)
        size = p ** len(rest)
        for k, c in zip(at_infinity, tail):
            codes[k] = size + c if c >= 0 else -1
    return codes


@lru_cache(maxsize=4)
def chart_columns(p: int, s: int, affine: bool) -> tuple:
    """The s+1 homogeneous coordinate columns of the affine (x0 = 1) or
    projective chart of P^s(F_p) in the chart's order
    (`projective.chart_block`), built from repeated digit runs: in a block
    of p^k points, digit j of the index holds each residue for p^(k-1-j)
    points in a row, p^j times over.  Arrays of the narrowest unsigned type that holds a residue,
    built by C-level repetition and kept for the last few charts, which
    every side of a chart and every graph on it read."""
    code = "B" if p <= 1 << 8 else "H" if p <= 1 << 16 else "Q"
    cols = [array(code) for _ in range(s + 1)]
    for lead in range(1 if affine else s + 1):
        k = s - lead
        for i in range(lead):
            cols[i] += array(code, [0]) * p**k
        cols[lead] += array(code, [1]) * p**k
        for j in range(k):
            digit = array(code)
            for a in range(p):
                digit += array(code, [a]) * p ** (k - 1 - j)
            cols[lead + 1 + j] += digit * p**j
    return tuple(cols)


class ChartPoints(Sequence):
    """Points of the affine or projective chart of P^s(F_p), held as their
    indices in the chart's order and decoded when read
    (`projective.chart_point`): the whole chart when `codes` is None, else
    the chart points with indices `codes`, in that order (sorted for an
    open set).  The chart is counted against the enumeration budget first
    (`projective.chart_size`); nothing is listed.

    Entry i is a residue tuple: the chart coordinates x1..xs on the affine
    chart, all of x0..xs on the projective one.  `point(i)` gives the
    homogeneous coordinates on either chart, and `columns()` the
    homogeneous coordinate columns of all the points, from `chart_columns`."""

    __slots__ = ("p", "s", "affine", "size", "codes")

    def __init__(self, p: int, s: int, chart: str = "projective", codes=None):
        self.size = chart_size(p, s, chart)  # of the whole chart
        self.p, self.s, self.affine, self.codes = p, s, chart == "affine", codes

    def __len__(self) -> int:
        return self.size if self.codes is None else len(self.codes)

    def point(self, i: int) -> tuple:
        """The homogeneous coordinates of vertex i, 0 <= i < len(self)."""
        return chart_point(i if self.codes is None else self.codes[i], self.p, self.s)

    def __getitem__(self, i: int) -> tuple:
        pt = self.point(range(len(self))[i])
        return pt[1:] if self.affine else pt

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def columns(self) -> tuple:
        cols = chart_columns(self.p, self.s, self.affine)
        if self.codes is None:
            return cols
        return [list(map(col.__getitem__, self.codes)) for col in cols]


def reduce_polys_mod(polys: list, p: int) -> list:
    """Reduce polynomials over Q or F_p to F_p coefficients.

    Over Q the whole list is first scaled to its primitive integral model
    (`ring.primitive_integral_model`), one factor for all the polynomials.
    One common factor keeps each zero set and the map that a list of
    components defines; whenever plain coefficient reduction works, the
    factor is a unit mod p."""
    Fp = GF(p)
    for F in polys:
        if F.field != Fp and F.field.characteristic:
            raise BadReduction(f"cannot reduce {F.field} mod {p}")
    # Q is the one field of characteristic 0
    models = iter(primitive_integral_model([F for F in polys if not F.field.characteristic]))
    return [F if F.field == Fp else MultiPoly(Fp, F.vars, next(models)) for F in polys]


def reduce_poly_mod(F: MultiPoly, p: int) -> MultiPoly:
    """Reduce one polynomial over Q or F_p, through its primitive integral
    model, to F_p coefficients."""
    return reduce_polys_mod([F], p)[0]


def reduce_hypersurface_mod(H: Hypersurface, p: int) -> Hypersurface:
    return Hypersurface(reduce_poly_mod(H.poly, p), H.sx, H.sy)


def reduce_open_set_mod(U: OpenSet, p: int) -> OpenSet:
    """U with each excluded form reduced mod p on its own (`reduce_poly_mod`)."""
    return OpenSet(U.dim, [reduce_poly_mod(f, p) for f in U.excluded])


# -- the four constructions ------------------------------------------------------


class Construction:
    __slots__ = ("family", "p", "s", "affine", "hypersurface")

    def __init__(
        self, family: str, p: int, s: int, affine: MultiPoly, hypersurface: Hypersurface
    ):
        self.family = family
        self.p = p
        self.s = s
        self.affine = affine  # in x1..xs, y1..ys over F_p
        self.hypersurface = hypersurface  # its bihomogenization


def smallest_nonresidue(p: int) -> int:
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return a
    raise UnsupportedParameters(f"no quadratic non-residue mod {p}")


def norm_poly(p: int, s: int) -> MultiPoly:
    """The norm form N_s(pi_s(z)) as an F_p-polynomial in z_1..z_s.

    Expanded symbolically as the product of Frobenius conjugates
    prod_i (sum_j z_j * (b^(j-1))^(p^i)) over F_{p^s}; every coefficient of
    the expansion must land in the prime subfield.
    """
    if s == 1:
        return MultiPoly.variable(GF(p), ("z1",), "z1")
    E = GF(p, s)
    zvars = tuple(f"z{j}" for j in range(1, s + 1))
    basis = [E.generator**j for j in range(s)]
    unit = [tuple(int(j == k) for k in range(s)) for j in range(s)]
    factors = [MultiPoly(E, zvars, {unit[j]: basis[j] ** p**i for j in range(s)}) for i in range(s)]
    prod_poly = factors[0]
    for f in factors[1:]:
        prod_poly = prod_poly * f
    out_terms = {}
    for exps, coeff in prod_poly.terms.items():
        if any(coeff[1:]):
            raise CoefficientNotInPrimeField(
                f"coefficient {E.coeff_str(coeff)} at {exps}"
            )
        out_terms[exps] = coeff[0]
    return MultiPoly(GF(p), zvars, out_terms)


# 8-byte words of peak memory per exponent of an expanded norm form: 1c at
# s = 9, 56,241,900 exponents, peaked at 1311 MB, about 23 bytes each
_EXPONENT_WORDS = 3


def _check_norm_expansion(family: str, k: int):
    """Refuse a 1c or 1d construction before its norm form in k variables
    is expanded: with z_j -> x_j + y_j substituted it is a form of degree k
    in 2k variables, so it has at most C(3k-1, k) terms, and each term is
    2k exponents that the expansion computes and stores.  The budget counts
    the memory they take, `_EXPONENT_WORDS` words per exponent: s = 8 is
    admitted under the default budget and s = 9 refused.  C(3k-1, k) >= 2^k,
    so a k of at least the budget's bit length is refused by that bound
    before `comb` is computed."""
    bits = enumeration_budget().bit_length()
    if k >= bits:
        check_budget(1 << bits, f"family {family} expands a norm form into at least 2^{k} terms")
    terms = comb(3 * k - 1, k)
    exponents = 2 * k * terms
    words = _EXPONENT_WORDS * exponents
    check_budget(words, f"family {family} expands a norm form into up to {terms} terms of"
                 f" {2 * k} exponents = {exponents}, {words} words")


def construct(family: str, p: int, s: int | None = None) -> Construction:
    """One of the classical K_{s,t}-free hypersurface constructions over F_p.

    '1a': x1 y1 + x2 y2 = 1 (s = 2).
    '1b': (x1-y1)^2 + (x2-y2)^2 + (x3-y3)^2 = c (s = 3), with c = 1 for
          p = 3 mod 4 and c the smallest quadratic non-residue otherwise.
    '1c': (N_s . pi_s)(x1+y1, ..., xs+ys) = 1, for t >= s! + 1.
    '1d': (N_{s-1} . pi_{s-1})(x2+y2, ..., xs+ys) = x1 y1, for t >= (s-1)! + 1.
    """
    Fp = GF(p)
    if family == "1a":
        if s not in (None, 2):
            raise UnsupportedParameters("family 1a has s = 2")
        s = 2
        vars = ("x1", "x2", "y1", "y2")
        affine = MultiPoly.parse(Fp, vars, "x1*y1 + x2*y2 - 1")
    elif family == "1b":
        if s not in (None, 3):
            raise UnsupportedParameters("family 1b has s = 3")
        if p == 2:
            raise BadCharacteristic("family 1b needs odd characteristic")
        s = 3
        c = 1 if p % 4 == 3 else smallest_nonresidue(p)
        vars = ("x1", "x2", "x3", "y1", "y2", "y3")
        affine = MultiPoly.parse(
            Fp,
            vars,
            f"(x1-y1)**2 + (x2-y2)**2 + (x3-y3)**2 - {c}",
        )
    elif family in ("1c", "1d"):
        if s is None or s < 2:
            raise UnsupportedParameters(f"family {family} needs s >= 2")
        # 1c substitutes z_j -> x_j + y_j, 1d z_j -> x_(j+1) + y_(j+1)
        k = s if family == "1c" else s - 1
        _check_norm_expansion(family, k)
        vars = tuple(f"x{i}" for i in range(1, s + 1)) + tuple(
            f"y{i}" for i in range(1, s + 1)
        )
        sub = {
            f"z{j}": MultiPoly.parse(Fp, vars, f"x{j + s - k} + y{j + s - k}")
            for j in range(1, k + 1)
        }
        affine = norm_poly(p, k).substitute(sub, new_vars=vars)
        affine -= 1 if family == "1c" else MultiPoly.parse(Fp, vars, "x1*y1")
    else:
        raise UnsupportedParameters(f"unknown family {family!r}")
    return Construction(family, p, s, affine, Hypersurface(bihomogenize(affine, s), s, s))


class MatrixPair(namedtuple("MatrixPair", "mx my")):
    """(x, y) -> (M_x x, M_y y) on the homogeneous coordinates x0..xs and
    y0..ys: two (s+1) x (s+1) matrices of integers mod p, tuples of rows.
    The affine map x -> A x + b of the chart x0 = 1 is the matrix
    [[1, 0], [b, A]]."""

    __slots__ = ()


def _norm_one_matrix(p: int, k: int) -> tuple:
    """Multiplication by b^(p-1) on F_p^k = F_{p^k} (the basis of `pi_s`):
    N(b^(p-1)) = N(b)^(p-1) = 1, so the norm form is kept."""
    E = GF(p, k)
    b = E.generator
    alpha = b ** (p - 1)
    cols = [(alpha * b**j).val for j in range(k)]
    return tuple(tuple(col[i] for col in cols) for i in range(k))


def family_symmetries(family, p: int, s: int) -> list:
    """Candidate symmetries of construction `family` over F_p in dimension
    s, as MatrixPairs on homogeneous coordinates that should carry its
    bihomogeneous form to a nonzero multiple of itself.

    '1a': (A, J A^-T J) with J = diag(-1, 1, ..., 1) for the elementary
          transvections A = I + e_a e_b^T of all s+1 coordinates, which
          generate SL(s+1, p) and keep x^T J y = x1 y1 + ... - x0 y0;
    '1b': the translations (x + e_k x0, y + e_k y0), and the coordinate sign
          flip and swaps applied to x and y alike, which keep |x - y|^2;
    '1c': the translations (x + e_k x0, y - e_k y0) and multiplication of x
          and y by a norm-1 element of F_{p^s}, which keep N(x + y);
    '1d': the same in coordinates 2..s, and x1 -> g x1, y1 -> y1 / g.

    1a's transvections that move x0 or y0 are not affine maps of
    x1..xs and y1..ys, and act on the projective chart only; the other maps
    are affine maps of the chart.  These are candidates only:
    `build_graph(..., symmetries=...)` keeps the maps it verifies on the
    graph's own form and vertex lists, so a wrong family, p or s costs
    speed, never correctness.  Anything else gives []."""
    if s < 1 or not is_prime(p):
        return []
    n = s + 1

    def matrix(entries):
        """The identity with entries {(i, j): a} replaced, mod p."""
        return tuple(
            tuple(entries.get((i, j), int(i == j)) % p for j in range(n)) for i in range(n)
        )

    def translation(k, a):
        """x_k -> x_k + a x0."""
        return matrix({(k, 0): a})

    def block(M):
        """diag(1, ..., 1, M) when M acts on the last len(M) coordinates."""
        off = n - len(M)
        return matrix({(off + i, off + j): a for i, row in enumerate(M) for j, a in enumerate(row)})

    maps = []
    if family == "1a":
        # J A^-T J = I - j_a j_b e_b e_a^T, with j_0 = -1 and j_i = 1 otherwise
        sign = [-1] + [1] * s
        for a in range(n):
            for b in range(n):
                if a != b:
                    maps.append(MatrixPair(matrix({(a, b): 1}), matrix({(b, a): -sign[a] * sign[b]})))
    elif family == "1b":
        maps += [MatrixPair(translation(k, 1), translation(k, 1)) for k in range(1, n)]
        linear = [matrix({(1, 1): -1})]
        linear += [matrix({(i, i): 0, (i, i + 1): 1, (i + 1, i): 1, (i + 1, i + 1): 0})
                   for i in range(1, s)]
        maps += [MatrixPair(M, M) for M in linear]
    elif family in ("1c", "1d"):
        first = 1 if family == "1c" else 2
        maps += [MatrixPair(translation(k, 1), translation(k, -1)) for k in range(first, n)]
        if n - first >= 2:
            M = block(_norm_one_matrix(p, n - first))
            maps.append(MatrixPair(M, M))
        g = primitive_root(p) if family == "1d" else 1
        if g != 1:
            maps.append(MatrixPair(matrix({(1, 1): g}), matrix({(1, 1): pow(g, -1, p)})))
    return maps

"""Plane projective curve toolkit: local intersection multiplicity, the
Moura maximal-multiplicity formula, the common-component rank test on
sections and conic classification."""

from __future__ import annotations

import math
from math import comb

from .errors import (
    CharacteristicTwo,
    DegreeTooHigh,
    MixedFields,
    NonTermination,
    PointNotRational,
    WrongDimension,
    ZeroSection,
)
from .primefields import Field, matrix_rank
from .ring import MultiPoly, group_degree
from .projective import Hypersurface, ProjPoint
from .poly import exact_div, gcd

INFINITE = math.inf

_ITERATION_CAP = 10_000


class PlaneCurve:
    """Nonzero homogeneous form in (y0, y1, y2), stored monic."""

    __slots__ = ("form", "degree")

    def __init__(self, form: MultiPoly):
        if form.is_zero():
            raise ZeroSection("a plane curve needs a nonzero form")
        _check_plane(form)
        self.degree = group_degree(form, form.vars)
        self.form = form.monic()

    def __repr__(self):
        return f"PlaneCurve(deg {self.degree})[{self.form!r}]"


def _check_plane(form: MultiPoly):
    if len(form.vars) != 3:
        raise WrongDimension(
            f"a plane curve lives in three homogeneous coordinates, not {len(form.vars)}"
        )


def moura_max(d1: int, d2: int) -> int:
    """Maximal intersection multiplicity at a generic point of an
    irreducible degree-d1 curve with a curve of degree <= d2 not
    containing it."""
    if d1 < 1 or d2 < 1:
        raise DegreeTooHigh("degrees must be positive")
    if d1 > d2:
        return (d2 * d2 + 3 * d2) // 2
    return d1 * d2 - (d1 * d1 - 3 * d1 + 2) // 2


def _embed_poly(F: MultiPoly, field: Field) -> MultiPoly:
    if F.field == field:
        return F
    try:
        field.coerce(F.field.one)  # only F_p embeds, into F_{p^s}
    except MixedFields:
        raise PointNotRational(
            f"curve over {F.field} cannot follow a point into {field}"
        ) from None
    return MultiPoly(field, F.vars, F.terms)


def _local_pair(f: MultiPoly, g: MultiPoly, v: ProjPoint):
    """Dehomogenize both forms, over v's field, in the chart of v's largest
    coordinate and translate v to the origin; returns (f, g, avar, bvar)."""
    field = v.field
    coords = v.raw
    chart = max(
        (i for i, c in enumerate(coords) if not field._is_zero(c)),
        key=lambda i: coords[i] if field.characteristic else abs(coords[i]),
    )
    vars3 = f.vars
    inv = field._inv(coords[chart])
    aff = [field._mul(c, inv) for c in coords]
    keep = [v_ for i, v_ in enumerate(vars3) if i != chart]
    avar, bvar = keep
    f = f.substitute({vars3[chart]: 1}, new_vars=vars3)
    g = g.substitute({vars3[chart]: 1}, new_vars=vars3)
    a = MultiPoly.variable(field, vars3, avar)
    b = MultiPoly.variable(field, vars3, bvar)
    wa = aff[vars3.index(avar)]
    wb = aff[vars3.index(bvar)]
    f = f.substitute({avar: a + wa, bvar: b + wb}, new_vars=vars3)
    g = g.substitute({avar: a + wa, bvar: b + wb}, new_vars=vars3)
    return f, g, avar, bvar


def _univariate_consts(F: MultiPoly, var: str, other: str) -> list:
    """F with `other` set to 0, as a trimmed list of constant coefficients."""
    restricted = F.substitute({other: 0}, new_vars=F.vars)
    coeffs = [c.constant_value() for c in restricted.univariate(var)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def intersection_multiplicity(F: PlaneCurve, G: PlaneCurve, v: ProjPoint):
    """Local intersection number I_v(F, G); INFINITE when the curves share
    a component through v.  Standard axiomatic reduction on affine local
    equations."""
    field = v.field
    f_form = _embed_poly(F.form, field)
    g_form = _embed_poly(G.form, field)
    coords = list(v.coords)
    if not f_form.evaluate(coords).is_zero() or not g_form.evaluate(coords).is_zero():
        return 0
    common = gcd(f_form, g_form)
    if common.degree() > 0:
        if common.evaluate(coords).is_zero():
            return INFINITE
        f_form = exact_div(f_form, common)
        g_form = exact_div(g_form, common)
        # components away from v contribute nothing
        if not f_form.evaluate(coords).is_zero() or not g_form.evaluate(
            coords
        ).is_zero():
            return 0
    return _fulton(*_local_pair(f_form, g_form, v))


def _fulton(f: MultiPoly, g: MultiPoly, avar: str, bvar: str) -> int:
    field = f.field
    total = 0
    for _ in range(_ITERATION_CAP):
        zero_assign = [0 if v_ in (avar, bvar) else 1 for v_ in f.vars]
        if not f.evaluate(zero_assign).is_zero() or not g.evaluate(
            zero_assign
        ).is_zero():
            return total
        f0 = _univariate_consts(f, avar, bvar)
        g0 = _univariate_consts(g, avar, bvar)
        r, s = len(f0) - 1, len(g0) - 1
        if r > s:
            f, g = g, f
            f0, g0 = g0, f0
            r, s = s, r
        if r == -1:
            # f is divisible by the second coordinate
            if s == -1:
                raise NonTermination("unexpected common local factor")
            b = MultiPoly.variable(field, f.vars, bvar)
            h = exact_div(f, b)
            ord_a = next(i for i, c in enumerate(g0) if not c.is_zero())
            total += ord_a
            f = h
            continue
        # lower the restriction degree of g
        lf, lg = f0[-1], g0[-1]
        a = MultiPoly.variable(field, f.vars, avar)
        g = g * lf - f * a ** (s - r) * lg
    raise NonTermination("multiplicity recursion exceeded its cap")


class RankTestReport:
    """Outcome of the section common-component linear-system rank test."""

    __slots__ = ("d1", "d2", "M", "N", "rank", "shares_component")

    def __init__(self, d1: int, d2: int, M: int, N: int, rank: int, shares_component: bool):
        self.d1 = d1
        self.d2 = d2
        self.M = M
        self.N = N
        self.rank = rank
        self.shares_component = shares_component

    def to_json(self) -> dict:
        return {
            "d1": self.d1,
            "d2": self.d2,
            "M": self.M,
            "N": self.N,
            "rank": self.rank,
            "shares_component": self.shares_component,
        }


def common_component_rank_test(h1, h2, u: ProjPoint) -> RankTestReport:
    """Decide whether the sections h1(u, ȳ) and h2(u, ȳ) share a factor by
    the rank of the linear system on cofactor coefficients: a relation
    h1(u,ȳ) g1(ȳ) + h2(u,ȳ) g2(ȳ) = 0 with deg g1 = d2-1, deg g2 = d1-1
    exists iff the M x N coefficient matrix has rank < N.

    The rank is read off c = gcd(h1(u,ȳ), h2(u,ȳ)) of degree e: by unique
    factorisation the relations are (g1, g2) = (q h2/c, -q h1/c) for q any
    form of degree e-1, so the kernel has dimension C(e+1, 2)."""
    s1 = _as_section(h1, u)
    s2 = _as_section(h2, u)
    yvars = s1.vars
    d1 = group_degree(s1, yvars)
    d2 = group_degree(s2, yvars)
    if d1 < 1 or d2 < 1:
        raise ZeroSection("sections must have positive degree")
    M = comb(d1 + d2 + 1, 2)
    N = comb(d1 + 1, 2) + comb(d2 + 1, 2)
    rank = N - comb(gcd(s1, s2).degree() + 1, 2)
    return RankTestReport(d1, d2, M, N, rank, rank < N)


def _as_section(h, u: ProjPoint) -> MultiPoly:
    sec = h.section(u) if isinstance(h, Hypersurface) else h
    _check_plane(sec)
    if sec.is_zero():
        raise ZeroSection("section vanished identically")
    return sec


class ConicClass:
    __slots__ = ("kind", "rank")

    def __init__(self, kind: str, rank: int | None = None):
        self.kind = kind  # line | irreducible-conic | degenerate-conic
        self.rank = rank

    def to_json(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}


def conic_classify(C: PlaneCurve) -> ConicClass:
    """Classify a curve of degree <= 2 via the symmetric-matrix rank."""
    if C.degree == 1:
        return ConicClass("line")
    if C.degree != 2:
        raise DegreeTooHigh(f"degree {C.degree} curve is not a conic")
    field = C.form.field
    if field.characteristic == 2:
        raise CharacteristicTwo("symmetric-matrix route needs characteristic != 2")
    half = field._inv(field.coerce(2))
    rows = [[field._zero()] * 3 for _ in range(3)]
    for e, c in C.form.terms.items():
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = c
        else:
            i, j = support
            rows[i][j] = rows[j][i] = field._mul(c, half)
    rank = matrix_rank(rows, field)
    if rank == 3:
        return ConicClass("irreducible-conic")
    return ConicClass("degenerate-conic", rank)

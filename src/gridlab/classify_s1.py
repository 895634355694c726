"""Complete decision and reduction procedure for (1,t)-grid-freeness on
P^1 x P^1.

The verdict needs only content extraction and squarefree parts: with
F = f(x̄) g(ȳ) h_1^{r_1} ... h_n^{r_n} and d_i = deg_ȳ h_i, the sum of the
d_i equals the ȳ-degree of the squarefree part of the content-free core,
because the h_i are distinct irreducibles.  No factorization into the h_i
is ever performed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySide, ExactDivisionError, NonSplitForm, WrongDimension
from .gridcheck import build_graph
from .poly import (
    BiHomPoly,
    MultiPoly,
    content,
    exact_div,
    gcd,
    squarefree_in_vars,
)
from .hypersurfaces import Hypersurface, OpenSet, ProjPoint, proj_points

XVARS = ("x0", "x1")
YVARS = ("y0", "y1")
P1_VARS = XVARS + YVARS


@dataclass
class S1Verdict:
    """Everything Theorem-style (1,t) classification produces.

    M = m + sum d_i; grid-free for t iff f misses X and M < t.
    Over the rationals, roots of non-split factors live in the algebraic
    closure; they are counted (they cannot be excluded by rational points)
    but carry no coordinates, hence `closure_roots`.
    """

    f_meets_X: bool
    g_roots_in_Y: list
    closure_roots: int
    sum_di: int

    @property
    def m(self) -> int:
        return len(self.g_roots_in_Y) + self.closure_roots

    @property
    def M(self) -> int:
        return self.m + self.sum_di

    def grid_free_for(self, t: int) -> bool:
        return (not self.f_meets_X) and self.M < t

    def to_json(self) -> dict:
        return {
            "f_meets_X": self.f_meets_X,
            "g_roots_in_Y": [repr(v) for v in self.g_roots_in_Y],
            "closure_roots": self.closure_roots,
            "m": self.m,
            "sum_di": self.sum_di,
            "M": self.M,
        }


def _check_p1(F: BiHomPoly):
    if tuple(F.xvars) != XVARS or tuple(F.yvars) != YVARS:
        raise WrongDimension("s=1 classification needs variables x0,x1,y0,y1")


def _split_contents(F: BiHomPoly):
    """F = f(x̄) g(ȳ) core, with core free of one-group factors."""
    poly = F.poly
    f = content(list(poly.coeffs_in(YVARS).values()))  # as a poly in ȳ
    rest = exact_div(poly, f)
    g = content(list(rest.coeffs_in(XVARS).values()))
    core = exact_div(rest, g)
    return f, g, core


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _binary_roots(form: MultiPoly, vars2: tuple):
    """Distinct projective roots of a nonzero binary form in `vars2`.

    Returns (roots, nonsplit) where `nonsplit` is the rootless remainder
    (constant over finite fields, possibly nonconstant over Q).
    """
    fld = form.field
    v0, v1 = vars2
    if fld.characteristic:
        roots = []
        for pt in proj_points(fld, 1):
            coords = {v0: pt.coords[0], v1: pt.coords[1]}
            full = [coords.get(v, 1) for v in form.vars]
            if form.evaluate(full).is_zero():
                roots.append(pt)
        return roots, MultiPoly.constant(fld, form.vars, 1)
    # rationals: peel monomial factors, then rational-root peeling
    roots = []
    work = form
    w0 = MultiPoly.variable(fld, form.vars, v0)
    w1 = MultiPoly.variable(fld, form.vars, v1)
    if work.degree_in(v0) > 0 and gcd(work, w0).degree() > 0:
        roots.append(ProjPoint(fld, [0, 1]))
        while gcd(work, w0).degree() > 0:
            work = exact_div(work, w0)
    if work.degree_in(v1) > 0 and gcd(work, w1).degree() > 0:
        roots.append(ProjPoint(fld, [1, 0]))
        while gcd(work, w1).degree() > 0:
            work = exact_div(work, w1)
    d = work.degree_in(v1)
    if d == 0:
        return roots, MultiPoly.constant(fld, form.vars, 1)
    # q(t) = work(1, t): nonzero constant term and degree d by construction
    i1 = form.vars.index(v1)
    coeffs = {e[i1]: c for e, c in work.terms.items()}
    denom_lcm = math.lcm(*(c.denominator for c in coeffs.values()))
    q = [int(coeffs.get(k, 0) * denom_lcm) for k in range(d + 1)]
    for num in _divisors(q[0]):
        for den in _divisors(q[-1]):
            if q[-1] == 0:
                break
            for sign in (1, -1):
                r = Fraction(sign * num, den)
                while len(q) > 1 and _poly_eval(q, r) == 0:
                    q = _synth_div(q, r)
                    if ProjPoint(fld, [1, r]) not in roots:
                        roots.append(ProjPoint(fld, [1, r]))
    if len(q) - 1 == 0:
        return roots, MultiPoly.constant(fld, form.vars, 1)
    # rebuild the non-split remainder as a binary form
    i0 = form.vars.index(v0)
    deg = len(q) - 1
    terms = {}
    for k, c in enumerate(q):
        if c:
            e = [0] * len(form.vars)
            e[i1] = k
            e[i0] = deg - k
            terms[tuple(e)] = c
    return roots, MultiPoly(fld, form.vars, terms).monic()


def _poly_eval(q, r):
    acc = 0
    for c in reversed(q):
        acc = acc * r + c
    return acc


def _synth_div(q, r):
    # divide by (t - r), exact; keep integer scaling afterwards
    out = [0] * (len(q) - 1)
    acc = q[-1]
    for k in range(len(q) - 2, -1, -1):
        out[k] = acc
        acc = q[k] + acc * r
    if acc != 0:
        raise ExactDivisionError(f"t - {r} does not divide the root polynomial")
    lcm = math.lcm(*(Fraction(c).denominator for c in out))
    return [int(Fraction(c) * lcm) for c in out]


def _remove_excluded_roots(form: MultiPoly, open_set: OpenSet, vars2: tuple):
    """Strip from a rootless (over Q) binary form the closure roots that the
    open set's excluded forms cover; returns the remaining form."""
    work = form
    for excl in open_set.excluded:
        e = excl.with_vars(form.vars)
        while True:
            g = gcd(work, e)
            if g.degree() == 0:
                break
            work = exact_div(work, g)
    return work


def s1_classify(
    F: BiHomPoly, X: OpenSet | None = None, Y: OpenSet | None = None
) -> S1Verdict:
    """Classify (1,t)-grid-freeness data of F on X x Y in P^1 x P^1."""
    _check_p1(F)
    X = X or OpenSet.full(1)
    Y = Y or OpenSet.full(1)
    f, g, core = _split_contents(F)
    if core.degree() > 0:
        sqcore = squarefree_in_vars(core, YVARS)
    else:
        sqcore = core
    sum_di = max(sqcore.degree_in_vars(YVARS), 0) if not sqcore.is_constant() else 0
    # g-roots inside Y
    g_roots = []
    closure = 0
    if g.degree() > 0:
        roots, nonsplit = _binary_roots(g, YVARS)
        g_roots = [v for v in roots if Y.contains(v)]
        if nonsplit.degree() > 0:
            remaining = _remove_excluded_roots(
                squarefree_in_vars(nonsplit, YVARS), Y, YVARS
            )
            closure = remaining.degree_in_vars(YVARS)
    # does {f = 0} meet X?
    f_meets = False
    if f.degree() > 0:
        roots, nonsplit = _binary_roots(f, XVARS)
        f_meets = any(X.contains(u) for u in roots)
        if not f_meets and nonsplit.degree() > 0:
            remaining = _remove_excluded_roots(
                squarefree_in_vars(nonsplit, XVARS), X, XVARS
            )
            f_meets = remaining.degree_in_vars(XVARS) > 0
    return S1Verdict(f_meets, g_roots, closure, sum_di)


def s1_reduce(
    F: BiHomPoly, X: OpenSet | None = None, Y: OpenSet | None = None
) -> BiHomPoly:
    """The degree-reduced form with the same zero set on X x Y: the product
    of the linear forms at g-roots inside Y with the squarefree core."""
    _check_p1(F)
    X = X or OpenSet.full(1)
    Y = Y or OpenSet.full(1)
    fld = F.poly.field
    f, g, core = _split_contents(F)
    if core.degree() > 0:
        sqcore = squarefree_in_vars(core, YVARS)
    else:
        sqcore = MultiPoly.constant(fld, F.poly.vars, 1)
    result = sqcore
    if g.degree() > 0:
        roots, nonsplit = _binary_roots(g, YVARS)
        if nonsplit.degree() > 0:
            remaining = _remove_excluded_roots(
                squarefree_in_vars(nonsplit, YVARS), Y, YVARS
            )
            if remaining.degree() > 0:
                raise NonSplitForm(
                    "g has a rootless factor with points inside Y; its roots "
                    "cannot be realized as rational linear forms"
                )
        for v in roots:
            if not Y.contains(v):
                continue
            v0, v1 = v.coords
            lin = MultiPoly(
                fld,
                F.poly.vars,
                {
                    (0, 0, 1, 0): v1,
                    (0, 0, 0, 1): -v0,
                },
            )
            result = result * lin
    return BiHomPoly(result.monic(), XVARS, YVARS)


def s1_max_row(
    F: BiHomPoly, X: OpenSet | None, Y: OpenSet | None, p: int
) -> int:
    """Largest neighborhood size over left vertices of the F_p sample."""
    _check_p1(F)
    try:
        G = build_graph(Hypersurface(F), p, X, Y, chart="projective")
    except EmptySide:
        return 0
    return max(row.bit_count() for row in G.rows)

"""Complete decision and reduction procedure for (1,t)-grid-freeness on
P^1 x P^1.  The form is a `projective.Hypersurface` with sx = sy = 1, in
x0, x1, y0, y1, and the reduced form is one too.

The verdict needs only content extraction and squarefree parts: with
F = f(x̄) g(ȳ) h_1^{r_1} ... h_n^{r_n} and d_i = deg_ȳ h_i, the sum of the
d_i equals the ȳ-degree of the squarefree part of the content-free core,
because the h_i are distinct irreducibles.  No factorization into the h_i
is ever performed.

The binary forms f and g enter only through their roots.  `_binary_roots`
tests candidate points in one fixed order, which is the printed order of
`g_roots_in_Y`.  Over F_q the candidates are the points of P^1(F_q) in the
chart's order, decoded by index (`projective.chart_point`), and a point
is made a `ProjPoint` only when it is a root.
Over Q, with z the integer coefficient list of form(1,t)/t^lo, they are
(0:1) when form(1,t) has lower degree than the form, (1:0) when lo > 0,
and then (1 : a/den) for num | z[0] and den | z[-1], both ascending, with
a = +num before -num.  Those divisors come from trial division, once for
each end, which the enumeration budget refuses up front when
isqrt|z[0]| + isqrt|z[-1]| exceeds it; the d(z[0]) d(z[-1]) divisor pairs
are counted against it before any is tried.  Over F_q the scan refuses up
front when the q + 1 points exceed the budget, with the chart's message.

What is left over Q once every rational root is divided out has its roots
in the algebraic closure; those not excluded by the open set are counted
as `closure_roots`.  Over F_q none are counted: the graph's vertices are
the F_q-points, and a factor without F_q-roots adds no vertex to any row.
"""

from __future__ import annotations

import math

from . import gridcheck, rationals
from .errors import EmptySide, NonSplitForm, WrongDimension
from .primefields import check_budget
from .ring import MultiPoly
from .projective import Hypersurface, OpenSet, ProjPoint, chart_point, chart_size, linear_form
from .poly import exact_div, gcd, split_group_contents, squarefree_in_vars

class S1Verdict:
    """Everything Theorem-style (1,t) classification produces.

    M = m + sum d_i; grid-free for t iff f misses X and M < t.
    sum_di, and with it M, counts roots over the algebraic closure of the
    coefficient field: d_i is the ȳ-degree of h_i, the number of roots of
    a section h_i(u, ȳ) there, whether or not they have coordinates in the
    field.  Over the rationals, roots of g's non-split factors live in the
    algebraic closure too; they are counted (they cannot be excluded by
    rational points) but carry no coordinates, hence `closure_roots`.
    A row of the graph on P^1(F_p) x P^1(F_p) holds F_p-points only, so
    its largest row (`s1_max_row`, the sweep's sample) is only a lower
    bound for M.
    """

    __slots__ = ("f_meets_X", "g_roots_in_Y", "closure_roots", "sum_di")

    def __init__(self, f_meets_X: bool, g_roots_in_Y: list, closure_roots: int, sum_di: int):
        self.f_meets_X = f_meets_X
        self.g_roots_in_Y = g_roots_in_Y
        self.closure_roots = closure_roots
        self.sum_di = sum_di

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


def _check_p1(F: Hypersurface):
    if (F.sx, F.sy) != (1, 1):
        raise WrongDimension("s=1 classification needs variables x0,x1,y0,y1")


def _divisors(n: int) -> list:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _rational_roots(fld, z: list) -> list:
    """The points (1 : a/den) with sum z_k a^k den^(n-k) = 0, in candidate
    order; a fraction not in lowest terms was already tested reduced."""
    n = len(z) - 1
    if n == 0:
        return []
    need = math.isqrt(abs(z[0])) + math.isqrt(abs(z[-1]))
    check_budget(need, f"rational-root test needs {need} trial divisions")
    nums, dens = _divisors(z[0]), _divisors(z[-1])
    pairs = len(nums) * len(dens)
    check_budget(pairs, f"rational-root test tries {pairs} divisor pairs")
    roots = []
    for num in nums:
        for den in dens:
            if math.gcd(num, den) > 1:
                continue
            for a in (num, -num):
                if sum(c * a**k * den ** (n - k) for k, c in enumerate(z)) == 0:
                    roots.append(ProjPoint(fld, [1, rationals.Fraction(a, den)]))
    return roots


def _binary_roots(form: MultiPoly, vars2: tuple):
    """(roots, rest) for a nonzero binary form in `vars2`: its distinct
    projective roots in candidate order, and the form over `vars2` with each
    root's linear form divided out to full multiplicity, made monic (1 when
    nothing nonconstant is left, and always 1 over F_q)."""
    fld = form.field
    binary = form.with_vars(vars2)
    one = MultiPoly.constant(fld, vars2, 1)
    if fld.characteristic:
        p, k = fld.characteristic, getattr(fld, "s", 1)
        pts = (chart_point(i, p, 1, k) for i in range(chart_size(p**k, 1, "projective")))
        return [ProjPoint(fld, pt) for pt in pts if binary.evaluate(pt).is_zero()], one
    # binary(1, t) = t^lo * z(t) / scale, with z integral and z(0) != 0
    coeffs = {e[1]: c for e, c in binary.terms.items()}
    lo, hi = min(coeffs), max(coeffs)
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    z = [int(coeffs.get(k, 0) * scale) for k in range(lo, hi + 1)]
    roots = []
    if hi < binary.degree():
        roots.append(ProjPoint(fld, [0, 1]))
    if lo > 0:
        roots.append(ProjPoint(fld, [1, 0]))
    roots += _rational_roots(fld, z)
    rest = binary
    for pt in roots:
        lin = linear_form(pt, vars2)
        while rest.evaluate(pt.raw).is_zero():
            rest = exact_div(rest, lin)
    return roots, rest.monic() if rest.degree() > 0 else one


def _roots_in(form: MultiPoly, open_set: OpenSet, vars2: tuple):
    """(roots of the binary form inside `open_set`, number of closure roots
    of its rootless rest that no excluded form of `open_set` covers)."""
    if form.degree() <= 0:
        return [], 0
    roots, rest = _binary_roots(form, vars2)
    inside = [v for v in roots if open_set.contains(v)]
    if rest.degree() > 0:
        rest = squarefree_in_vars(rest, vars2)
        for excl in open_set.excluded:
            e = excl.with_vars(vars2)
            while (common := gcd(rest, e)).degree() > 0:
                rest = exact_div(rest, common)
    return inside, rest.degree()


def _analyse(F: Hypersurface, Y: OpenSet | None):
    """(f, squarefree core, g-roots inside Y, closure roots of g in Y); the
    verdict also needs f's roots in X, the reduced form does not."""
    _check_p1(F)
    f, g, core = split_group_contents(F.poly, F.xvars, F.yvars)
    sqcore = squarefree_in_vars(core, F.yvars)
    g_roots, closure = _roots_in(g, Y or OpenSet.full(1), F.yvars)
    return f, sqcore, g_roots, closure


def s1_classify(
    F: Hypersurface, X: OpenSet | None = None, Y: OpenSet | None = None
) -> S1Verdict:
    """Classify (1,t)-grid-freeness data of F on X x Y in P^1 x P^1."""
    f, sqcore, g_roots, closure = _analyse(F, Y)
    f_roots, f_closure = _roots_in(f, X or OpenSet.full(1), F.xvars)
    f_meets = bool(f_roots) or f_closure > 0
    return S1Verdict(f_meets, g_roots, closure, sqcore.degree_in_vars(F.yvars))


def s1_reduce(F: Hypersurface, Y: OpenSet | None = None) -> Hypersurface:
    """The degree-reduced form: the product of the linear forms at g's roots
    inside Y with the squarefree core.  f, the x̄-only factor, is dropped,
    so X plays no part."""
    _, result, g_roots, closure = _analyse(F, Y)
    if closure > 0:
        raise NonSplitForm(
            "g has a rootless factor with points inside Y; its roots "
            "cannot be realized as rational linear forms"
        )
    for v in g_roots:
        result = result * linear_form(v, F.yvars).with_vars(F.poly.vars)
    return Hypersurface(result, 1, 1)


def s1_max_row(F: Hypersurface, X: OpenSet | None, Y: OpenSet | None, p: int) -> int:
    """Largest neighborhood size over left vertices of the F_p sample:
    when f misses X, a lower bound for the verdict's M, which counts roots
    over the algebraic closure."""
    _check_p1(F)
    try:
        G = gridcheck.build_graph(F, p, X, Y, chart="projective")
    except EmptySide:
        return 0
    return max(row.bit_count() for row in G.rows)

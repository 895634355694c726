from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from math import comb

from gridlab import curves
from gridlab.errors import (
    CharacteristicTwo,
    DegreeTooHigh,
    PointNotRational,
    WrongDimension,
    ZeroSection,
)
from gridlab.fields import GF, QQ
from gridlab.primefields import FieldElem, matrix_rank
from gridlab.ring import BiHomPoly, MultiPoly
from gridlab.projective import Hypersurface, ProjPoint
from gridlab.curves import (
    INFINITE,
    PlaneCurve,
    common_component_rank_test,
    conic_classify,
    intersection_multiplicity,
    moura_max,
)

Y3 = ("y0", "y1", "y2")


def curve(expr, field=QQ):
    return PlaneCurve(MultiPoly.parse(field, Y3, expr))


def pt(*coords, field=QQ):
    return ProjPoint(field, list(coords))


# -- moura formula -------------------------------------------------------------------


def test_moura_grid():
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            got = moura_max(d1, d2)
            if d1 > d2:
                want = d2 * (d2 + 3) // 2
            else:
                want = d1 * d2 - (d1 - 1) * (d1 - 2) // 2
            assert got == want


def test_moura_values():
    assert moura_max(1, 1) == 1
    assert moura_max(2, 2) == 4
    assert moura_max(3, 2) == 5
    assert moura_max(2, 3) == 6
    assert moura_max(3, 3) == 8


def test_moura_strict_below_bezout():
    for d1 in range(3, 11):
        for d2 in range(1, 11):
            assert moura_max(d1, d2) < d1 * d2


def test_moura_guards():
    with pytest.raises(DegreeTooHigh):
        moura_max(0, 3)


# -- intersection multiplicity --------------------------------------------------------

CIRCLE = "y0**2 + y1**2 - y2**2"


def test_imult_transverse():
    assert intersection_multiplicity(curve(CIRCLE), curve("y1"), pt(1, 0, 1)) == 1
    assert intersection_multiplicity(curve(CIRCLE), curve("y1"), pt(1, 0, -1)) == 1


def test_imult_tangent():
    assert intersection_multiplicity(curve(CIRCLE), curve("y2 - y0"), pt(1, 0, 1)) == 2


def test_imult_point_off_curves():
    assert intersection_multiplicity(curve(CIRCLE), curve("y1"), pt(1, 1, 1)) == 0


def test_imult_cusp():
    cusp = curve("y1**3 - y0**2*y2")
    assert intersection_multiplicity(cusp, curve("y1"), pt(0, 0, 1)) == 2
    assert intersection_multiplicity(cusp, curve("y1"), pt(1, 0, 0)) == 1
    # the cuspidal tangent meets with full local multiplicity 3
    assert intersection_multiplicity(cusp, curve("y0"), pt(0, 0, 1)) == 3


def test_imult_shared_component():
    f = curve(f"y1*({CIRCLE})")
    g = curve("y1*(y2 - y0)")
    assert intersection_multiplicity(f, g, pt(1, 0, 1)) == INFINITE
    # shared component away from the point contributes nothing extra
    assert intersection_multiplicity(f, g, pt(1, 1, 1)) == 0


def test_imult_symmetric():
    f, g = curve(CIRCLE), curve("y1*y2 - y0**2")
    for v in (pt(1, 0, 1), pt(1, 1, 1)):
        assert intersection_multiplicity(f, g, v) == intersection_multiplicity(
            g, f, v
        )


BEZOUT_PAIRS = [
    # (f, g, rational intersection points)
    (CIRCLE, "y1", [(1, 0, 1), (1, 0, -1)]),
    (CIRCLE, "y2 - y0", [(1, 0, 1)]),
    (CIRCLE, "y2 - 5/4*y0", [(4, 3, 5), (4, -3, 5)]),
    (CIRCLE, "y1*(y2 - y0)", [(1, 0, 1), (1, 0, -1)]),
    ("y1**3 - y0**2*y2", "y1", [(0, 0, 1), (1, 0, 0)]),
    ("y1**3 - y0**2*y2", "y0", [(0, 0, 1), (0, 1, 0)]),
]


@pytest.mark.parametrize("fe,ge,points", BEZOUT_PAIRS)
def test_bezout_sums(fe, ge, points):
    f, g = curve(fe), curve(ge)
    total = sum(
        intersection_multiplicity(f, g, pt(*coords)) for coords in points
    )
    assert total == f.degree * g.degree


def _resultant_valuation(fe, ge, v):
    """Independent oracle: multiplicity of v's line factor in Res_{y2}(f, g),
    valid when (0:0:1) avoids the curves and v is the only intersection
    point over its (y0:y1)."""
    y0, y1, y2 = sympy.symbols("y0 y1 y2")
    R = sympy.resultant(sympy.sympify(fe), sympy.sympify(ge), y2)
    lin = v.coords[1].val * y0 - v.coords[0].val * y1
    count = 0
    R = sympy.expand(R)
    while R != 0:
        q, r = sympy.div(R, lin, y0, y1)
        if sympy.expand(r) != 0:
            break
        R = sympy.expand(q)
        count += 1
    return count


@pytest.mark.parametrize(
    "fe,ge,coords",
    [
        (CIRCLE, "y2 - y0", (1, 0, 1)),
        (CIRCLE, "y2 - 5/4*y0", (4, 3, 5)),
        (CIRCLE, "y2 - 5/4*y0", (4, -3, 5)),
    ],
)
def test_imult_matches_resultant_valuation(fe, ge, coords):
    v = pt(*coords)
    m = intersection_multiplicity(curve(fe), curve(ge), v)
    assert m == _resultant_valuation(fe, ge, v)


def test_imult_over_fp():
    F7 = GF(7)
    f = curve("y1**2 - y0*y2", F7)
    tangent = curve("y2", F7)  # tangent at (1:0:0)
    assert intersection_multiplicity(f, tangent, pt(1, 0, 0, field=F7)) == 2


def test_imult_point_field_mismatch():
    f = curve(CIRCLE, GF(5))
    with pytest.raises(PointNotRational):
        intersection_multiplicity(f, curve("y1", GF(5)), pt(1, 0, 1, field=GF(7)))


# -- rank test -----------------------------------------------------------------------


def _section_hypersurface(exprs):
    vars = ("x0", "x1", "x2") + Y3
    F = MultiPoly.parse(QQ, vars, exprs)
    return Hypersurface(BiHomPoly(F, vars[:3], vars[3:]))


def test_rank_test_dimensions():
    h1 = MultiPoly.parse(QQ, Y3, "y0*y1 - y2**2")
    h2 = MultiPoly.parse(QQ, Y3, "y0**2 + y1*y2")
    rep = common_component_rank_test(h1, h2, pt(1, 0, 0))
    assert rep.d1 == 2 and rep.d2 == 2
    assert rep.M == 10 and rep.N == 6
    assert not rep.shares_component


def test_rank_test_planted():
    h1 = MultiPoly.parse(QQ, Y3, "(y0 + y1)*(y1 - y2)")
    h2 = MultiPoly.parse(QQ, Y3, "(y0 + y1)*(y0 + 2*y2)")
    rep = common_component_rank_test(h1, h2, pt(1, 0, 0))
    assert rep.shares_component
    assert rep.rank < rep.N


def test_rank_test_lines():
    rep = common_component_rank_test(
        MultiPoly.parse(QQ, Y3, "y0 + y1"),
        MultiPoly.parse(QQ, Y3, "y0 - y1"),
        pt(1, 0, 0),
    )
    assert rep.M == 3 and rep.N == 2 and rep.rank == 2
    assert not rep.shares_component


def test_rank_test_on_sections():
    vars = ("x0", "x1", "x2") + Y3
    F1 = MultiPoly.parse(QQ, vars, "x0*y0*y1 + x1*y2**2 + x2*y0*y2")
    F2 = MultiPoly.parse(QQ, vars, "x0*y1**2 + x1*y0*y2")
    h1 = Hypersurface(BiHomPoly(F1, vars[:3], vars[3:]))
    h2 = Hypersurface(BiHomPoly(F2, vars[:3], vars[3:]))
    rep = common_component_rank_test(h1, h2, pt(1, 1, 1))
    assert rep.M == 10 and rep.N == 6


def test_rank_test_zero_section():
    h1 = MultiPoly.parse(QQ, Y3, "y0 + y1")
    with pytest.raises(ZeroSection):
        common_component_rank_test(h1, MultiPoly.zero(QQ, Y3), pt(1, 0, 0))


def test_rank_test_needs_plane_sections():
    # sections of a hypersurface in P^2 x P^1 are binary forms
    vars = ("x0", "x1", "x2", "y0", "y1")
    F = MultiPoly.parse(QQ, vars, "x0*y0 + x1*y1")
    H = Hypersurface(BiHomPoly(F, vars[:3], vars[3:]))
    with pytest.raises(WrongDimension):
        common_component_rank_test(H, H, pt(1, 0, 0))


def test_rank_test_eliminates_nothing(monkeypatch):
    def refuse(rows, field):
        raise AssertionError("matrix_rank called")

    monkeypatch.setattr(curves, "matrix_rank", refuse)
    h1 = MultiPoly.parse(QQ, Y3, "(y0 + y1)*(y1 - y2)**2")
    h2 = MultiPoly.parse(QQ, Y3, "(y0 + y1)*(y1 - y2)*(y0 + 2*y2)")
    rep = common_component_rank_test(h1, h2, pt(1, 0, 0))
    assert (rep.N, rep.rank) == (12, 9)


def _monomials(degree: int) -> list:
    """The exponent vectors of degree `degree` in three variables."""
    return [(i, j, degree - i - j) for i in range(degree, -1, -1)
            for j in range(degree - i, -1, -1)]


def reference_rank_test(h1, h2, u) -> dict:
    """The rank test by elimination: the M x N matrix of the map
    (g1, g2) -> h1(u,ȳ) g1 + h2(u,ȳ) g2 on forms of degrees d2-1 and d1-1,
    with its rank from `matrix_rank`."""
    s1, s2 = (h.section(u) if isinstance(h, Hypersurface) else h for h in (h1, h2))
    field, yvars = s1.field, s1.vars
    d1, d2 = s1.degree(), s2.degree()
    M = comb(d1 + d2 + 1, 2)
    N = comb(d1 + 1, 2) + comb(d2 + 1, 2)
    row_index = {m: i for i, m in enumerate(_monomials(d1 + d2 - 1))}
    columns = []
    for sec, dg in ((s1, d2 - 1), (s2, d1 - 1)):
        for mono in _monomials(dg):
            col = [field._zero()] * M
            for e, c in (MultiPoly(field, yvars, {mono: 1}) * sec).terms.items():
                col[row_index[e]] = c
            columns.append(col)
    assert (len(row_index), len(columns)) == (M, N)
    rank = matrix_rank([list(row) for row in zip(*columns)], field)
    return {"d1": d1, "d2": d2, "M": M, "N": N, "rank": rank, "shares_component": rank < N}


SECTION_FIELDS = (
    (QQ, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))),
    (GF(2), st.integers(0, 1)),
    (GF(3), st.integers(0, 2)),
    (GF(7), st.integers(0, 6)),
    (GF(5, 2), st.tuples(st.integers(0, 4), st.integers(0, 4))),
)


@st.composite
def section_pairs(draw):
    """(h1, h2, u): forms c*a and c*b, or c*a twice, or c*a and c*a*b, for
    a planted common factor c of degree 0-3; as plain forms, or as the
    sections at u = (1 : t : 0) of x0*h + x1*c*r."""
    field, entries = draw(st.sampled_from(SECTION_FIELDS))

    def form(degree):
        coeffs = [draw(entries) for _ in _monomials(degree)]
        if all(field._is_zero(field.coerce(c)) for c in coeffs):
            coeffs[0] = 1
        return MultiPoly(field, Y3, dict(zip(_monomials(degree), coeffs)))

    e = draw(st.integers(0, 3))
    c = form(e)
    h1 = c * form(draw(st.integers(int(e == 0), 2)))
    shape = draw(st.sampled_from(("coprime cofactors", "equal", "divisor")))
    if shape == "equal":
        h2 = h1
    elif shape == "divisor":
        h2 = h1 * form(draw(st.integers(0, 2)))
    else:
        h2 = c * form(draw(st.integers(int(e == 0), 2)))
    if draw(st.booleans()):
        h1, h2 = h2, h1
    u = pt(1, 0, 0, field=field)
    if draw(st.booleans()):
        t = draw(entries)
        u = pt(1, t, 0, field=field)
        vars = ("x0", "x1", "x2") + Y3
        x0, x1 = (MultiPoly.variable(field, vars, x) for x in vars[:2])

        def hypersurface(h):
            r = c * form(h.degree() - e)
            F = x0 * h.with_vars(vars) + x1 * r.with_vars(vars)
            return Hypersurface(BiHomPoly(F, vars[:3], vars[3:]))

        h1, h2 = hypersurface(h1), hypersurface(h2)
        assume(all(not h.section(u).is_zero() for h in (h1, h2)))
    return h1, h2, u


@settings(max_examples=300, deadline=None)
@given(section_pairs())
def test_rank_test_matches_elimination(case):
    h1, h2, u = case
    assert common_component_rank_test(h1, h2, u).to_json() == reference_rank_test(h1, h2, u)


def test_matrix_rank():
    F = QQ
    rows = [
        [F.elem(1), F.elem(2)],
        [F.elem(2), F.elem(4)],
        [F.elem(0), F.elem(1)],
    ]
    assert matrix_rank(rows, F) == 2
    assert matrix_rank([], F) == 0


def reference_rank(rows: list, field) -> int:
    """Rank by Gauss-Jordan elimination: each pivot row is rescaled and
    every other row is cleared, above the pivot too."""
    m = [[field.coerce(c) for c in row] for row in rows]
    if not m:
        return 0
    is_zero, mul, sub = field._is_zero, field._mul, field._sub
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next(
            (i for i in range(row, len(m)) if not is_zero(m[i][col])), None
        )
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = field._inv(m[row][col])
        m[row] = [mul(c, inv) for c in m[row]]
        for i in range(len(m)):
            if i != row and not is_zero(m[i][col]):
                factor = m[i][col]
                m[i] = [sub(c, mul(factor, d)) for c, d in zip(m[i], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


RANK_FIELDS = (
    (QQ, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))),
    (GF(101), st.integers(0, 100)),
    (GF(5, 2), st.tuples(st.integers(0, 4), st.integers(0, 4))),
)


@st.composite
def low_rank_matrices(draw):
    """(field, M, r): M = A B for a random k x r matrix A and r x n matrix
    B, so M has rank at most r; small r gives rank-deficient matrices."""
    field, entries = draw(st.sampled_from(RANK_FIELDS))
    k, r, n = (draw(st.integers(0, 6)) for _ in range(3))

    def matrix(rows, cols):
        return [[FieldElem(field, field.coerce(draw(entries))) for _ in range(cols)]
                for _ in range(rows)]

    A, B = matrix(k, r), matrix(r, n)
    M = [[sum((a * b for a, b in zip(row, col)), field.zero) for col in zip(*B)]
         if r else [field.zero] * n for row in A]
    return field, M, r


@settings(max_examples=300, deadline=None)
@given(low_rank_matrices())
def test_matrix_rank_matches_gauss_jordan(case):
    field, M, r = case
    rank = matrix_rank(M, field)
    assert rank == reference_rank(M, field) <= r


# -- conics --------------------------------------------------------------------------


def test_conic_classification():
    assert conic_classify(curve("y0 + 2*y1")).kind == "line"
    assert conic_classify(curve("y1**2 - y0*y2")).kind == "irreducible-conic"
    deg = conic_classify(curve("y0*y1"))
    assert deg.kind == "degenerate-conic" and deg.rank == 2
    dbl = conic_classify(curve("y0**2"))
    assert dbl.kind == "degenerate-conic" and dbl.rank == 1


def test_conic_guards():
    with pytest.raises(DegreeTooHigh):
        conic_classify(curve("y0**3 + y1**3 + y2**3"))
    with pytest.raises(CharacteristicTwo):
        conic_classify(curve("y0*y1 + y2**2", GF(2)))

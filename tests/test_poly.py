import json
import math
import random
import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from gridlab.errors import (
    BadCharacteristic,
    BudgetExceeded,
    ExactDivisionError,
    MalformedExpression,
    MalformedJSON,
    MixedFields,
    NotHomogeneous,
    UnknownVariable,
)
from gridlab.fields import GF, QQ
import gridlab.poly
from gridlab.poly import (
    _DenseGcd,
    _rational,
    _word_primes,
    divides,
    exact_div,
    gcd,
    squarefree_in_vars,
    squarefree_part,
)
from gridlab.ring import MultiPoly, bihomogenize, group_degree, homogenize

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(expr, field=QQ, vars=XY):
    return MultiPoly.parse(field, vars, expr)


# -- basics ------------------------------------------------------------------------


def test_parse_and_repr():
    f = P("x**2*y - 3*x + 1/2")
    assert f.degree() == 3
    assert f.degree_in("x") == 2
    assert f.degree_in("y") == 1


def test_graded_lex_leading():
    # monic() scales the leading term to 1: the highest total degree first,
    # then the later variable's exponent
    assert P("2*x*y + 4*x**3 + y**2").monic() == P("1/2*x*y + x**3 + 1/4*y**2")
    assert P("3*x**2 + 2*y**2 + 5*x*y").monic() == P("3/2*x**2 + y**2 + 5/2*x*y")


def test_monic_idempotent():
    f = P("2*x**2 + 4*y")
    m = f.monic()
    assert m == P("x**2 + 2*y")
    assert m.monic() == m


def test_arith_ring_axioms():
    a, b, c = P("x + y"), P("x*y - 1"), P("y**2 + 3")
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == MultiPoly.zero(QQ, XY)
    assert (a * b).degree() == a.degree() + b.degree()


def test_pow_zero_exponent():
    assert P("x + y") ** 0 == MultiPoly.constant(QQ, XY, 1)


def test_evaluate_and_substitute():
    f = P("x**2 + y")
    assert f.evaluate([QQ.elem(2), QQ.elem(3)]).val == 7
    g = f.substitute({"x": P("y"), "y": P("x")}, new_vars=XY)
    assert g == P("y**2 + x")


def test_derivative():
    f = P("x**3*y + 2*x")
    assert f.derivative("x") == P("3*x**2*y + 2")
    assert f.derivative("y") == P("x**3")


def test_exact_div():
    a = P("(x + y)*(x - y)")
    assert exact_div(a, P("x + y")) == P("x - y")
    with pytest.raises(ExactDivisionError):
        exact_div(P("x**2 + y"), P("x + 1"))
    assert divides(P("x + y"), a)
    assert not divides(P("x + 1"), P("x**2 + y"))


# -- the reference gcd: the recursive primitive PRS --------------------------------


def _trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _prem(f, g):
    """Pseudo-remainder of coefficient lists (low degree first); unit
    factors are irrelevant because the caller takes primitive parts."""
    f = f[:]
    dg = len(g) - 1
    lg = g[-1]
    while _trim(f) and len(f) - 1 >= dg:
        lf = f[-1]
        shift = len(f) - 1 - dg
        f = [c * lg for c in f]
        for i, gi in enumerate(g):
            f[shift + i] = f[shift + i] - lf * gi
        f.pop()
    return f


def _prs_content(coeffs):
    cont = coeffs[0].monic()
    for c in coeffs[1:]:
        if cont.degree() == 0:
            break
        cont = _prs_gcd(cont, c)
    return cont


def _prs_gcd(a, b):
    """Monic gcd by the primitive PRS in the last variable that occurs,
    recursing into the coefficients for contents: the reference that
    `gcd` is checked against, over Q and over finite fields of any size."""
    if a.is_zero() or b.is_zero():
        return (a + b).monic()
    used = [v for v in a.vars if a.degree_in(v) > 0 or b.degree_in(v) > 0]
    if not used:
        return MultiPoly.constant(a.field, a.vars, 1)
    main = used[-1]
    fa, fb = (_trim(f.univariate(main)) for f in (a, b))
    ca, cb = _prs_content(fa), _prs_content(fb)
    fa, fb = [exact_div(c, ca) for c in fa], [exact_div(c, cb) for c in fb]
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _trim(_prem(fa, fb))
        if r:
            rc = _prs_content(r)
            r = [exact_div(c, rc) for c in r]
        fa, fb = fb, r
    x = MultiPoly.variable(a.field, a.vars, main)
    g = MultiPoly.zero(a.field, a.vars)
    for c in reversed(fa):
        g = g * x + c
    return (_prs_gcd(ca, cb) * g).monic()


# -- gcd / squarefree --------------------------------------------------------------


def test_gcd_examples():
    a = P("(x + y)**2*(x - y)")
    b = P("(x + y)*(x**2 + y**2)")
    assert gcd(a, b) == P("x + y")
    assert gcd(a, MultiPoly.zero(QQ, XY)) == a.monic()
    assert gcd(P("3"), a).is_constant()


def test_gcd_rejects_operands_of_another_ring():
    for a, b in [(P("x + 1"), P("x + 1", GF(5))), (P("x + 1", GF(5)), P("x + 1"))]:
        with pytest.raises(MixedFields):
            gcd(a, b)
        with pytest.raises(MixedFields):
            gcd(a, b - b)
    with pytest.raises(UnknownVariable):
        gcd(P("x + 1"), P("x + 1", QQ, XYZ))


def test_gcd_monic_normalization():
    g = gcd(P("2*x + 2*y"), P("4*x + 4*y"))
    assert g == P("x + y")


def test_gcd_over_fp():
    F5 = GF(5)
    a = P("(x + 2*y)**2*(x + y)", F5)
    b = P("(x + 2*y)*(x + 3*y)", F5)
    assert gcd(a, b) == P("x + 2*y", F5).monic()


def test_squarefree_part():
    f = P("(x + y)**3*(x - y)")
    sf = squarefree_part(f, "x")
    assert sf == P("(x + y)*(x - y)").monic()


def test_squarefree_char_guard():
    F3 = GF(3)
    with pytest.raises(BadCharacteristic):
        squarefree_part(P("x**3 + y**3", F3), "x")


def test_squarefree_in_vars():
    # the pass divides by gcd(f, df/dy), which also swallows the x-content
    f = P("x**2*(y - 1)**2", QQ, XY)
    assert squarefree_in_vars(f, ("y",)) == P("y - 1").monic()


def test_squarefree_in_vars_drops_factors_free_of_a_group_variable():
    # y0 is free of y1 and y1 of y0, so each pass swallows one of them whole
    Y = ("y0", "y1")
    h = MultiPoly.parse(QQ, Y, "y0**2 + 3*y0*y1 - 2*y1**2")
    y0y1h = MultiPoly.parse(QQ, Y, "y0*y1") * h
    assert squarefree_in_vars(y0y1h, Y) == h.monic()
    assert squarefree_in_vars(y0y1h**2, Y) == h.monic()


# -- the modular gcd over Q ------------------------------------------------------------


@contextmanager
def _time_limit(seconds):
    # a prime loop that never certifies must fail the test, not hang it
    def expire(signum, frame):
        raise TimeoutError(f"gcd did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_word_primes_walk_down_from_the_mersenne_prime():
    first = [p for _, p in zip(range(4), _word_primes())]
    assert first[0] == 2**31 - 1
    assert first == sorted(first, reverse=True)
    assert all(sympy.isprime(p) for p in first)
    assert list(sympy.primerange(first[-1], first[0] + 1)) == first[::-1]


@pytest.mark.parametrize("m", [105, 143, 315, 1155])
def test_rational_reconstruction_matches_brute_force(m):
    n = math.isqrt(m // 2)
    for u in range(m):
        fits = {
            Fraction(r, s)
            for s in range(1, n + 1)
            for r in range(-n, n + 1)
            if (r - s * u) % m == 0 and math.gcd(s, m) == 1
        }
        assert len(fits) <= 1
        assert _rational(u, m) == (fits.pop() if fits else None), (u, m)


def test_gcd_unlucky_first_prime_gives_one():
    p0 = next(_word_primes())
    x = ("x",)
    a = MultiPoly.parse(QQ, x, f"x*(x + {p0 + 1})")
    b = MultiPoly.parse(QQ, x, "(x + 1)*(x + 2)")
    with _time_limit(20):
        assert gcd(a, b) == MultiPoly.constant(QQ, x, 1)


def test_gcd_drops_an_unlucky_prime_after_a_lucky_one():
    # p1 makes (x + 1) a false common factor; the planted one needs 3 primes
    p1 = [p for _, p in zip(range(2), _word_primes())][1]
    x = ("x",)
    common = MultiPoly.parse(QQ, x, f"x + {2**70 + 12345}")
    a = common * MultiPoly.parse(QQ, x, f"x*(x + {p1 + 1})")
    b = common * MultiPoly.parse(QQ, x, "(x + 1)*(x + 2)")
    with _time_limit(20):
        assert gcd(a, b) == common


QQHARD = (
    "2*y1**2*y2**4 - 3*y0*y1*y2**4 - 9*y0**2*y2**4 - 1*y1**3*y2**3"
    " - 12*y0*y1**2*y2**3 + 10*y0**2*y1*y2**3 + 6*y0**3*y2**3 - 5*y1**4*y2**2"
    " + 5*y0*y1**3*y2**2 + 6*y0**2*y1**2*y2**2 - 12*y0**3*y1*y2**2"
    " - 1*y0**4*y2**2 - 4*y1**5*y2 + 5*y0*y1**4*y2 + 3*y0**2*y1**3*y2"
    " + 9*y0**3*y1**2*y2 + 3*y0**4*y1*y2 + 4*y1**6 + 2*y0*y1**5 - 6*y0**2*y1**4"
    " - 5*y0**3*y1**3 - 1*y0**4*y1**2",
    "y1*y2**5 - 3*y0*y2**5 - 5*y0*y1*y2**4 + 4*y0**2*y2**4 - 4*y1**3*y2**3"
    " + 5*y0*y1**2*y2**3 + 8*y0**3*y2**3 + y1**4*y2**2 - 3*y0*y1**3*y2**2"
    " + 13*y0**2*y1**2*y2**2 - 19*y0**3*y1*y2**2 + 6*y0**4*y2**2 - 1*y1**5*y2"
    " - 3*y0**2*y1**3*y2 + 22*y0**3*y1**2*y2 - 12*y0**4*y1*y2 - 3*y0**5*y2"
    " - 2*y1**6 + 8*y0*y1**5 + y0**2*y1**4 - 15*y0**3*y1**3 + 3*y0**4*y1**2"
    " + 3*y0**5*y1",
)
PLANE = ("y0", "y1", "y2")


def test_gcd_of_the_hard_sextic_pair_matches_sympy():
    # two plane sextics through one conic, whose Fraction PRS took 0.4-0.7 s
    a, b = (MultiPoly.parse(QQ, PLANE, f) for f in QQHARD)
    with _time_limit(60):
        g = gcd(a, b)
    assert g == _sympy_gcd(a, b)
    conic = "y1*y2 - 3*y0*y2 - 2*y1**2 + 2*y0*y1 + y0**2"
    assert g == MultiPoly.parse(QQ, PLANE, conic)


def test_squarefree_of_a_degree_16_binary_resultant_matches_sympy():
    # f and g = f + l^2 q meet doubly along l, so Res_y2(f, g) =
    # Res(f, l)^2 Res(f, q) up to sign, a binary form of degree 16
    rng = random.Random("quartics")

    def form(degree):
        return MultiPoly(
            QQ,
            PLANE,
            {
                (i, j, degree - i - j): rng.randint(-9, 9)
                for i in range(degree + 1)
                for j in range(degree + 1 - i)
            },
        )

    f = form(4)
    line = MultiPoly.parse(QQ, PLANE, "y2 - y0 - 2*y1")
    g = f + line**2 * form(2)
    syms = sympy.symbols(PLANE)
    fe, ge = (_to_sympy(h, syms).as_expr() for h in (f, g))
    r = _to_multipoly(sympy.expand(sympy.resultant(fe, ge, syms[2])), syms, PLANE)
    assert r.degree() == 16 and r.degree_in("y2") == 0
    with _time_limit(60):
        sqf = squarefree_in_vars(r, ("y0", "y1"))
    want = sympy.sqf_part(_to_sympy(r, syms))
    assert sqf == _to_multipoly(want.as_expr(), syms, PLANE).monic()
    assert sqf.degree() == 12


def _qq_coefficients():
    huge = st.builds(
        lambda sign, k: sign * (2**70 + k),
        st.sampled_from((-1, 1)),
        st.integers(0, 2**80),
    )
    return st.one_of(
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
        huge,
        st.builds(Fraction, huge, st.integers(2, 2**20)),
    )


@st.composite
def _qq_polys(draw, vars, max_degree, coefficients):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, max_degree)] * len(vars)), coefficients
            ),
            min_size=1,
            max_size=4,
        )
    )
    return MultiPoly(QQ, vars, {e: c for e, c in terms if sum(e) <= max_degree})


@st.composite
def _planted_gcd_pairs(draw, max_degree, coefficients):
    vars = XYZ[: draw(st.integers(1, 3))]
    common, u, v = (
        draw(_qq_polys(vars, max_degree, coefficients)) for _ in range(3)
    )
    return common * u, common * v


@settings(max_examples=80, deadline=None)
@given(_planted_gcd_pairs(4, _qq_coefficients()))
def test_gcd_over_qq_matches_sympy(pair):
    a, b = pair
    assume(not a.is_zero() and not b.is_zero())
    with _time_limit(60):
        got = gcd(a, b)
    assert got == _sympy_gcd(a, b)


@settings(max_examples=60, deadline=None)
@given(
    _planted_gcd_pairs(
        3,
        st.one_of(
            st.integers(-9, 9),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
        ),
    )
)
def test_gcd_over_qq_matches_the_prs(pair):
    a, b = pair
    assert gcd(a, b) == _prs_gcd(a, b)


def _random_sympy_pair(rng, nvars=2, deg=3):
    syms = sympy.symbols(f"v0:{nvars}")
    vars = tuple(str(s) for s in syms)

    def rand_poly():
        expr = 0
        for _ in range(rng.randint(2, 5)):
            mono = rng.randint(-4, 4)
            for s in syms:
                mono *= s ** rng.randint(0, deg)
            expr += mono
        return sympy.expand(expr)

    return syms, vars, rand_poly(), rand_poly()


def _to_multipoly(expr, syms, vars):
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for mono, coeff in poly.terms():
        terms[tuple(int(e) for e in mono)] = Fraction(int(coeff.p), int(coeff.q))
    return MultiPoly(QQ, vars, terms)


def _to_sympy(f, syms):
    return sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()},
        *syms,
        domain="QQ",
    )


def _sympy_gcd(a, b):
    syms = sympy.symbols(a.vars)
    g = sympy.gcd(_to_sympy(a, syms), _to_sympy(b, syms))
    return _to_multipoly(g.as_expr(), syms, a.vars).monic()


@pytest.mark.parametrize("seed", range(8))
def test_gcd_matches_sympy(seed):
    rng = random.Random(seed)
    syms, vars, e1, e2 = _random_sympy_pair(rng)
    common = syms[0] + syms[1] - 2
    e1, e2 = sympy.expand(e1 * common), sympy.expand(e2 * common)
    if e1 == 0 or e2 == 0:
        return
    a, b = _to_multipoly(e1, syms, vars), _to_multipoly(e2, syms, vars)
    expected = sympy.gcd(e1, e2)
    got = gcd(a, b)
    want = _to_multipoly(sympy.expand(expected), syms, vars).monic()
    assert got == want


# -- hypothesis properties ----------------------------------------------------------

small_polys = st.builds(
    lambda terms: MultiPoly(
        QQ,
        XY,
        {
            (ex, ey): QQ.elem(c)
            for (ex, ey, c) in terms
            if c != 0
        },
    ),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(-3, 3),
        ),
        min_size=0,
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_gcd_common_factor_property(a, b, c):
    if a.is_zero() or b.is_zero() or c.is_zero() or c.is_constant():
        return
    g = gcd(a * c, b * c)
    assert divides(c, g)  # c | gcd(ac, bc)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_gcd_symmetric_and_divides(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = gcd(a, b)
    assert g == gcd(b, a)
    if not a.is_zero():
        assert divides(g, a)
    if not b.is_zero():
        assert divides(g, b)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_mul_degree_additive(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert (a * b).degree() == a.degree() + b.degree()


# -- homogenization ------------------------------------------------------------------


def test_homogenize_roundtrip():
    vars3 = XY + ("w",)
    f = P("x**2 + y + 1", QQ, vars3)
    h = homogenize(f, vars3, "w")
    assert group_degree(h, vars3) == 2
    assert h.substitute({"w": 1}, new_vars=h.vars) == f


def test_group_degree_rejects_inhomogeneous():
    f = P("x**2 + y", QQ, XY)
    with pytest.raises(NotHomogeneous):
        group_degree(f, XY)


def test_bihomogenize():
    vars = ("x1", "x2", "y1", "y2")
    affine = MultiPoly.parse(QQ, vars, "x1*y1 + x2*y2 - 1")
    B = bihomogenize(affine, 2)
    expected = MultiPoly.parse(
        QQ,
        ("x0", "x1", "x2", "y0", "y1", "y2"),
        "x1*y1 + x2*y2 - x0*y0",
    )
    assert B == expected
    assert (group_degree(B, expected.vars[:3]), group_degree(B, expected.vars[3:])) == (1, 1)


def test_json_roundtrip():
    for f in (
        P("x**2*y - 3/4*x + 1"),
        P("x + 2*y", GF(7)),
        MultiPoly.parse(GF(3, 2), XY, "x*y + 2"),
    ):
        assert MultiPoly.from_json(f.to_json()) == f


def test_json_repeated_exponent_is_refused():
    # a dict of terms kept the last of x0*y1, x0*y1 and read x0*y1 - x1*y0
    data = {"field": {"kind": "rationals"}, "vars": ["x0", "x1", "y0", "y1"],
            "terms": [{"e": [1, 0, 0, 1], "c": "1"}, {"e": [1, 0, 0, 1], "c": "1"},
                      {"e": [0, 1, 1, 0], "c": "-1"}]}
    with pytest.raises(MalformedJSON, match=r"^poly.terms exponent \[1, 0, 0, 1\] appears more than once$"):
        MultiPoly.from_json(data)
    del data["terms"][1]
    assert MultiPoly.from_json(data) == MultiPoly.parse(QQ, data["vars"], "x0*y1 - x1*y0")


# -- properties over F_7 and F_{5^2} in two and three variables ---------------------


@st.composite
def finite_field_polys(draw, count):
    """`count` polynomials over one of GF(7), GF(5, 2), in 2 or 3 variables,
    plus a point of affine space over the same field."""
    field = draw(st.sampled_from([GF(7), GF(5, 2)]))
    vars = draw(st.sampled_from([XY, XYZ]))
    if field.kind == "extension":
        coeff = st.tuples(*[st.integers(0, field.p - 1)] * field.s)
    else:
        coeff = st.integers(0, field.p - 1)
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    polys = [
        MultiPoly(field, vars, draw(st.dictionaries(exps, coeff, max_size=4)))
        for _ in range(count)
    ]
    point = [draw(coeff) for _ in vars]
    return polys, point


@settings(max_examples=60, deadline=None)
@given(finite_field_polys(2))
def test_evaluate_is_ring_homomorphism(case):
    (a, b), pt = case
    ea, eb = a.evaluate(pt), b.evaluate(pt)
    assert (a + b).evaluate(pt) == ea + eb
    assert (a - b).evaluate(pt) == ea - eb
    assert (a * b).evaluate(pt) == ea * eb


@settings(max_examples=60, deadline=None)
@given(finite_field_polys(2))
def test_exact_div_inverts_mul(case):
    (a, b), _ = case
    if not b.is_zero():
        assert exact_div(a * b, b) == a


@settings(max_examples=40, deadline=None)
@given(finite_field_polys(3))
def test_gcd_keeps_common_factor_finite_fields(case):
    (a, b, c), _ = case
    if not c.is_zero():
        assert divides(c, gcd(a * c, b * c))


# -- the dense gcd over finite fields against the PRS --------------------------------


GCD_FIELDS = [GF(101), GF(2**31 - 1), GF(5, 2), GF(3, 2), GF(2, 2), GF(2), GF(3)]
WXYZ = ("w", "x", "y", "z")


@st.composite
def _field_polys(draw, field, vars, max_terms):
    if field.kind == "extension":
        coeff = st.tuples(*[st.integers(0, field.p - 1)] * field.s)
    else:
        coeff = st.integers(0, field.p - 1)
    exps = st.tuples(*[st.integers(0, 2)] * len(vars))
    terms = draw(st.dictionaries(exps, coeff, max_size=max_terms))
    return MultiPoly(field, vars, terms)


@st.composite
def _dense_gcd_pairs(draw):
    """A pair over one of GCD_FIELDS in 2-4 variables: with a planted common
    factor, as drawn (mostly coprime), or with a zero or constant operand."""
    field = draw(st.sampled_from(GCD_FIELDS))
    vars = WXYZ[: draw(st.integers(2, 4))]
    u, v, common = (draw(_field_polys(field, vars, 4)) for _ in range(3))
    shape = draw(st.sampled_from(["planted", "drawn", "zero", "constant"]))
    if shape == "planted":
        return common * u, common * v
    if shape == "zero":
        return MultiPoly.zero(field, vars), u
    if shape == "constant":
        c = MultiPoly.constant(field, vars, draw(st.integers(1, field.p - 1)))
        return u, c
    return u, v


@settings(max_examples=300, deadline=None)
@given(_dense_gcd_pairs())
def test_dense_gcd_matches_the_prs(pair):
    a, b = pair
    assert gcd(a, b) == _prs_gcd(a, b)
    assert gcd(b, a) == _prs_gcd(a, b)


def _counting_lifts(monkeypatch):
    degrees = []

    def counted(self, k, lift=_DenseGcd.lift):
        degrees.append(k)
        return lift(self, k)

    monkeypatch.setattr(_DenseGcd, "lift", counted)
    return degrees


def _unlucky_everywhere_pair(field, vanishing):
    """(a, b, g) with gcd(a, b) = g, monic: the cofactors x + c*w and x + y*w,
    w = `vanishing`, are coprime, but both are x at every root of w, so
    every such point of y is unlucky.  g has the field's generator as a
    coefficient when there is one, so mapping the gcd back from an
    extension must undo the embedding of F_{p^s}."""
    c = field.generator if field.kind == "extension" else 1
    g = MultiPoly(field, XY, {(1, 0): 1, (0, 2): c, (0, 1): 1, (0, 0): 1})
    w = MultiPoly.parse(field, XY, vanishing)
    x, y = (MultiPoly.variable(field, XY, v) for v in XY)
    return g * (x + w * MultiPoly.constant(field, XY, c)), g * (x + y * w), g.monic()


@pytest.mark.parametrize(
    "field, vanishing, lifts",
    [
        # F_4 has two lucky points, too few for g's degree 2 in y
        (GF(2), "y**2 - y", [2, 3]),
        (GF(3), "y**3 - y", [2]),
        (GF(2, 2), "y**4 - y", [2]),
        (GF(3, 2), "y**9 - y", [2]),
    ],
    ids=["GF2", "GF3", "GF4", "GF9"],
)
def test_dense_gcd_lifts_a_field_that_runs_out_of_points(
    monkeypatch, field, vanishing, lifts
):
    # every point of F_q is a root of y^q - y
    a, b, g = _unlucky_everywhere_pair(field, vanishing)
    assert _DenseGcd(field).gcd(a.terms, b.terms, 2) is None
    degrees = _counting_lifts(monkeypatch)
    assert gcd(a, b) == _prs_gcd(a, b) == g
    assert degrees == lifts
    assert gcd(b, a) == _prs_gcd(a, b)


def test_dense_gcd_over_a_large_field_never_lifts(monkeypatch):
    a, b, g = _unlucky_everywhere_pair(GF(101), "y**2 - y")
    degrees = _counting_lifts(monkeypatch)
    assert gcd(a, b) == g
    assert gcd(b, a) == g
    assert degrees == []


def test_dense_gcd_counts_its_whole_grid(monkeypatch):
    # each variable alone fits the budget, but the grid of the two does not:
    # x^N*y + x*y^N spans (N + 1)^2 coefficients
    F7 = GF(7)
    a = MultiPoly.parse(F7, XY, "x**30*y + x*y**30")
    b = MultiPoly.parse(F7, XY, "x*y")
    monkeypatch.setenv("GRIDLAB_BUDGET", "960")
    with pytest.raises(BudgetExceeded, match="^degree 30 in x, 30 in y: a dense grid of 961 "):
        gcd(a, b)
    monkeypatch.setenv("GRIDLAB_BUDGET", "961")
    assert gcd(a, b) == b


def test_dense_gcd_refuses_a_degree_over_the_budget(monkeypatch):
    # a variable of degree d takes dense lists of d + 1 entries: at
    # d = 10^12 they used to exhaust memory.  The grid of x^100 and y^1 has
    # 101 * 2 entries, and a grid over the budget is refused
    F7 = GF(7)
    a = MultiPoly.parse(F7, XY, "x**100*y + y")
    b = MultiPoly.parse(F7, XY, "x*y")
    monkeypatch.setenv("GRIDLAB_BUDGET", "100")
    with pytest.raises(BudgetExceeded) as refusal:
        gcd(a, b)
    assert str(refusal.value) == (
        "degree 100 in x, 1 in y: a dense grid of 202 coefficients, over budget 100"
    )
    with pytest.raises(BudgetExceeded, match="degree 100 in x"):
        gcd(b, a)
    monkeypatch.setenv("GRIDLAB_BUDGET", "201")
    with pytest.raises(BudgetExceeded, match="dense grid of 202 coefficients"):
        gcd(a, b)
    monkeypatch.setenv("GRIDLAB_BUDGET", "202")
    assert gcd(a, b) == MultiPoly.parse(F7, XY, "y")


@pytest.mark.parametrize("field", [GF(101), QQ])
def test_gcd_of_a_squared_quartic_with_its_derivative(field):
    # bidegree (3, 7): a single gcd like this one did not finish in 300 s
    # with the recursive PRS images
    V = ("x0", "x1", "x2", "y0", "y1", "y2")
    quartic = MultiPoly.parse(field, V, "x0*y0**3 + x1*y1**3 + x2*y2**3 + x0*y0*y1*y2")
    H = quartic**2 * MultiPoly.parse(field, V, "x0*y0 + 2*x1*y1 - x2*y2")
    assert gcd(H, H.derivative("y0")) == quartic


GCD_GOLDEN = Path(__file__).parent / "data" / "gcd_golden.json"


def golden_gcd_mismatches() -> list:
    """Names of the cases in `data/gcd_golden.json` whose gcd differs from
    the recorded one, compared as JSON, or takes more than 20 s."""
    bad = []
    for case in json.loads(GCD_GOLDEN.read_text())["cases"]:
        a, b = (MultiPoly.from_json(case[k]) for k in ("a", "b"))
        try:
            with _time_limit(20):
                got = gcd(a, b)
        except TimeoutError:
            got = None
        if got is None or got.to_json() != case["gcd"]:
            bad.append(case["name"])
    return bad


def test_gcd_matches_the_golden_outputs():
    assert golden_gcd_mismatches() == []


@settings(max_examples=60, deadline=None)
@given(finite_field_polys(1))
def test_json_roundtrip_finite_fields(case):
    (a,), _ = case
    assert MultiPoly.from_json(a.to_json()) == a


# -- substitution against the per-term reference ------------------------------------


def reference_substitute(f, mapping: dict, new_vars: tuple):
    """`MultiPoly.substitute` as one polynomial sum per term: every term
    raises each image to its power afresh and is added to the result."""
    for v in mapping:
        if v not in f.vars:
            raise UnknownVariable(v)
    lifted = {}
    for v, val in mapping.items():
        if isinstance(val, MultiPoly):
            lifted[v] = val.with_vars(new_vars)
        else:
            lifted[v] = MultiPoly.constant(f.field, new_vars, val)
    result = MultiPoly.zero(f.field, new_vars)
    var_polys = {
        v: MultiPoly.variable(f.field, new_vars, v)
        for v in f.vars
        if v not in mapping and v in new_vars
    }
    const = (0,) * len(new_vars)
    for e, c in f.terms.items():
        term = MultiPoly._raw(f.field, new_vars, {const: c})
        for v, k in zip(f.vars, e):
            if k == 0:
                continue
            base = lifted.get(v) or var_polys.get(v)
            if base is None:
                raise UnknownVariable(f"{v} not in target variables")
            term = term * base**k
        result = result + term
    return result


XYZW = ("x", "y", "z", "w")


@st.composite
def substitutions(draw):
    """A polynomial in x, y, z over Q, F_7 or F_{5^2}; a mapping of some of
    its variables to polynomials or scalars; and a target variable tuple."""
    field = draw(st.sampled_from([QQ, GF(7), GF(5, 2)]))
    if field is QQ:
        coeff = st.one_of(
            st.integers(-9, 9),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
        )
    elif field.kind == "extension":
        coeff = st.tuples(*[st.integers(0, field.p - 1)] * field.s)
    else:
        coeff = st.integers(0, field.p - 1)

    def poly(vars, min_size, max_size):
        exps = st.tuples(*[st.integers(0, 3)] * len(vars))
        terms = draw(st.dictionaries(exps, coeff, min_size=min_size, max_size=max_size))
        return MultiPoly(field, vars, terms)

    f = poly(XYZ, 1, 8)
    assume(not f.is_zero())
    image_vars = draw(st.sampled_from([XY, ("z", "w"), XYZW]))
    mapping = {
        v: poly(image_vars, 1, 3) if draw(st.booleans()) else draw(coeff)
        for v in draw(st.lists(st.sampled_from(XYZ), unique=True))
    }
    new_vars = draw(st.sampled_from([XYZ, image_vars, XYZW]))
    return f, mapping, new_vars


def _substitution(substitute, f, mapping, new_vars):
    try:
        g = substitute(f, mapping, new_vars)
    except UnknownVariable:
        return UnknownVariable
    return g, list(g.terms)


@settings(max_examples=200, deadline=None)
@given(substitutions())
# terms of f that cancel in the result, once for good and once to reappear
@example((P("x**2 - y**2", vars=XYZ), {"x": P("y", vars=XYZ)}, XYZ))
@example(
    (
        MultiPoly(GF(7), XYZ, {(2, 0, 0): 1, (0, 0, 0): 1, (0, 2, 0): 6, (0, 1, 1): 3}),
        {"x": P("y", GF(7), XY), "z": P("y", GF(7), XY)},
        XYZW,
    )
)
def test_substitute_matches_reference(case):
    # the term order too, so that code iterating the terms sees no change
    assert _substitution(MultiPoly.substitute, *case) == _substitution(
        reference_substitute, *case
    )


# -- the expression parser against the eval-based reference -------------------------


def reference_parse(field, vars: tuple, expr: str) -> MultiPoly:
    """Evaluate `expr` as Python with the names in `vars` bound to variables
    and every integer literal, except an exponent, wrapped as a constant."""
    import io
    import tokenize

    pieces = []
    prev_op = None
    toks = tokenize.generate_tokens(io.StringIO(expr).readline)
    for tok in toks:
        if tok.type == tokenize.NUMBER:
            # exponents stay plain integers (mod-p wrapping would corrupt them)
            if prev_op == "**":
                pieces.append(tok.string)
            else:
                pieces.append(f"__c({tok.string})")
            prev_op = None
        elif tok.type in (tokenize.NAME, tokenize.OP):
            pieces.append(tok.string)
            prev_op = tok.string if tok.type == tokenize.OP else None
    env = {v: MultiPoly.variable(field, vars, v) for v in vars}
    env["__c"] = lambda n: MultiPoly.constant(field, vars, n)
    env["__builtins__"] = {}
    return MultiPoly.constant(field, vars, 0) + eval(" ".join(pieces), env)  # noqa: S307


def _expressions(names):
    leaves = st.one_of(
        st.integers(0, 12).map(str),
        st.sampled_from(names),
        st.tuples(st.sampled_from(names), st.integers(0, 3)).map(
            lambda t: f"{t[0]}**{t[1]}"
        ),
    )

    def extend(child):
        return st.one_of(
            st.tuples(child, st.sampled_from(["+", "-", "*"]), child).map(
                lambda t: f"{t[0]} {t[1]} {t[2]}"
            ),
            st.tuples(child, st.integers(0, 2)).map(lambda t: f"({t[0]})**{t[1]}"),
            st.tuples(child, st.integers(1, 9)).map(lambda t: f"{t[0]} / {t[1]}"),
            st.tuples(child, child).map(lambda t: f"{t[0]}/({t[1]})"),
            child.map(lambda c: f"-{c}"),
            child.map(lambda c: f"({c})"),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _outcome(parse, field, vars, expr):
    try:
        return parse(field, vars, expr)
    except (ExactDivisionError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7), GF(5, 2)]), _expressions(XYZ))
def test_parse_matches_reference(field, expr):
    assert _outcome(MultiPoly.parse, field, XYZ, expr) == _outcome(
        reference_parse, field, XYZ, expr
    )


def test_parse_rejects():
    with pytest.raises(UnknownVariable):
        P("x + w")
    for bad in ("", "x +", "2x", "(x", "x)", "x ^ 2", "x**y", "1.5*x", "x**(2)"):
        with pytest.raises(MalformedExpression):
            P(bad)


if __name__ == "__main__":
    # PYTHONPATH=src python -O tests/test_poly.py: the recorded gcds, checked
    # with asserts stripped from gridlab
    mismatches = golden_gcd_mismatches()
    for name in mismatches:
        print(f"gcd differs from tests/data/gcd_golden.json: {name}", file=sys.stderr)
    sys.exit(1 if mismatches else 0)

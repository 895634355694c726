import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlab import classify_s1, projective
from gridlab.errors import (
    BudgetExceeded,
    ExactDivisionError,
    NonSplitForm,
    WrongDimension,
)
from gridlab.fields import GF, QQ
from gridlab.poly import exact_div, gcd
from gridlab.ring import BiHomPoly, MultiPoly
from gridlab.hypersurfaces import reduce_open_set_mod, reduce_poly_mod
from gridlab.projective import OpenSet, ProjPoint
from gridlab.classify_s1 import (
    P1_VARS,
    XVARS,
    YVARS,
    s1_classify,
    s1_max_row,
    s1_reduce,
)
from test_adjacency import proj_points


def F(expr, field=QQ):
    poly = MultiPoly.parse(field, P1_VARS, expr)
    return BiHomPoly(poly, XVARS, YVARS)


# every factor splits over Q, so the F_p oracle sees the same picture
CORPUS = [
    "y0*(x0*y1 - x1*y0)**2",
    "(x0*y1 - x1*y0)*(x0*y1 + x1*y0)",
    "x0*y0 + x1*y1",
    "y0*y1*(x0*y1 - x1*y0)",
    "x0*x1*(y0 - y1)",
    "(x0 - x1)*(y0 + y1)",
    "y0**3",
    "y0*y1*(y0 - y1)",
    "x0*y1 - x1*y0",
    "(x0*y1 - x1*y0)**3",
    "(x0*y1 - x1*y0)*(x0*y1 + x1*y0)*(y0 + y1)",
    "(x0*y0 + x1*y1)*(x0*y1 - x1*y0)",
    "y1*(x0*y0 + x1*y1)**2",
    "(y0 - 2*y1)*(x0*y1 - x1*y0)",
    "(y0 - y1)*(y0 + y1)*(x0*y0 + x1*y1)",
    "x0*y0*y1*(x0*y1 - x1*y0)",
    "(x0 + x1)*(x0*y1 - x1*y0)**2*y0",
    "(x0*y1 - 2*x1*y0)*(x0*y1 - x1*y0)",
    "y0**2*y1**2*(x0*y1 - x1*y0)",
    "(x0*y0 + x1*y1)*(x0*y0 - x1*y1)",
    "2*x0*y1 - 3*x1*y0",
    "y0*(y0 - y1)*(y0 + 2*y1)",
]

PRIMES = (5, 7, 11, 13)


def test_worked_example_verdict():
    v = s1_classify(F("y0*(x0*y1 - x1*y0)**2"))
    assert not v.f_meets_X
    assert [repr(r) for r in v.g_roots_in_Y] == ["(0:1)"]
    assert v.closure_roots == 0
    assert v.m == 1
    assert v.sum_di == 1
    assert v.M == 2
    assert not v.grid_free_for(2)
    assert v.grid_free_for(3)


def test_f_part_detection():
    v = s1_classify(F("x0*x1*(y0 - y1)"))
    assert v.f_meets_X
    assert not v.grid_free_for(10)


@pytest.mark.parametrize("expr", CORPUS)
@pytest.mark.parametrize("p", PRIMES)
def test_corpus_agreement(expr, p):
    form = F(expr)
    verdict = s1_classify(form)
    worst = s1_max_row(form, None, None, p)
    for t in range(1, 6):
        classifier = verdict.grid_free_for(t)
        oracle = worst < t
        assert classifier == oracle, (expr, p, t, verdict.to_json(), worst)
        # one-sided soundness restated: never claim grid-free against the oracle
        if classifier:
            assert oracle


def test_oracle_max_row_example():
    assert s1_max_row(F("y0*(x0*y1 - x1*y0)**2"), None, None, 7) == 2


def reference_max_row(F, X, Y, p):
    """Per-pair loop: the largest number of v in Y(F_p) with F(u, v) = 0
    over u in X(F_p), each section substituted and evaluated in turn."""
    X = X or OpenSet.full(1)
    Y = Y or OpenSet.full(1)
    Fp = GF(p)
    poly = reduce_poly_mod(F.poly, p)
    Xp = reduce_open_set_mod(X, p)
    Yp = reduce_open_set_mod(Y, p)
    left = [u for u in proj_points(Fp, 1) if Xp.contains(u)]
    right = [v for v in proj_points(Fp, 1) if Yp.contains(v)]
    worst = 0
    for u in left:
        sec = poly.substitute(
            {"x0": u.coords[0], "x1": u.coords[1]}, new_vars=YVARS
        )
        count = sum(
            1 for v in right if sec.evaluate(list(v.coords)).is_zero()
        )
        worst = max(worst, count)
    return worst


def _excluding(vars, *points):
    return OpenSet.complement_of_points(
        [ProjPoint(QQ, pt) for pt in points], vars
    )


# t0^3 t1 - t0 t1^3 vanishes on all of P^1(F_3): these empty a side at p = 3
EMPTY_AT_3 = [
    (None, OpenSet(1, [MultiPoly.parse(QQ, YVARS, "y0**3*y1 - y0*y1**3")])),
    (OpenSet(1, [MultiPoly.parse(QQ, XVARS, "x0**3*x1 - x0*x1**3")]), None),
]
OPEN_SETS = [
    (None, None),
    (_excluding(XVARS, (0, 1), (1, 1)), None),
    (None, _excluding(YVARS, (1, 0), (1, -1), (1, 2))),
    (_excluding(XVARS, (1, 3)), _excluding(YVARS, (0, 1), (2, 1))),
    (OpenSet(1, [MultiPoly.parse(QQ, XVARS, "x0**2 + x1**2")]), None),
] + EMPTY_AT_3


@pytest.mark.parametrize("expr", CORPUS)
@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_max_row_matches_reference(expr, p):
    form = F(expr)
    for X, Y in OPEN_SETS:
        assert s1_max_row(form, X, Y, p) == reference_max_row(form, X, Y, p), (X, Y)


def test_max_row_empty_side_is_zero():
    form = F("y0*(x0*y1 - x1*y0)**2")
    for X, Y in EMPTY_AT_3:
        assert s1_max_row(form, X, Y, 3) == 0
        assert s1_max_row(form, X, Y, 5) == reference_max_row(form, X, Y, 5) > 0


def test_open_sets_change_the_verdict():
    form = F("y0*(x0*y1 - x1*y0)**2")
    Y = OpenSet.complement_of_points([ProjPoint(QQ, [0, 1])], YVARS)
    v = s1_classify(form, None, Y)
    assert v.m == 0 and v.M == 1
    assert v.grid_free_for(2)


def test_excluding_f_roots():
    form = F("x0*(y0 - y1)")
    X = OpenSet.complement_of_points([ProjPoint(QQ, [0, 1])], XVARS)
    assert s1_classify(form).f_meets_X
    assert not s1_classify(form, X, None).f_meets_X


# -- reduction ------------------------------------------------------------------------


def test_reduce_drops_multiplicity():
    red = s1_reduce(F("y0*(x0*y1 - x1*y0)**2"))
    assert red.bidegree == (1, 2)
    expected = MultiPoly.parse(QQ, P1_VARS, "y0*(x0*y1 - x1*y0)").monic()
    assert red.poly == expected


def test_reduce_respects_open_set():
    form = F("y0*(x0*y1 - x1*y0)**2")
    Y = OpenSet.complement_of_points([ProjPoint(QQ, [0, 1])], YVARS)
    red = s1_reduce(form, Y)
    assert red.bidegree == (1, 1)
    assert red.poly == MultiPoly.parse(QQ, P1_VARS, "x0*y1 - x1*y0").monic()


def test_reduce_degree_below_t_when_grid_free():
    for expr in CORPUS:
        form = F(expr)
        verdict = s1_classify(form)
        if verdict.f_meets_X or verdict.closure_roots:
            continue
        red = s1_reduce(form)
        assert red.bidegree[1] == verdict.M
        for t in range(1, 6):
            if verdict.grid_free_for(t):
                assert red.bidegree[1] < t


@pytest.mark.parametrize("expr", ["y0*(x0*y1 - x1*y0)**2", "(x0*y1 - x1*y0)**3"])
@pytest.mark.parametrize("p", (5, 7))
def test_reduce_same_zero_set_on_points(expr, p):
    form = F(expr)
    red = s1_reduce(form)
    Fp = GF(p)
    orig = reduce_poly_mod(form.poly, p)
    new = reduce_poly_mod(red.poly, p)
    for u in proj_points(Fp, 1):
        for v in proj_points(Fp, 1):
            coords = [u.coords[0], u.coords[1], v.coords[0], v.coords[1]]
            assert orig.evaluate(coords).is_zero() == new.evaluate(coords).is_zero()


def test_reduce_nonsplit_raises():
    form = F("(y0**2 + y1**2)*(x0*y1 - x1*y0)")
    with pytest.raises(NonSplitForm):
        s1_reduce(form)


def test_reduce_nonsplit_excludable():
    form = F("(y0**2 + y1**2)*(x0*y1 - x1*y0)")
    Y = OpenSet(1, [MultiPoly.parse(QQ, YVARS, "y0**2 + y1**2")])
    red = s1_reduce(form, Y)
    assert red.bidegree == (1, 1)


def test_closure_roots_counted():
    v = s1_classify(F("(y0**2 + y1**2)*(x0*y1 - x1*y0)"))
    assert v.closure_roots == 2
    assert v.m == 2
    assert v.M == 3


def test_f_closure_roots_meet_X():
    form = F("(x0**2 + x1**2)*(x0*y1 - x1*y0)")
    assert s1_classify(form).f_meets_X
    X = OpenSet(1, [MultiPoly.parse(QQ, XVARS, "x0**2 + x1**2")])
    assert not s1_classify(form, X, None).f_meets_X


def test_wrong_dimension():
    vars = ("x0", "x1", "x2", "y0", "y1", "y2")
    poly = MultiPoly.parse(QQ, vars, "x0*y0 + x1*y1 + x2*y2")
    form = BiHomPoly(poly, vars[:3], vars[3:])
    with pytest.raises(WrongDimension):
        s1_classify(form)


def test_classifier_over_prime_field():
    # same form, coefficients already in F_7: roots found by exhaustion
    form = F("y0*(x0*y1 - x1*y0)**2", GF(7))
    v = s1_classify(form)
    assert v.m == 1 and v.sum_di == 1 and v.M == 2


def _max_row_over(field, form):
    """Direct count over P^1(field): the largest number of v with F(u, v) = 0."""
    pts = list(proj_points(field, 1))
    worst = 0
    for u in pts:
        sec = form.poly.substitute(dict(zip(XVARS, u.coords)), new_vars=YVARS)
        hits = sum(1 for v in pts if sec.evaluate(list(v.coords)).is_zero())
        worst = max(worst, hits)
    return worst


@pytest.mark.parametrize(
    "expr",
    [
        "(y0 + 2*y1)*(x0*y1 - x1*y0)",
        # y0^2 - 2*y1^2 is irreducible over F_5 but splits over F_25
        "(y0**2 - 2*y1**2)*(x0*y1 - x1*y0)",
        "y1*(x0*y1 + 3*x1*y0)**2",
    ],
)
def test_classifier_over_extension_field(expr):
    K = GF(5, 2)
    form = F(expr, K)
    verdict = s1_classify(form)
    assert verdict.M == _max_row_over(K, form)
    red = s1_reduce(form)
    assert red.bidegree[1] == verdict.M
    assert _max_row_over(K, red) == verdict.M


# -- root finder against the reference -----------------------------------------------


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


def reference_binary_roots(form: MultiPoly, vars2: tuple):
    """Distinct projective roots of a nonzero binary form in `vars2`, and
    the rootless remainder over `form.vars`: over F_q by evaluation at every
    point; over Q by peeling v0 and v1 with repeated gcds, then
    rational-root peeling of an integer coefficient list by synthetic
    division, and the remainder rebuilt from that list."""
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
            for sign in (1, -1):
                r = Fraction(sign * num, den)
                while len(q) > 1 and _poly_eval(q, r) == 0:
                    q = _synth_div(q, r)
                    if ProjPoint(fld, [1, r]) not in roots:
                        roots.append(ProjPoint(fld, [1, r]))
    if len(q) - 1 == 0:
        return roots, MultiPoly.constant(fld, form.vars, 1)
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


ROOT_FIELDS = (QQ, GF(2), GF(5), GF(7), GF(5, 2))

linear_factors = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)),
    min_size=0,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ROOT_FIELDS),
    st.sampled_from((XVARS, YVARS)),
    linear_factors,
    st.one_of(st.none(), st.sampled_from((1, 2, 3, 5, 6, 7))),
    st.sampled_from((1, 2, -3, Fraction(1, 6))),
)
def test_binary_roots_match_reference(field, vars2, factors, quadratic, scale):
    """Products of linear forms (a t0 + b t1)^k, optionally times
    t0^2 + c t1^2 (irreducible over Q), and a constant."""
    t0, t1 = (MultiPoly.variable(field, P1_VARS, v) for v in vars2)
    form = MultiPoly.constant(field, P1_VARS, 1) * (
        scale if field is QQ else scale.numerator
    )
    for a, b, k in factors:
        form = form * (t0 * a + t1 * b) ** k
    if quadratic is not None:
        form = form * (t0 * t0 + t1 * t1 * quadratic)
    if form.is_zero() or form.degree() == 0:
        return
    roots, rest = classify_s1._binary_roots(form, vars2)
    ref_roots, ref_rest = reference_binary_roots(form, vars2)
    assert roots == ref_roots
    assert rest.with_vars(P1_VARS) == ref_rest


def test_binary_roots_order_over_q():
    form = MultiPoly.parse(QQ, P1_VARS, "y1*(2*y0 - y1)*(y0 + y1)**2*y0*(y0 - 3*y1)")
    roots, rest = classify_s1._binary_roots(form, YVARS)
    assert [repr(r) for r in roots] == ["(0:1)", "(1:0)", "(1:-1)", "(1:1/3)", "(1:2)"]
    assert roots == reference_binary_roots(form, YVARS)[0]
    assert rest.is_constant()


# -- the rational-root test and the enumeration budget -------------------------------


def test_rational_root_test_refused_before_trial_division(monkeypatch):
    monkeypatch.setenv("GRIDLAB_BUDGET", "1000")
    small = F("x0*(y0 - 3*y1)*(y0 + y1)")
    assert [repr(r) for r in s1_classify(small).g_roots_in_Y] == ["(1:-1)", "(1:1/3)"]

    def no_trial_division(n):
        raise AssertionError("trial division ran after the budget refused it")

    monkeypatch.setattr(classify_s1, "_divisors", no_trial_division)
    large = F(f"x0*(y0 - {10**8 + 1}*y1)*(y0 + y1)")
    with pytest.raises(BudgetExceeded, match="over budget 1000"):
        s1_classify(large)
    with pytest.raises(BudgetExceeded):
        s1_reduce(large)


def test_rational_root_test_lists_each_divisor_set_once(monkeypatch):
    # each end coefficient's divisors are found once per call, not once per
    # divisor of the other end, and the d(z0) d(zn) candidate pairs are
    # counted against the budget before any is tried: d(720) = 30
    calls, real = [], classify_s1._divisors
    monkeypatch.setattr(classify_s1, "_divisors", lambda n: calls.append(n) or real(n))
    roots = classify_s1._rational_roots(QQ, [6, -5, 1])  # (t - 2)(t - 3)
    assert [repr(r) for r in roots] == ["(1:2)", "(1:3)"]
    assert calls == [6, 1]
    calls.clear()
    assert classify_s1._rational_roots(QQ, [720, 1, 720]) == []
    assert calls == [720, 720]
    calls.clear()
    monkeypatch.setenv("GRIDLAB_BUDGET", "899")
    with pytest.raises(BudgetExceeded, match="rational-root test tries 900 divisor pairs, over budget 899"):
        classify_s1._rational_roots(QQ, [720, 1, 720])
    assert calls == [720, 720]


def test_root_search_over_F_q_refused_before_enumeration(monkeypatch):
    # P^1(F_q) has q + 1 points
    monkeypatch.setenv("GRIDLAB_BUDGET", "25")
    form = "y0*(x0*y1 - x1*y0)"
    assert [repr(r) for r in s1_classify(F(form, GF(23))).g_roots_in_Y] == ["(0:1)"]

    def no_decoding(*args):
        raise AssertionError("a point of P^1(F_q) was decoded after the budget refused it")

    monkeypatch.setattr(projective, "base_digits", no_decoding)
    with pytest.raises(BudgetExceeded, match=r"P\^1\(F_25\) has 26 points, over budget 25"):
        s1_classify(F(form, GF(5, 2)))
    with pytest.raises(BudgetExceeded):
        s1_reduce(F(form, GF(29)))


def _classify_in_subprocess(tmp_path, poly):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(poly.to_json()))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("GRIDLAB_BUDGET", None)
    return subprocess.run(
        [sys.executable, "-m", "gridlab.cli", "s1", "classify", "--poly", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_huge_coefficient_exits_2(tmp_path):
    poly = MultiPoly.parse(QQ, P1_VARS, f"x0*(y0 - {10**30 + 1}*y1)*(y0 + y1)")
    res = _classify_in_subprocess(tmp_path, poly)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: BudgetExceeded")


def test_huge_field_exits_2(tmp_path):
    poly = MultiPoly.parse(GF(10**9 + 7), P1_VARS, "y0*(x0*y1 - x1*y0)")
    res = _classify_in_subprocess(tmp_path, poly)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(
        "error: BudgetExceeded: the projective chart of P^1(F_1000000007) has 1000000008 points"
    )

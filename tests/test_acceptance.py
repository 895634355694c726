"""Acceptance suite: one test per criterion, each with its own independent
oracle and the stated runtime budget."""

import random
import time
from itertools import product

import pytest
import sympy

from gridlab.errors import BudgetExceeded
from gridlab.extfields import norm, pi_s
from gridlab.fields import GF, QQ
from gridlab.ring import MultiPoly
from gridlab.hypersurfaces import construct, norm_poly
from gridlab.projective import Hypersurface, ProjPoint
from gridlab.gridcheck import build_graph, find_grid, max_common_neighborhood
from gridlab.curves import (
    PlaneCurve,
    common_component_rank_test,
    intersection_multiplicity,
    moura_max,
)
from gridlab.classify_s1 import s1_classify, s1_max_row, s1_reduce
from gridlab.cremona import (
    apply_map,
    example_line_map,
    grid_transport_check,
    nagata,
    standard_quadratic,
)
from gridlab.sweep import run_sweep
from test_adjacency import proj_points
from test_cremona import nagata_invariant

V6 = ("x0", "x1", "x2", "y0", "y1", "y2")
Y3 = ("y0", "y1", "y2")
XVARS = ("x0", "x1")
P1_VARS = XVARS + ("y0", "y1")


def bihom1(expr):
    return Hypersurface(MultiPoly.parse(QQ, P1_VARS, expr), 1, 1)


def test_criterion_01_family_1a_edges_and_grid_free():
    for p in (3, 5, 7, 11):
        start = time.monotonic()
        c = construct("1a", p)
        G = build_graph(c.hypersurface, p)
        # enumeration oracle: count solutions of x1*y1 + x2*y2 = 1 directly
        count = 0
        for x1, x2, y1, y2 in product(range(p), repeat=4):
            if (x1 * y1 + x2 * y2) % p == 1:
                count += 1
        assert count == p**3 - p
        assert G.edge_count() == count
        assert find_grid(G, 2, 2) is None
        assert time.monotonic() - start < 1.0


def test_criterion_02_family_1b_sphere_grid_free():
    for p in (3, 7):
        c = construct("1b", p)
        G = build_graph(c.hypersurface, p)
        best, _ = max_common_neighborhood(G, 3)
        assert best <= 2
    # p = 11 exceeds the default enumeration budget and must be gated
    c11 = construct("1b", 11)
    G11 = build_graph(c11.hypersurface, 11)
    with pytest.raises(BudgetExceeded):
        max_common_neighborhood(G11, 3)


def test_criterion_03_families_1c_1d():
    start = time.monotonic()
    for p in (3, 5, 7):
        c = construct("1c", p, 2)
        G = build_graph(c.hypersurface, p)
        for i in range(len(G.left)):
            assert G.rows[i].bit_count() == p + 1  # (p^2 - 1)/(p - 1)
        best, _ = max_common_neighborhood(G, 2)
        assert best <= 2  # s! with s = 2

        d = construct("1d", p, 2)
        Gd = build_graph(d.hypersurface, p)
        bestd, _ = max_common_neighborhood(Gd, 2)
        assert bestd <= 1  # (s-1)! with s = 2
    assert time.monotonic() - start < 30.0


def test_criterion_04_norm_poly():
    for p, s in ((3, 2), (5, 2), (3, 3)):
        np_ = norm_poly(p, s)
        assert np_.degree() <= s
        assert np_.field == GF(p)
        K = GF(p, s)
        Fp = GF(p)
        for coords in product(range(p), repeat=s):
            vec = [Fp.elem(c) for c in coords]
            assert norm(pi_s(K, vec)) == np_.evaluate(vec)


S1_CORPUS = [
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


def test_criterion_05_s1_classifier_vs_oracle():
    assert len(S1_CORPUS) >= 20
    start = time.monotonic()
    for expr in S1_CORPUS:
        form = bihom1(expr)
        verdict = s1_classify(form)
        for p in (5, 7, 11, 13):
            worst = s1_max_row(form, None, None, p)
            for t in range(1, 6):
                classifier = verdict.grid_free_for(t)
                oracle = worst < t
                assert classifier == oracle
                if classifier:  # one-sided soundness
                    assert oracle
    assert time.monotonic() - start < 10.0


def test_criterion_06_s1_reduce():
    from gridlab.hypersurfaces import reduce_poly_mod

    for expr in S1_CORPUS:
        form = bihom1(expr)
        verdict = s1_classify(form)
        if verdict.f_meets_X or verdict.closure_roots:
            continue
        red = s1_reduce(form)
        assert red.bidegree[1] == verdict.M
        for t in range(1, 6):
            if verdict.grid_free_for(t):
                assert red.bidegree[1] < t
        # the reduced form vanishes exactly where F does on sampled points
        if form.poly.degree_in_vars(XVARS) > red.poly.degree_in_vars(XVARS):
            continue  # dropped f-part changes nothing on X but skip the sample
        for p in (5, 7):
            orig = reduce_poly_mod(form.poly, p)
            new = reduce_poly_mod(red.poly.with_vars(P1_VARS), p)
            for u in proj_points(GF(p), 1):
                for v in proj_points(GF(p), 1):
                    coords = list(u.coords) + list(v.coords)
                    assert (
                        orig.evaluate(coords).is_zero()
                        == new.evaluate(coords).is_zero()
                    )


def test_criterion_07_moura_formula():
    for d1 in range(1, 11):
        for d2 in range(1, 11):
            got = moura_max(d1, d2)
            if d1 > d2:
                want = (d2 * d2 + 3 * d2) // 2
            else:
                want = d1 * d2 - (d1 * d1 - 3 * d1 + 2) // 2
            assert got == want
            if d1 >= 3:
                assert got < d1 * d2


def _resultant_valuation_oracle(fe, ge, v):
    y0, y1, y2 = sympy.symbols("y0 y1 y2")
    R = sympy.expand(sympy.resultant(sympy.sympify(fe), sympy.sympify(ge), y2))
    lin = v.coords[1].val * y0 - v.coords[0].val * y1
    count = 0
    while R != 0:
        q, r = sympy.div(R, lin, y0, y1)
        if sympy.expand(r) != 0:
            break
        R = sympy.expand(q)
        count += 1
    return count


def test_criterion_08_intersection_multiplicity():
    circle = "y0**2 + y1**2 - y2**2"

    def curve(e):
        return PlaneCurve(MultiPoly.parse(QQ, Y3, e))

    def point(*coords):
        return ProjPoint(QQ, list(coords))

    assert intersection_multiplicity(curve(circle), curve("y2 - y0"), point(1, 0, 1)) == 2
    assert intersection_multiplicity(curve("y0"), curve("y1"), point(0, 0, 1)) == 1

    bezout_pairs = [
        (circle, "y1", [(1, 0, 1), (1, 0, -1)]),
        (circle, "y2 - y0", [(1, 0, 1)]),
        (circle, "y2 - 5/4*y0", [(4, 3, 5), (4, -3, 5)]),
        (circle, "y1*(y2 - y0)", [(1, 0, 1), (1, 0, -1)]),
        ("y1**3 - y0**2*y2", "y1", [(0, 0, 1), (1, 0, 0)]),
        ("y1**3 - y0**2*y2", "y0", [(0, 0, 1), (0, 1, 0)]),
    ]
    assert len(bezout_pairs) >= 5
    for fe, ge, pts in bezout_pairs:
        f, g = curve(fe), curve(ge)
        total = sum(intersection_multiplicity(f, g, point(*c)) for c in pts)
        assert total == f.degree * g.degree

    # resultant-valuation cross-check on projections in general position
    for fe, ge, coords in (
        (circle, "y2 - y0", (1, 0, 1)),
        (circle, "y2 - 5/4*y0", (4, 3, 5)),
        (circle, "y2 - 5/4*y0", (4, -3, 5)),
    ):
        v = point(*coords)
        m = intersection_multiplicity(curve(fe), curve(ge), v)
        assert m == _resultant_valuation_oracle(fe, ge, v)


def _random_homogeneous(rng, degree, ensure_y2=True):
    monos = []

    def rec(nvars, d):
        if nvars == 1:
            yield (d,)
            return
        for k in range(d, -1, -1):
            for rest in rec(nvars - 1, d - k):
                yield (k,) + rest

    terms = {}
    for mono in rec(3, degree):
        c = rng.randint(-3, 3)
        if c:
            terms[mono] = QQ.elem(c)
    if ensure_y2:
        terms[(0, 0, degree)] = QQ.elem(rng.randint(1, 3))
    return MultiPoly(QQ, Y3, terms)


def test_criterion_09_rank_test_random_instances():
    start = time.monotonic()
    rng = random.Random(2024)
    u = ProjPoint(QQ, [1, 0, 0])
    from math import comb

    planted = coprime = 0
    while planted < 100 or coprime < 100:
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        if planted < 100:
            common = _random_homogeneous(rng, 1)
            h1 = common * _random_homogeneous(rng, d1 - 1) if d1 > 1 else common
            h2 = common * _random_homogeneous(rng, d2 - 1) if d2 > 1 else common
            rep = common_component_rank_test(h1, h2, u)
            assert rep.shares_component
            assert rep.M == comb(rep.d1 + rep.d2 + 1, 2)
            assert rep.N == comb(rep.d1 + 1, 2) + comb(rep.d2 + 1, 2)
            planted += 1
        if coprime < 100:
            h1 = _random_homogeneous(rng, d1)
            h2 = _random_homogeneous(rng, d2)
            fe, ge = (sympy.sympify(str(h).replace("^", "**")) for h in (h1, h2))
            if sympy.resultant(fe, ge, sympy.Symbol("y2")) == 0:
                continue  # a common factor slipped in; resample
            rep = common_component_rank_test(h1, h2, u)
            assert not rep.shares_component
            assert rep.M == comb(d1 + d2 + 1, 2)
            assert rep.N == comb(d1 + 1, 2) + comb(d2 + 1, 2)
            coprime += 1
    assert time.monotonic() - start < 30.0


def test_criterion_10_cremona_reproductions():
    start = time.monotonic()
    H0 = Hypersurface(MultiPoly.parse(QQ, V6, "x0*y0 + x1*y1 + x2*y2"), 2, 2)
    got = apply_map(standard_quadratic(QQ), H0)
    assert got.poly == MultiPoly.parse(
        QQ, V6, "x0*y1*y2 + x1*y0*y2 + x2*y0*y1"
    ).monic()

    for d in range(2, 7):
        lm = example_line_map(QQ, d, [0] * d + [1])  # f(w) = w^d
        moved = apply_map(lm, H0)
        assert moved.bidegree == (1, d)
        expected = MultiPoly.parse(
            QQ,
            V6,
            f"x0*y0**{d} + x1*y0**{d - 1}*y1 + x2*(y0**{d - 1}*y2 + y1**{d})",
        )
        assert moved.poly == expected.monic()

    rep = grid_transport_check(H0, standard_quadratic(QQ), 7, 2, 2)
    assert rep["consistent"]

    na = nagata(QQ)
    delta = nagata_invariant(QQ)
    assert na.apply_poly(delta) == delta
    assert time.monotonic() - start < 10.0


def test_criterion_11_default_sweep():
    start = time.monotonic()
    report = run_sweep([5, 7, 11, 13])
    assert report["all_pass"]
    assert time.monotonic() - start < 900.0

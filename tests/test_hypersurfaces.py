import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from gridlab import hypersurfaces
from gridlab.errors import (
    BadCharacteristic,
    BadReduction,
    BudgetExceeded,
    DimensionMismatch,
    UnsupportedParameters,
)
from gridlab.fields import GF, QQ
from gridlab.ring import MultiPoly
from test_adjacency import chart_points, proj_points
from gridlab.hypersurfaces import (
    ChartPoints,
    chart_codes,
    construct,
    reduce_hypersurface_mod,
    reduce_open_set_mod,
    reduce_poly_mod,
    reduce_polys_mod,
    smallest_nonresidue,
)
from gridlab.projective import Hypersurface, OpenSet, ProjPoint, chart_size

V4 = ("x0", "x1", "y0", "y1")


def H(expr, field=QQ, vars=V4):
    s = len(vars) // 2 - 1
    return Hypersurface(MultiPoly.parse(field, vars, expr), s, s)


# -- points ------------------------------------------------------------------------


def test_projpoint_normalization():
    p = ProjPoint(QQ, [2, 4, 6])
    assert [c.val for c in p.coords] == [1, 2, 3]
    assert p == ProjPoint(QQ, [1, 2, 3])
    assert hash(p) == hash(ProjPoint(QQ, [3, 6, 9]))


def test_projpoint_rejects_zero():
    with pytest.raises(DimensionMismatch):
        ProjPoint(QQ, [0, 0, 0])


def test_projpoint_parse():
    p = ProjPoint.parse(GF(7), "2:4:6")
    assert [c.val for c in p.coords] == [1, 2, 3]


def test_proj_points_count():
    for p, s in ((3, 1), (5, 1), (3, 2), (5, 2)):
        pts = list(proj_points(GF(p), s))
        expected = sum(p**k for k in range(s + 1))
        assert len(pts) == expected
        assert len(set(pts)) == expected
    for K in (GF(3, 2), GF(2, 3)):
        pts = list(proj_points(K, 1))
        assert len(set(pts)) == len(pts) == K.p**K.s + 1
    assert [q.raw for q in proj_points(GF(3), 1)] == [(1, 0), (1, 1), (1, 2), (0, 1)]


def reference_proj_points(field, s: int):
    """The points of P^s over a finite field as ProjPoints, one at a time."""
    elems = list(field.elements())
    zero, one = field.zero, field.one
    for lead in range(s + 1):
        for tail in product(elems, repeat=s - lead):
            yield ProjPoint(field, [zero] * lead + [one, *tail])


def reference_chart_residues(p: int, s: int, chart: str) -> list:
    """The points of P^s(F_p), or of its affine chart, as residue tuples."""
    pts = []
    for lead in range(1 if chart == "affine" else s + 1):
        head = (0,) * lead + (1,)
        pts += [head + tail for tail in product(range(p), repeat=s - lead)]
    return pts


@pytest.mark.parametrize("field", (GF(2), GF(3), GF(5), GF(3, 2), GF(5, 2)), ids=repr)
def test_chart_points_match_the_references(field):
    for s in range(4):
        projective = list(reference_proj_points(field, s))
        assert proj_points(field, s) == projective
        raw = [q.raw for q in projective]
        affine_size = (field.p ** getattr(field, "s", 1)) ** s
        assert chart_points(field, s) == raw
        assert chart_points(field, s, "affine") == raw[:affine_size]
        if field.kind == "prime":
            for chart in ("affine", "projective"):
                pts = chart_points(field, s, chart)
                assert pts == reference_chart_residues(field.p, s, chart)
                # the chart index of listed point k is k
                assert chart_codes(list(zip(*pts)), field.p) == list(range(len(pts)))


def test_chart_points_are_counted_before_listing(monkeypatch):
    monkeypatch.setenv("GRIDLAB_BUDGET", "25")
    assert chart_size(25, 1, "affine") == 25
    with pytest.raises(BudgetExceeded, match=r"the projective chart of P\^1\(F_25\) has 26 points"):
        chart_size(25, 1, "projective")

    def no_decoding(*args):
        raise AssertionError("a chart point was decoded after the budget refused the chart")

    monkeypatch.setattr(hypersurfaces, "chart_point", no_decoding)
    monkeypatch.setattr(hypersurfaces, "chart_columns", no_decoding)
    assert len(ChartPoints(5, 2, "affine")) == 25
    with pytest.raises(BudgetExceeded, match=r"the projective chart of P\^2\(F_5\) has 31 points"):
        ChartPoints(5, 2)


# -- open sets -----------------------------------------------------------------------


def test_open_set_complement_of_points():
    F = GF(5)
    pts = [ProjPoint(F, [1, 2]), ProjPoint(F, [0, 1])]
    X = OpenSet.complement_of_points(pts, ("x0", "x1"))
    for q in proj_points(F, 1):
        assert X.contains(q) == (q not in pts)


def test_open_set_json_roundtrip():
    F = GF(5)
    X = OpenSet.complement_of_points([ProjPoint(F, [1, 1])], ("x0", "x1"))
    X2 = OpenSet.from_json(X.to_json())
    for q in proj_points(F, 1):
        assert X.contains(q) == X2.contains(q)


def test_open_set_reduce_mod():
    X = OpenSet(1, [MultiPoly.parse(QQ, ("x0", "x1"), "x0 - x1")])
    Xp = reduce_open_set_mod(X, 5)
    assert not Xp.contains(ProjPoint(GF(5), [1, 1]))
    assert Xp.contains(ProjPoint(GF(5), [1, 2]))


# -- hypersurfaces -------------------------------------------------------------------


def test_hypersurface_monic_and_bidegree():
    h = H("2*x0*y0 + 2*x1*y1")
    assert h.bidegree == (1, 1)
    assert (h.sx, h.sy) == (1, 1)
    assert h.poly == MultiPoly.parse(QQ, V4, "x0*y0 + x1*y1")


def test_section():
    h = H("x0*y1 - x1*y0")
    u = ProjPoint(QQ, [1, 2])
    sec = h.section(u)
    assert sec == MultiPoly.parse(QQ, ("y0", "y1"), "y1 - 2*y0")


def test_section_degree_drop_visible():
    # x-dependence concentrated on y0: a section can drop y-degree
    h = H("x0*y0*y1 + x1*y1**2")
    u = ProjPoint(QQ, [0, 1])
    assert h.section(u) == MultiPoly.parse(QQ, ("y0", "y1"), "y1**2")


def test_hypersurface_json_roundtrip():
    h = H("x0*y1**2 - x1*y0**2 + 3*x0*y0*y1")
    h2 = Hypersurface.from_json(h.to_json())
    assert h2.poly == h.poly
    assert h2.bidegree == h.bidegree


def test_reduce_mod_primitive_model():
    f = MultiPoly.parse(QQ, ("x",), "1/3*x + 5")  # primitive model: x + 15
    assert reduce_poly_mod(f, 7) == MultiPoly.parse(GF(7), ("x",), "x + 1")
    assert reduce_poly_mod(f, 3) == MultiPoly.parse(GF(3), ("x",), "x")
    g = MultiPoly.parse(QQ, ("x", "y"), "6*x + 10*y")  # content 2
    assert reduce_poly_mod(g, 2) == MultiPoly.parse(GF(2), ("x", "y"), "x + y")
    with pytest.raises(BadReduction):
        reduce_poly_mod(MultiPoly.parse(GF(5), ("x",), "x"), 7)


def test_reduce_polys_mod_shares_one_factor():
    # the components of a map are scaled together, so the map is kept
    a = MultiPoly.parse(QQ, ("x", "y"), "1/3*x")
    b = MultiPoly.parse(QQ, ("x", "y"), "y")
    assert reduce_polys_mod([a, b], 7) == [
        MultiPoly.parse(GF(7), ("x", "y"), "x"),
        MultiPoly.parse(GF(7), ("x", "y"), "3*y"),
    ]
    # a form already over F_7 stays as it is, in its place in the list
    c = MultiPoly.parse(GF(7), ("x", "y"), "x + y")
    assert reduce_polys_mod([a, c, b], 7) == [
        MultiPoly.parse(GF(7), ("x", "y"), "x"),
        c,
        MultiPoly.parse(GF(7), ("x", "y"), "3*y"),
    ]


def test_reduce_hypersurface_clears_denominator():
    h = H("x0*y1 + 1/5*x0*y0")  # primitive model 5*x0*y1 + x0*y0
    assert reduce_hypersurface_mod(h, 5) == H("x0*y0", GF(5))
    assert reduce_hypersurface_mod(h, 7) == H("x0*y1 + 3*x0*y0", GF(7))


# -- constructions -------------------------------------------------------------------


def test_construct_1a():
    c = construct("1a", 5)
    assert c.s == 2
    assert c.hypersurface.bidegree == (1, 1)
    assert c.affine == MultiPoly.parse(
        GF(5), ("x1", "x2", "y1", "y2"), "x1*y1 + x2*y2 - 1"
    )


def test_construct_1b_radius():
    assert smallest_nonresidue(5) == 2
    c7 = construct("1b", 7)  # 7 = 3 mod 4: unit sphere
    assert "6" in repr(c7.affine) or "- 1" in repr(c7.affine)
    c5 = construct("1b", 5)  # radius = smallest non-residue
    assert c5.s == 3
    with pytest.raises(BadCharacteristic):
        construct("1b", 2)


def test_construct_guards():
    with pytest.raises(UnsupportedParameters):
        construct("1a", 5, 3)
    with pytest.raises(UnsupportedParameters):
        construct("1c", 5, 1)
    with pytest.raises(UnsupportedParameters):
        construct("zz", 5)


def test_construct_1c_degree():
    c = construct("1c", 3, 2)
    assert c.affine.degree() <= 2
    assert (c.hypersurface.sx, c.hypersurface.sy) == (2, 2)


def test_construct_1d_shape():
    c = construct("1d", 3, 2)
    # norm of x2+y2 minus x1*y1
    assert c.affine.degree_in("x1") == 1
    assert c.affine.degree_in("y1") == 1


def test_norm_expansion_is_counted_before_the_norm_form(monkeypatch):
    # the norm form in k = 3 variables, z_j -> x_j + y_j substituted, is a
    # form of degree 3 in 6 variables: at most C(8, 3) = 56 terms of 6
    # exponents each, 336 exponents of 3 words, 1008 words
    c1, d1 = construct("1c", 3, 3), construct("1d", 3, 4)
    monkeypatch.setenv("GRIDLAB_BUDGET", "1008")
    assert construct("1c", 3, 3).affine == c1.affine
    assert construct("1d", 3, 4).affine == d1.affine

    def no_expansion(*args):
        raise AssertionError("norm form expanded after the budget refused it")

    monkeypatch.setenv("GRIDLAB_BUDGET", "1007")
    monkeypatch.setattr(hypersurfaces, "norm_poly", no_expansion)
    want = "1c expands a norm form into up to 56 terms of 6 exponents = 336, 1008 words, over budget 1007"
    with pytest.raises(BudgetExceeded, match=want):
        construct("1c", 3, 3)
    with pytest.raises(BudgetExceeded, match="1d expands a norm form into up to 56 terms of 6 exponents"):
        construct("1d", 3, 4)


def test_norm_expansion_bound_admits_s_8_and_refuses_s_10(monkeypatch):
    # a term costs its 2k exponents, 3 words each: s = 8 (490314 terms of
    # 16, about 3 s and 115 MB) builds under the default budget, and s = 9
    # (3124550 terms of 18, 45 s and 1311 MB) and s = 10 (20030010 terms of
    # 20, gigabytes) are refused before the norm form is expanded
    monkeypatch.delenv("GRIDLAB_BUDGET", raising=False)
    hypersurfaces._check_norm_expansion("1c", 8)
    monkeypatch.setattr(hypersurfaces, "norm_poly", None)
    want = "3124550 terms of 18 exponents = 56241900, 168725700 words, over budget 100000000"
    with pytest.raises(BudgetExceeded, match=want):
        construct("1c", 3, 9)
    want = "20030010 terms of 20 exponents = 400600200, 1201800600 words, over budget 100000000"
    with pytest.raises(BudgetExceeded, match=want):
        construct("1c", 3, 10)


def test_construct_1c_at_s_11_exits_2():
    # the norm form alone took over a minute to expand, its substitution
    # far longer; C(32, 11) = 129024480 terms is over the default budget
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("GRIDLAB_BUDGET", None)
    res = subprocess.run(
        [sys.executable, "-m", "gridlab.cli", "construct", "--family", "1c", "--p", "3", "--s", "11"],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: BudgetExceeded: family 1c expands a norm form into up to")
    assert "Traceback" not in res.stderr

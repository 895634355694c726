import random

import pytest

from gridlab.errors import (
    DegreeTooHigh,
    SampleTooSmall,
    ZeroPullback,
)
from gridlab.fields import GF, QQ
from gridlab.ring import MultiPoly
from gridlab.hypersurfaces import MatrixPair, reduce_hypersurface_mod
from gridlab.projective import Hypersurface, ProjPoint
from gridlab import gridcheck, sweep
from gridlab.gridcheck import (
    BipartiteGraph,
    _AdjacencyRows,
    _terms_int,
    find_grid,
    symmetry_permutation,
)
from gridlab.cremona import (
    AffineAutomorphism,
    RationalMap,
    affine_vars,
    apply_map,
    apply_with_contents,
    example_line_map,
    grid_transport_check,
    nagata,
    standard_quadratic,
)
from test_adjacency import PointList, chart_points, chart_side, proj_points, transpose

V6 = ("x0", "x1", "x2", "y0", "y1", "y2")


# -- helpers that only the tests use ---------------------------------------------------


def identity_map(field, vars: tuple = ("y0", "y1", "y2")) -> RationalMap:
    return RationalMap([MultiPoly.variable(field, vars, v) for v in vars])


def apply_point(sigma: RationalMap, v: ProjPoint) -> ProjPoint | None:
    """sigma's image of v, or None when v lies in the base locus."""
    coords = [c.evaluate(list(v.coords)) for c in sigma.components]
    if all(c.is_zero() for c in coords):
        return None
    return ProjPoint(sigma.field, coords)


def apply_auto(a: AffineAutomorphism, point) -> tuple:
    """a's image of an affine point."""
    return tuple(c.evaluate(point) for c in a.components)


def identity_auto(field, s: int) -> AffineAutomorphism:
    vars = affine_vars(s)
    return AffineAutomorphism([MultiPoly.variable(field, vars, v) for v in vars], "identity")


def compose(a: AffineAutomorphism, b: AffineAutomorphism) -> AffineAutomorphism:
    """(a . b)(x) = a(b(x))."""
    sub = dict(zip(a.vars, b.components))
    return AffineAutomorphism([c.substitute(sub, new_vars=a.vars) for c in a.components], "composed")


def nagata_inverse(field) -> AffineAutomorphism:
    """The inverse of Nagata's automorphism, the oracle that it is one: with
    delta = x^2 - yz, which it fixes, (x - delta z, y - 2 delta x + delta^2 z, z)."""
    vars = affine_vars(3)
    x, y, z = (MultiPoly.variable(field, vars, v) for v in vars)
    delta = x * x - y * z
    return AffineAutomorphism([x - delta * z, y - 2 * delta * x + delta * delta * z, z], "nagata inverse")


def nagata_invariant(field) -> MultiPoly:
    """x^2 - yz, the invariant that Nagata's automorphism fixes."""
    vars = affine_vars(3)
    x, y, z = (MultiPoly.variable(field, vars, v) for v in vars)
    return x * x - y * z


def H(expr):
    poly = MultiPoly.parse(QQ, V6, expr)
    return Hypersurface(poly, 2, 2)


H0 = "x0*y0 + x1*y1 + x2*y2"
H2 = "x0*y1*y2 + x1*y0*y2 + x2*y0*y1"


# -- rational maps -------------------------------------------------------------------


def test_standard_quadratic_values():
    sq = standard_quadratic(QQ)
    assert apply_point(sq, ProjPoint(QQ, [1, 2, 3])) == ProjPoint(QQ, [6, 3, 2])
    assert apply_point(sq, ProjPoint(QQ, [0, 1, 1])) == ProjPoint(QQ, [1, 0, 0])


def test_standard_quadratic_involution():
    sq = standard_quadratic(QQ)
    v = ProjPoint(QQ, [1, 2, 3])
    assert apply_point(sq, apply_point(sq, v)) == v


def test_base_locus_returns_none():
    sq = standard_quadratic(QQ)
    assert apply_point(sq, ProjPoint(QQ, [1, 0, 0])) is None


def test_composition_is_identity_after_content_removal():
    sq = standard_quadratic(QQ)
    comps = [
        c.substitute(dict(zip(sq.vars, sq.components)), new_vars=sq.vars)
        for c in sq.components
    ]
    assert RationalMap(comps).components == identity_map(QQ).components


def test_line_map_shape():
    lm = example_line_map(QQ, 2, [0, 0, 1])  # f(w) = w^2
    y0, y1, y2 = (MultiPoly.variable(QQ, ("y0", "y1", "y2"), v) for v in ("y0", "y1", "y2"))
    assert lm.components == [y0**2, y0 * y1, y0 * y2 + y1**2]


def test_line_map_affine_action():
    # on the chart y0 = 1 the map is (1 : a : b + f(a))
    lm = example_line_map(QQ, 3, [1, 0, 2])  # f(w) = 1 + 2w^2
    a, b = 5, 7
    img = apply_point(lm, ProjPoint(QQ, [1, a, b]))
    f_a = 1 + 2 * a * a
    assert img == ProjPoint(QQ, [1, a, b + f_a])


def test_line_map_d1_f0_is_identity():
    lm = example_line_map(QQ, 1, [])
    assert lm.components == identity_map(QQ).components


def test_line_map_degree_guard():
    with pytest.raises(DegreeTooHigh):
        example_line_map(QQ, 2, [0, 0, 0, 1])  # deg f = 3 > d
    with pytest.raises(DegreeTooHigh):
        example_line_map(QQ, 0, [1])


def test_rational_map_json_roundtrip():
    sq = standard_quadratic(QQ)
    sq2 = RationalMap.from_json(sq.to_json())
    assert sq2.components == sq.components


# -- pullbacks -----------------------------------------------------------------------


def test_apply_quadratic_reproduces_h2():
    got = apply_map(standard_quadratic(QQ), H(H0))
    assert got.poly == MultiPoly.parse(QQ, V6, H2).monic()
    assert got.bidegree == (1, 2)


def test_apply_identity_fixed_point():
    h = H(H2)
    assert apply_map(identity_map(QQ), h).poly == h.poly


def test_apply_twice_returns_h0():
    sq = standard_quadratic(QQ)
    once = apply_map(sq, H(H0))
    twice = apply_map(sq, once)
    assert twice.poly == H(H0).poly


@pytest.mark.parametrize("d", range(2, 7))
def test_line_map_raises_y_degree(d):
    # f(w) = w^d: x0*y0^d + x1*y0^(d-1)*y1 + x2*(y0^(d-1)*y2 + y1^d)
    lm = example_line_map(QQ, d, [0] * d + [1])
    got = apply_map(lm, H(H0))
    assert got.bidegree == (1, d)
    expected = MultiPoly.parse(
        QQ,
        V6,
        f"x0*y0**{d} + x1*y0**{d - 1}*y1 + x2*(y0**{d - 1}*y2 + y1**{d})",
    )
    assert got.poly == expected.monic()


def test_apply_content_removed():
    # the y-content y0*y1*y2 of the pullback of H2 is stripped
    _, cx, cy = apply_with_contents(standard_quadratic(QQ), H(H2))
    assert cx.is_constant()
    assert cy == MultiPoly.parse(QQ, V6, "y0*y1*y2").monic()


def test_zero_pullback():
    h = H("x0*y0")  # contains the image plane of the constant-ish map below
    bad = RationalMap(
        [
            MultiPoly.zero(QQ, ("y0", "y1", "y2")),
            MultiPoly.variable(QQ, ("y0", "y1", "y2"), "y1"),
            MultiPoly.variable(QQ, ("y0", "y1", "y2"), "y2"),
        ]
    )
    with pytest.raises(ZeroPullback):
        apply_map(bad, h)


# -- affine automorphisms --------------------------------------------------------------


def test_nagata_fixes_origin():
    na = nagata(QQ)
    assert [c.val for c in apply_auto(na, [0, 0, 0])] == [0, 0, 0]


def test_nagata_invariant_exact():
    na = nagata(QQ)
    delta = nagata_invariant(QQ)
    assert na.apply_poly(delta) == delta


def test_nagata_inverse():
    na, na_inv = nagata(QQ), nagata_inverse(QQ)
    assert compose(na_inv, na).components == identity_auto(QQ, 3).components
    assert compose(na, na_inv).components == identity_auto(QQ, 3).components
    rng = random.Random(1)
    for _ in range(20):
        pt = [rng.randint(-5, 5) for _ in range(3)]
        img = apply_auto(na, pt)
        back = apply_auto(na_inv, img)
        assert [c.val for c in back] == pt


def test_nagata_over_fp():
    na = nagata(GF(7))
    delta = nagata_invariant(GF(7))
    assert na.apply_poly(delta) == delta


# -- grid transport --------------------------------------------------------------------


def test_grid_transport_h0_quadratic():
    rep = grid_transport_check(H(H0), standard_quadratic(QQ), 7, 2, 2)
    assert rep["consistent"]
    assert rep["adjacency_match"]
    assert rep["grid_original"] is None and rep["grid_pulled"] is None


def test_grid_transport_identity():
    rep = grid_transport_check(H(H0), identity_map(QQ), 5, 2, 2)
    assert rep["consistent"]
    assert rep["grid_original"] == rep["grid_pulled"]


def test_grid_transport_planted_witness():
    # rank-2 bilinear form: collinear left points share a whole line of
    # right neighbors, so (2,2)-grids exist
    rep = grid_transport_check(H("x0*y0 + x1*y1"), identity_map(QQ), 5, 2, 2)
    assert rep["consistent"]
    assert rep["grid_original"] is not None
    assert rep["grid_original"] == rep["grid_pulled"]


def test_grid_transport_linear_map_transports_witness():
    swap = RationalMap(
        [
            MultiPoly.variable(QQ, ("y0", "y1", "y2"), "y1"),
            MultiPoly.variable(QQ, ("y0", "y1", "y2"), "y0"),
            MultiPoly.variable(QQ, ("y0", "y1", "y2"), "y2"),
        ]
    )
    rep = grid_transport_check(H("x0*y0 + x1*y1"), swap, 5, 2, 2)
    assert rep["consistent"]
    assert rep["grid_original"] is not None


def test_grid_transport_sample_too_small():
    with pytest.raises(SampleTooSmall):
        grid_transport_check(H(H0), standard_quadratic(QQ), 2, 2, 5)


# -- the transport against a ProjPoint oracle ------------------------------------------


def reference_transport(H, sigma_y, p, s, t):
    """grid_transport_check computed point by point with ProjPoint and
    FieldElem: images by `apply_point`, the exceptional locus by
    MultiPoly.evaluate of the removed y-content."""
    Fp = GF(p)
    Hp = reduce_hypersurface_mod(H, p)
    sig = sigma_y.reduce_mod(p)
    Hpulled, _, cy = apply_with_contents(sig, Hp)
    pts = list(proj_points(Fp, Hp.sy))
    seen = {}
    for v in pts:
        w = apply_point(sig, v)
        if w is None:
            continue
        if cy.degree() > 0:
            vals = [v.coords[sig.vars.index(n)] if n in sig.vars else 1 for n in cy.vars]
            if cy.evaluate(vals).is_zero():
                continue
        seen.setdefault(w, []).append(v)
    pairs = sorted(((vs[0], w) for w, vs in seen.items() if len(vs) == 1),
                   key=lambda vw: vw[0].raw)
    if len(pairs) < t:
        raise SampleTooSmall(f"only {len(pairs)} usable sample points")
    left = [u.raw for u in pts]
    right_orig = [w.raw for _, w in pairs]
    right_pull = [v.raw for v, _ in pairs]
    rows_orig = list(_AdjacencyRows(_terms_int(Hp), PointList(left), PointList(right_orig), p))
    rows_pull = list(_AdjacencyRows(_terms_int(Hpulled), PointList(left), PointList(right_pull), p))
    w1 = find_grid(BipartiteGraph(left, right_orig, rows_orig, transpose(rows_orig, len(pairs))), s, t)
    w2 = find_grid(BipartiteGraph(left, right_pull, rows_pull, transpose(rows_pull, len(pairs))), s, t)
    return {
        "p": p,
        "s": s,
        "t": t,
        "sample_size": len(pairs),
        "adjacency_match": rows_orig == rows_pull,
        "grid_original": w1.to_json() if w1 else None,
        "grid_pulled": w2.to_json() if w2 else None,
        "consistent": rows_orig == rows_pull,
    }


Y3 = ("y0", "y1", "y2")


def _swap(field):
    y0, y1, y2 = (MultiPoly.variable(field, Y3, v) for v in Y3)
    return RationalMap([y1, y0, y2])


Y0_TIMES = "y0*(x0*y1 + x1*y2 + x2*y0)"  # a form with the y-content y0
TRANSPORT_MAPS = {
    "quadratic": standard_quadratic,
    "identity": identity_map,
    "swap": _swap,
    "line-1-[0,1]": lambda F: example_line_map(F, 1, [0, 1]),
    "line-2-[0,0,1]": lambda F: example_line_map(F, 2, [0, 0, 1]),
    "line-3-[1,0,2]": lambda F: example_line_map(F, 3, [1, 0, 2]),
}
TRANSPORT_FORMS = (
    H0,
    "x0*y0 + x1*y1",
    H2,  # its quadratic pullback has the y-content y0*y1*y2
    "x0*y0**2 + x1*y1**2 + x2*y0*y2",
    Y0_TIMES,
)


def diag(entries) -> tuple:
    return tuple(tuple(a if i == j else 0 for j in range(len(entries))) for i, a in enumerate(entries))


def torus(p):
    """The sweep's transport candidates: (D, D^-1) on the original graph and
    (D, D) on the pulled one, for D = diag(1, g, 1) and diag(1, 1, g) with
    g a generator of F_p^*, found by brute force."""
    g = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    h = pow(g, -1, p)
    return [(MatrixPair(diag(D), diag(Dinv)), MatrixPair(diag(D), diag(D)))
            for D, Dinv in (((1, g, 1), (1, h, 1)), ((1, 1, g), (1, 1, h)))]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13, 17, 19))
@pytest.mark.parametrize("name", sorted(TRANSPORT_MAPS))
def test_grid_transport_matches_reference(name, p):
    # the torus candidates are verified on every form and map: kept where
    # they are symmetries of both graphs, dropped elsewhere
    sigma = TRANSPORT_MAPS[name](QQ)
    for form in TRANSPORT_FORMS:
        h = H(form)
        try:
            want = reference_transport(h, sigma, p, 2, 2)
        except SampleTooSmall:
            with pytest.raises(SampleTooSmall):
                grid_transport_check(h, sigma, p, 2, 2)
            continue
        assert grid_transport_check(h, sigma, p, 2, 2) == want
        assert grid_transport_check(h, sigma, p, 2, 2, symmetries=torus(p)) == want


def rows_computed(monkeypatch, run) -> list:
    """How many rows of each transport graph `run()` computes: the filled
    entries of each `_AdjacencyRows` that `grid_transport_check` makes.  The
    columns `transpose()` makes are `_AdjacencyRows` too, and are left out."""
    made = []

    class Recorded(_AdjacencyRows):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def transpose(self):
            columns = super().transpose()
            made.remove(columns)
            return columns

    monkeypatch.setattr(gridcheck, "_AdjacencyRows", Recorded)
    run()
    return [sum(bits is not None for bits in rows._known) for rows in made]


def test_sweep_transport_reads_one_row_per_torus_orbit(monkeypatch):
    # the torus has 7 orbits on P^2(F_19), one per support pattern; the
    # rows are compared at their minima and the scan starts only there
    sigma = standard_quadratic(QQ)
    rep = {}
    assert rows_computed(monkeypatch, lambda: rep.update(sweep._check_transport(19, H(H0), sigma))) == [7, 7]
    assert rep["report"] == reference_transport(H(H0), sigma, 19, 2, 2)


def test_mismatched_transport_pair_is_dropped(monkeypatch):
    # (D, D) does not keep x0*y0 + x1*y1 + x2*y2 (D^2 != 1), so the pair is
    # dropped although (D, D) keeps the pulled form; the maps of the second
    # pair are symmetries of their own graphs but act by different
    # permutations (diag(1, g, 1) against diag(1, 1, g)).  Either pair is
    # dropped, and every row is compared
    p = 19
    sigma = standard_quadratic(QQ)
    (orig_1, pulled_1), (_, pulled_2) = torus(p)
    for pairs in ([(pulled_1, pulled_1)], [(orig_1, pulled_2)]):
        rep = {}
        run = lambda: rep.update(grid_transport_check(H(H0), sigma, p, 2, 2, symmetries=pairs))
        assert rows_computed(monkeypatch, run) == [381, 381]
        assert rep == reference_transport(H(H0), sigma, p, 2, 2)


def test_map_that_moves_the_right_sample_is_dropped(monkeypatch):
    # x0 -> x0 + x1 with its inverse transpose y1 -> y1 - y0 keeps the form
    # x.y on all of P^2, but the transport's right sample is the set of
    # points off the coordinate triangle, and the map sends its points with
    # y1 = y0 onto the side y1 = 0: the pair is dropped, every row compared
    p = 7
    sigma = standard_quadratic(QQ)
    A = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    A_inv_T = ((1, 0, 0), (p - 1, 1, 0), (0, 0, 1))
    shear = MatrixPair(A, A_inv_T)
    Hp = reduce_hypersurface_mod(H(H0), p)
    pts = chart_points(GF(p), 2)
    off_triangle = chart_side([v for v in pts if all(v)], p)
    whole = chart_side(pts, p)
    assert symmetry_permutation(Hp, shear, whole, whole) is not None
    assert symmetry_permutation(Hp, shear, whole, off_triangle) is None
    (_, pulled), _ = torus(p)
    rep = {}
    run = lambda: rep.update(grid_transport_check(H(H0), sigma, p, 2, 2, symmetries=[(shear, pulled)]))
    assert rows_computed(monkeypatch, run) == [len(pts), len(pts)]
    assert rep == reference_transport(H(H0), sigma, p, 2, 2)


def test_grid_transport_reference_exercises_every_filter():
    p = 5
    full = p * p + p + 1
    # identity map, a form with the y-content y0: the content filter alone
    # drops the line y0 = 0
    rep = reference_transport(H(Y0_TIMES), identity_map(QQ), p, 2, 2)
    assert rep["sample_size"] == p * p
    # the quadratic map is not injective on the coordinate triangle, which
    # holds its base points; the removed y-content y0*y1*y2 of H2's
    # pullback vanishes there too
    _, _, cy = apply_with_contents(standard_quadratic(QQ), H(H2))
    assert cy.degree() == 3
    for form in (H0, H2):
        rep = reference_transport(H(form), standard_quadratic(QQ), p, 2, 2)
        assert rep["sample_size"] == (p - 1) ** 2 < full

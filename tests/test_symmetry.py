"""Orbit pruning of the subset scan: candidate symmetries are verified on
the form and on the vertex lists, on either chart and under open sets, and
the pruned scan gives the unpruned scan's S, T and argmax."""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridlab.errors import BudgetExceeded, EmptySide
from gridlab.fields import GF
from gridlab.gridcheck import (
    BipartiteGraph,
    _ChartMap,
    _orbits,
    _plan,
    _translation_steps,
    build_graph,
    find_grid,
    max_common_neighborhood,
    symmetry_permutation,
)
from gridlab.hypersurfaces import (
    ChartPoints,
    MatrixPair,
    construct,
    family_symmetries,
    reduce_hypersurface_mod,
    reduce_poly_mod,
    smallest_nonresidue,
)
from gridlab.projective import Hypersurface, OpenSet
from gridlab.primefields import matrix_rank
from gridlab.ring import MultiPoly, bihomogenize
from test_adjacency import chart_points, chart_side, xy_vars
from test_gridcheck import (
    recording_kernels,
    recording_verifications,
    reference_find_grid,
    reference_max_common,
)


def identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def unit(d, k, a):
    return tuple(a if i == k else 0 for i in range(d))


def homogenised(A, b):
    """[[1, 0], [b, A]]: the affine map x -> A x + b on homogeneous
    coordinates."""
    return ((1,) + (0,) * len(b),) + tuple((c,) + tuple(row) for row, c in zip(A, b))


def affine_pair(ax, bx, ay, by):
    """(x, y) -> (ax x + bx, ay y + by) on the chart coordinates."""
    return MatrixPair(homogenised(ax, bx), homogenised(ay, by))


def affine_parts(M):
    """(A, b) of a homogenised affine map [[1, 0], [b, A]]."""
    return tuple(row[1:] for row in M[1:]), tuple(row[0] for row in M[1:])


def translation(d, k, a, b):
    """(x + a e_k, y + b e_k)."""
    return affine_pair(identity(d), unit(d, k, a), identity(d), unit(d, k, b))


def linear(M):
    """(x, y) -> (M x, M y)."""
    return affine_pair(M, (0,) * len(M), M, (0,) * len(M))


def keeps_affine_chart(m, p):
    """Whether both matrices of m are affine maps of the chart x0 = 1: row 0
    is (1, 0, ..., 0)."""
    return all(tuple(a % p for a in M[0]) == (1,) + (0,) * (len(M) - 1) for M in m)


def xy(d):
    return tuple(f"x{i}" for i in range(1, d + 1)) + tuple(f"y{i}" for i in range(1, d + 1))


def hypersurface(affine: MultiPoly, d: int) -> Hypersurface:
    return Hypersurface(bihomogenize(affine, d), d, d)


def normalised(v, p):
    """v scaled to first nonzero coordinate 1, mod p."""
    lead = next(c for c in v if c % p)
    inv = pow(lead, -1, p)
    return tuple(c * inv % p for c in v)


def reference_permutation(M, points, p):
    """perm[i] = the index in `points` (homogeneous residue tuples) of
    M points[i], found through a dict; None when an image is missing."""
    index = {pt: i for i, pt in enumerate(points)}
    perm = []
    for pt in points:
        image = tuple(sum(a * c for a, c in zip(row, pt)) % p for row in M)
        if not any(image):
            return None
        j = index.get(normalised(image, p))
        if j is None:
            return None
        perm.append(j)
    return perm


def union_find_labels(n, perms) -> list:
    """labels[i] = the smallest index in the orbit of i under the group that
    the permutations `perms` of range(n) generate, by union-find: each root
    is the smallest index of its class, so the oracle of `_orbits` shares
    no code with its layer walk."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in perms:
        for i in range(n):
            a, b = find(i), find(g[i])
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(i) for i in range(n)]


def union_find_orbits(n, perms) -> dict:
    """{smallest index: size} of each orbit, ascending, from the labels."""
    return dict(sorted(Counter(union_find_labels(n, perms)).items()))


def full_points(G, chart):
    """G's vertex lists as homogeneous residue tuples."""
    if chart == "projective":
        return G.left, G.right
    return [(1,) + u for u in G.left], [(1,) + v for v in G.right]


def answers(G, sizes, ts):
    """Every answer the scan gives on G: argmaxes and witnesses."""
    out = []
    for s in sizes:
        if s > len(G.left):
            continue
        out.append(max_common_neighborhood(G, s))
        for t in ts:
            w = find_grid(G, s, t)
            out.append(None if w is None else (w.S, w.T))
    return out


def reference_answers(G, sizes, ts):
    """`answers` from the per-candidate reference scan."""
    out = []
    for s in sizes:
        if s > len(G.left):
            continue
        out.append(reference_max_common(G, s))
        out += [reference_find_grid(G, s, t) for t in ts]
    return out


def assert_automorphisms(G):
    """Each kept permutation keeps the size of every common neighbourhood
    of one and of two left vertices, as an automorphism must."""
    rows = G.rows
    for g in G.symmetries:
        assert sorted(g) == list(range(len(rows)))
        for i in range(len(rows)):
            assert rows[g[i]].bit_count() == rows[i].bit_count()
        for i, j in combinations(range(len(rows)), 2):
            assert (rows[g[i]] & rows[g[j]]).bit_count() == (rows[i] & rows[j]).bit_count()


# -- random forms P(x + y) and P(x - y) --------------------------------------------


def oracle_keeps(affine: MultiPoly, d: int, p: int, m: MatrixPair) -> bool:
    """Whether the affine map m is a bijection on each side that carries
    `affine` to a nonzero multiple of itself, decided by brute force and
    MultiPoly."""
    sides = [affine_parts(M) for M in m]
    points = list(product(range(p), repeat=d))
    for A, b in sides:
        images = {tuple((sum(a * x for a, x in zip(row, pt)) + c) % p for row, c in zip(A, b))
                  for pt in points}
        if len(images) != len(points):
            return False
    Fp = GF(p)
    vars = xy(d)
    sub = {}
    for side, (A, b) in enumerate(sides):
        for k, (row, c) in enumerate(zip(A, b)):
            image = MultiPoly.constant(Fp, vars, c)
            for j, a in enumerate(row):
                image = image + a * MultiPoly.variable(Fp, vars, vars[side * d + j])
            sub[vars[side * d + k]] = image
    moved = affine.substitute(sub, new_vars=vars)
    return any(moved == lam * affine for lam in range(1, p))


def oracle_carries(H: Hypersurface, p: int, m: MatrixPair) -> bool:
    """Whether m is a pair of bijections of P^s(F_p) that carries the
    bihomogeneous form of H mod p to a nonzero multiple of itself: the
    images are parsed from text, each side's bijection found by brute
    force."""
    Fp = GF(p)
    form = reduce_poly_mod(H.poly, p)
    n = len(H.xvars)
    pts = chart_points(Fp, n - 1)
    sub = {}
    for group, M in zip((H.xvars, H.yvars), m):
        if len(M) != n or reference_permutation(M, pts, p) is None:
            return False
        for v, row in zip(group, M):
            text = " + ".join(f"{a} * {w}" for a, w in zip(row, group))
            sub[v] = MultiPoly.parse(Fp, form.vars, text)
    moved = form.substitute(sub, new_vars=form.vars)
    return any(moved == lam * form for lam in range(1, p))


@st.composite
def invariant_forms(draw):
    """(p, d, affine, good, other): `affine` is P(x + sign y) for a random P
    over GF(p) in d variables, sometimes made symmetric under swapping z1, z2
    or even under z -> -z; `good` are maps it has by construction, `other`
    the opposite translations and random affine maps, which it may lack."""
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.sampled_from([1, 2, 3] if p == 3 else [1, 2]))
    sign = draw(st.sampled_from([1, -1]))
    Fp = GF(p)
    z = tuple(f"z{k}" for k in range(1, d + 1))
    monomials = [e for e in product(range(4), repeat=d) if 0 < sum(e) <= 3]
    terms = draw(
        st.dictionaries(st.sampled_from(monomials), st.integers(1, p - 1), min_size=1, max_size=5)
    )
    terms[(0,) * d] = draw(st.integers(0, p - 1))
    P = MultiPoly(Fp, z, terms)
    good = [translation(d, k, a, -sign * a) for k in range(d) for a in (1, p - 1)]
    if d >= 2 and draw(st.booleans()):
        P = P + P.substitute({"z1": MultiPoly.variable(Fp, z, "z2"),
                              "z2": MultiPoly.variable(Fp, z, "z1")}, new_vars=z)
        swap = [list(row) for row in identity(d)]
        swap[0], swap[1] = swap[1], swap[0]
        good.append(linear(tuple(map(tuple, swap))))
    if draw(st.booleans()):
        P = P + P.substitute({v: -MultiPoly.variable(Fp, z, v) for v in z}, new_vars=z)
        good.append(linear(tuple(tuple(-a % p for a in row) for row in identity(d))))
    vars = xy(d)
    sub = {
        f"z{k}": MultiPoly.parse(Fp, vars, f"x{k} + {sign} * y{k}") for k in range(1, d + 1)
    }
    affine = P.substitute(sub, new_vars=vars)
    if affine.is_zero():
        affine = MultiPoly.constant(Fp, vars, 1)
    other = [translation(d, k, 1, sign) for k in range(d)]
    entry = st.integers(0, p - 1)
    matrices = st.lists(st.lists(entry, min_size=d, max_size=d).map(tuple), min_size=d,
                        max_size=d).map(tuple)
    vectors = st.lists(entry, min_size=d, max_size=d).map(tuple)
    other += draw(st.lists(st.builds(affine_pair, matrices, vectors, matrices, vectors), max_size=2))
    return p, d, affine, good, other


@settings(max_examples=120, deadline=None)
@given(invariant_forms(), st.randoms(use_true_random=False))
def test_pruned_scan_matches_unpruned_on_invariant_forms(form, rng):
    p, d, affine, good, other = form
    H = hypersurface(affine, d)
    candidates = good + other
    rng.shuffle(candidates)
    plain = build_graph(H, p)
    G = build_graph(H, p, symmetries=candidates)
    assert list(G.rows) == list(plain.rows)
    # kept: every map of the construction, and exactly the others that the
    # brute-force oracle accepts
    expected = [m for m in candidates if m in good or oracle_keeps(affine, d, p, m)]
    left, _ = full_points(G, "affine")
    kept = [list(g) for g in G.symmetries]
    assert kept == [reference_permutation(m.mx, left, p) for m in expected]
    assert_automorphisms(G)
    ts = (1, 2, 3, p, p + 1)
    assert answers(G, (1, 2, 3), ts) == answers(plain, (1, 2, 3), ts)


@st.composite
def open_sets(draw, p, d, var):
    """P^d minus up to two random forms over GF(p) in var0..vard: a single
    coordinate, or a random linear or quadratic form."""
    vars = tuple(f"{var}{i}" for i in range(d + 1))
    forms = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            k = draw(st.integers(0, d))
            terms = {tuple(int(i == k) for i in range(d + 1)): 1}
        else:
            deg = draw(st.sampled_from([1, 2]))
            monomials = [e for e in product(range(deg + 1), repeat=d + 1) if sum(e) == deg]
            terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(1, p - 1),
                                         min_size=1, max_size=3))
        forms.append(MultiPoly(GF(p), vars, terms))
    return OpenSet(d, forms)


def square_matrices(n, p):
    entry = st.integers(0, p - 1)
    return st.lists(st.lists(entry, min_size=n, max_size=n).map(tuple), min_size=n,
                    max_size=n).map(tuple)


@settings(max_examples=120, deadline=None)
@given(invariant_forms(), st.sampled_from(["affine", "projective"]), st.data())
def test_pruned_scans_match_reference_on_charts_and_open_sets(form, chart, data):
    p, d, affine, good, other = form
    X = data.draw(open_sets(p, d, "x"))
    Y = data.draw(open_sets(p, d, "y"))
    general = square_matrices(d + 1, p)
    other += data.draw(st.lists(st.builds(MatrixPair, general, general), max_size=2))
    H = hypersurface(affine, d)
    try:
        plain = build_graph(H, p, X, Y, chart=chart)
    except EmptySide:
        assume(False)
    candidates = good + other
    G = build_graph(H, p, X, Y, chart=chart, symmetries=candidates)
    # kept: exactly the maps that keep the chart, carry the form to a
    # multiple of itself and map each vertex list onto itself
    left, right = full_points(G, chart)
    expected = [
        m for m in candidates
        if (chart == "projective" or keeps_affine_chart(m, p))
        and oracle_carries(H, p, m)
        and reference_permutation(m.mx, left, p) is not None
        and reference_permutation(m.my, right, p) is not None
    ]
    kept = [list(g) for g in G.symmetries]
    assert kept == [reference_permutation(m.mx, left, p) for m in expected]
    assert_automorphisms(G)
    ts = (1, 2, p)
    assert answers(G, (1, 2, 3), ts) == reference_answers(plain, (1, 2, 3), ts)
    assert_counts_match(G, plain)


@settings(max_examples=40, deadline=None)
@given(invariant_forms())
def test_empty_generator_list_is_the_plain_scan(form):
    p, d, affine, good, other = form
    H = hypersurface(affine, d)
    G = build_graph(H, p, symmetries=[])
    assert G.symmetries == []
    assert answers(G, (2, 3), (1, 2)) == answers(build_graph(H, p), (2, 3), (1, 2))


# -- the constructions --------------------------------------------------------------


@pytest.mark.parametrize(
    "family,p,dim,sizes,ts",
    [
        ("1a", 2, 2, (2, 3), (1, 2)),
        ("1a", 5, 2, (2, 3), (1, 2)),
        ("1a", 11, 2, (2, 3), (1, 2)),
        ("1b", 3, 3, (2, 3), (2, 3, 4)),
        ("1b", 5, 3, (2, 3), (2, 3)),
        ("1b", 7, 3, (2, 3), (2, 3)),
        ("1b", 11, 3, (2,), (2, 3)),
        ("1c", 3, 2, (2, 3), (2, 3)),
        ("1c", 11, 2, (2, 3), (2, 3)),
        ("1c", 3, 3, (2, 3), (3, 7)),
        ("1c", 7, 3, (2, 3), (3, 7)),
        ("1c", 11, 3, (2,), (3,)),
        ("1d", 2, 2, (2, 3), (1, 2)),
        ("1d", 7, 2, (2, 3), (1, 2)),
        ("1d", 11, 2, (2, 3), (2,)),
        ("1d", 5, 3, (2, 3), (2, 3)),
        ("1d", 7, 3, (2, 3), (2, 3)),
        ("1c", 3, 4, (2, 3), (7, 25)),
        ("1d", 3, 4, (2, 3), (3, 7)),
    ],
)
def test_pruned_scan_matches_unpruned_on_constructions(family, p, dim, sizes, ts):
    c = construct(family, p, dim)
    candidates = family_symmetries(family, p, c.s)
    G = build_graph(c.hypersurface, p, symmetries=candidates)
    # the candidates are genuine symmetries of their own family; on the
    # affine chart, those that keep it
    assert len(G.symmetries) == sum(keeps_affine_chart(m, p) for m in candidates) > 0
    assert answers(G, sizes, ts) == answers(build_graph(c.hypersurface, p), sizes, ts)


@pytest.mark.parametrize(
    "family,p,dim,sizes,ts",
    [
        ("1a", 2, 2, (2, 3), (1, 2)),
        ("1a", 5, 2, (2, 3), (1, 2)),
        ("1a", 13, 2, (2, 3), (1, 2)),
        ("1b", 3, 3, (2, 3), (2, 3, 4)),
        ("1b", 5, 3, (2,), (2, 3)),
        ("1c", 5, 2, (2, 3), (2, 3)),
        ("1c", 3, 3, (2, 3), (3, 7)),
        ("1d", 7, 2, (2, 3), (1, 2)),
        ("1d", 5, 3, (2,), (2, 3)),
    ],
)
def test_pruned_scan_matches_unpruned_on_the_projective_chart(family, p, dim, sizes, ts):
    c = construct(family, p, dim)
    candidates = family_symmetries(family, p, c.s)
    G = build_graph(c.hypersurface, p, chart="projective", symmetries=candidates)
    # every candidate of the family maps P^s onto itself
    assert len(G.symmetries) == len(candidates) > 0
    plain = build_graph(c.hypersurface, p, chart="projective")
    assert answers(G, sizes, ts) == answers(plain, sizes, ts)
    assert_counts_match(G, plain)


def test_1a_is_one_orbit_on_the_projective_plane():
    # the transvections generate SL(3, p), which is transitive on P^2(F_p):
    # the edge count reads one row, and the scan tries one first vertex
    c = construct("1a", 31)
    G = build_graph(c.hypersurface, 31, chart="projective", symmetries=family_symmetries("1a", 31, 2))
    assert G._orbit_data() == {0: 31**2 + 31 + 1}
    assert G.edge_count() == (31**2 + 31 + 1) * 32
    assert sum(r is not None for r in G.rows._known) == 1


def test_family_symmetries_are_automorphisms():
    for family, p, dim in (("1a", 5, 2), ("1b", 3, 3), ("1c", 5, 2), ("1d", 3, 3)):
        c = construct(family, p, dim)
        assert_automorphisms(build_graph(c.hypersurface, p, symmetries=family_symmetries(family, p, c.s)))


def test_pruned_1b_p11_with_raised_budget(monkeypatch):
    # the unpruned answer, from test_gridcheck's full scan at this budget
    c = construct("1b", 11)
    G = build_graph(c.hypersurface, 11, symmetries=family_symmetries("1b", 11, 3))
    monkeypatch.setenv("GRIDLAB_BUDGET", str(comb(1331, 3)))
    assert max_common_neighborhood(G, 3) == (2, [0, 1, 13])


def test_budget_counts_the_plain_subsets(monkeypatch):
    # a graph given no symmetry is refused by its C(1331, 3) subsets, and a
    # graph given only maps that are dropped falls back to that count: no
    # kernel is set up either way
    from gridlab import gridcheck

    kernels = recording_kernels(monkeypatch)
    verified = recording_verifications(monkeypatch)
    monkeypatch.delenv("GRIDLAB_BUDGET", raising=False)
    c = construct("1b", 11)
    refusal = r"^the scan visits all 3-subsets \(C\(1331,3\) = \d+\), over budget 100000000$"
    for symmetries in ([], family_symmetries("1a", 11, 3)):
        G = build_graph(c.hypersurface, 11, symmetries=symmetries)
        with pytest.raises(BudgetExceeded, match=refusal):
            max_common_neighborhood(G, 3)
        with pytest.raises(BudgetExceeded, match=refusal):
            find_grid(G, 3, 3)
        assert verified == symmetries and G.symmetries == []
        verified.clear()
    assert kernels == []


def test_budget_counts_the_pruned_subsets(monkeypatch):
    # with verified symmetries the budget counts the subsets the pruned
    # scan visits: 1b at p = 11 visits 62,930 and answers under the default
    # budget, and under a budget just below that count it is refused after
    # verifying its maps, naming both counts, before any kernel
    kernels = recording_kernels(monkeypatch)
    c = construct("1b", 11)
    symmetries = family_symmetries("1b", 11, 3)
    G = build_graph(c.hypersurface, 11, symmetries=symmetries)
    assert _plan(G, 3)[2] == 62930
    monkeypatch.setenv("GRIDLAB_BUDGET", str(62929))
    with pytest.raises(BudgetExceeded) as refusal:
        max_common_neighborhood(G, 3)
    assert str(refusal.value) == (
        f"the pruned scan visits 62930 3-subsets (C(1331,3) = {comb(1331, 3)}), over budget 62929"
    )
    assert kernels == [] and len(G.symmetries) == len(symmetries)
    monkeypatch.setenv("GRIDLAB_BUDGET", str(62930))
    assert max_common_neighborhood(G, 3) == (2, [0, 1, 13])
    assert kernels == [[0]]  # row 0; column 0 is read off it, the rest are moved
    # 1d with s = 3 at p = 31 is still refused at the default budget
    monkeypatch.delenv("GRIDLAB_BUDGET")
    c = construct("1d", 31, 3)
    G = build_graph(c.hypersurface, 31, symmetries=family_symmetries("1d", 31, 3))
    with pytest.raises(BudgetExceeded, match=r"^the pruned scan visits \d+ 3-subsets \(C\(29791,3\) = "):
        find_grid(G, 3, 3)
    assert kernels == [[0]]


def test_family_symmetries_degenerate_inputs():
    assert family_symmetries("1e", 5, 2) == []
    assert family_symmetries(["1a"], 5, 2) == []
    assert family_symmetries(None, 5, 2) == []
    assert family_symmetries("1a", 4, 2) == []
    assert family_symmetries("1a", 1, 2) == []
    assert family_symmetries("1a", -7, 2) == []
    assert family_symmetries("1c", 5, 0) == []


# -- rejection ----------------------------------------------------------------------


def test_non_automorphism_is_dropped():
    c = construct("1a", 7)
    bad = [translation(2, 0, 1, -1), translation(2, 1, 3, 3), linear(((1, 1), (0, 1)))]
    G = build_graph(c.hypersurface, 7, symmetries=bad)
    assert G.symmetries == []
    good = [m for m in family_symmetries("1a", 7, 2) if keeps_affine_chart(m, 7)]
    G = build_graph(c.hypersurface, 7, symmetries=bad + good)
    assert len(G.symmetries) == len(good) == 2


def test_singular_map_is_dropped():
    # x2 -> 0 keeps x1*y1 - 1 exactly, but is no bijection of F_p^2
    Fp = GF(5)
    H = hypersurface(MultiPoly.parse(Fp, xy(2), "x1*y1 - 1"), 2)
    singular = affine_pair(((1, 0), (0, 0)), (0, 0), ((1, 0), (0, 5)), (0, 0))
    assert build_graph(H, 5, symmetries=[singular]).symmetries == []
    # the same form with y2 -> 2 y2: a genuine symmetry, kept
    scaling = affine_pair(((1, 0), (0, 1)), (0, 0), ((1, 0), (0, 2)), (0, 0))
    assert len(build_graph(H, 5, symmetries=[scaling]).symmetries) == 1


def test_scaled_form_is_kept():
    # F(2x, y) = 2 F(x, y): lambda = 2 is a nonzero multiple
    Fp = GF(7)
    H = hypersurface(MultiPoly.parse(Fp, xy(2), "x1*y1 + x2*y2"), 2)
    m = affine_pair(((2, 0), (0, 2)), (0, 0), ((1, 0), (0, 1)), (0, 0))
    assert len(build_graph(H, 7, symmetries=[m]).symmetries) == 1


def test_wrong_shape_is_dropped():
    c = construct("1a", 5)
    m3 = family_symmetries("1b", 5, 3)
    assert build_graph(c.hypersurface, 5, symmetries=m3).symmetries == []


def test_map_that_moves_an_open_set_is_dropped():
    # 1c at p = 5 with s = 2 keeps its three maps on either whole chart;
    # X = {x1 != 0} is moved by x1 -> x1 + x0 and by the norm-1
    # multiplication, which are dropped, and kept by x2 -> x2 + x0
    c = construct("1c", 5, 2)
    candidates = family_symmetries("1c", 5, 2)
    X = OpenSet(2, [MultiPoly.parse(GF(5), ("x0", "x1", "x2"), "x1")])
    for chart in ("affine", "projective"):
        G = build_graph(c.hypersurface, 5, chart=chart, symmetries=candidates)
        assert len(G.symmetries) == len(candidates) == 3
        G = build_graph(c.hypersurface, 5, X=X, chart=chart, symmetries=candidates)
        left, _ = full_points(G, chart)
        assert [list(g) for g in G.symmetries] == [reference_permutation(candidates[1].mx, left, 5)]
        plain = build_graph(c.hypersurface, 5, X=X, chart=chart)
        assert answers(G, (2, 3), (2, 3)) == answers(plain, (2, 3), (2, 3))
        assert_counts_match(G, plain)


@pytest.mark.parametrize("chart", ["affine", "projective"])
def test_permutations_follow_the_order_of_the_vertex_lists(chart):
    # the transport's right sample can hold every point in another order:
    # each permutation indexes the lists as given, not the chart's order
    p = 5
    c = construct("1a", p)
    Hp = reduce_hypersurface_mod(c.hypersurface, p)
    pts = chart_points(GF(p), 2)
    if chart == "affine":
        pts = pts[: p * p]
    shuffled = pts[:]
    random.Random(4).shuffle(shuffled)
    maps = family_symmetries("1a", p, 2)
    for left, right in ((pts, shuffled), (shuffled, pts), (shuffled, shuffled[::-1])):
        sides = chart_side(left, p, chart), chart_side(right, p, chart)
        got = [symmetry_permutation(Hp, m, *sides) for m in maps]
        got = [pair and tuple(map(list, pair)) for pair in got]
        want = [None if chart == "affine" and not keeps_affine_chart(m, p)
                else (reference_permutation(m.mx, left, p), reference_permutation(m.my, right, p))
                for m in maps]
        assert got == want


def test_map_off_the_affine_chart_is_dropped_there():
    # 1a's transvections that move x0 or y0 are symmetries of P^2, and no
    # affine maps of the chart
    c = construct("1a", 5)
    moving = [m for m in family_symmetries("1a", 5, 2) if not keeps_affine_chart(m, 5)]
    assert len(moving) == 4
    assert build_graph(c.hypersurface, 5, symmetries=moving).symmetries == []
    G = build_graph(c.hypersurface, 5, chart="projective", symmetries=moving)
    assert len(G.symmetries) == 4


def test_wrong_map_would_change_the_answer():
    # the reason verification exists: trusting a non-automorphism prunes the
    # true first witness of this graph away
    c = construct("1a", 5)
    G = build_graph(c.hypersurface, 5)
    assert max_common_neighborhood(G, 2) == (1, [1, 5])
    bad = translation(2, 1, 1, 1)
    assert build_graph(c.hypersurface, 5, symmetries=[bad]).symmetries == []
    trusted = [reference_permutation(bad.mx, full_points(G, "affine")[0], 5)]
    G = BipartiteGraph(G.left, G.right, G.rows, G.cols, trusted)
    assert max_common_neighborhood(G, 2) == (1, [5, 6])


def test_orbits_give_minima_and_sizes():
    # a 3-cycle and a transposition on disjoint points, one fixed point
    perms = [[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 3, 5]]
    assert list(_orbits(perms, 6).items()) == [(0, 3), (3, 2), (5, 1)]
    assert _orbits([], 4) == {0: 1, 1: 1, 2: 1, 3: 1}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4))))
def test_orbits_match_union_find(case):
    n, perms = case
    got = _orbits(perms, n)
    assert got == union_find_orbits(n, perms)
    assert list(got) == sorted(got)
    assert sum(got.values()) == n


def test_graph_orbits_follow_its_symmetries():
    # 1a's maps act on F_p^2 with two orbits, {0} and the rest; the same
    # rows and columns without symmetries have no orbit record
    c = construct("1a", 5)
    G = build_graph(c.hypersurface, 5, symmetries=family_symmetries("1a", 5, 2))
    assert list(G._orbit_data().items()) == [(0, 1), (1, 24)]
    assert list(G.orbit_minima) == [0, 1]
    plain = BipartiteGraph(G.left, G.right, G.rows, G.cols, [])
    assert plain._orbit_data() is None and plain.orbit_minima == range(25)


# -- orbit-weighted edge counts -----------------------------------------------------


def assert_counts_match(G, plain):
    """edge_count() of G equals the full row sum of `plain`, the same form
    built without symmetries, and the row sums are constant on the orbits
    of G's symmetries, whose minima G reads (union-find oracle)."""
    sums = [row.bit_count() for row in plain.rows]
    assert G.edge_count() == sum(sums)
    labels = union_find_labels(len(G.left), G.symmetries)
    assert [sums[labels[i]] for i in range(len(sums))] == sums
    assert list(G.orbit_minima) == sorted(set(labels))


@pytest.mark.parametrize(
    "family,p,dim",
    [(f, p, s) for f, sizes in (("1a", (2,)), ("1b", (3,)), ("1c", (2, 3)), ("1d", (2, 3)))
     for s in sizes for p in (2, 3, 5, 7, 11, 13) if not (f == "1b" and p == 2)],
)
def test_orbit_weighted_counts_on_constructions(family, p, dim):
    c = construct(family, p, dim)
    G = build_graph(c.hypersurface, p, symmetries=family_symmetries(family, p, c.s))
    assert G.symmetries
    assert_counts_match(G, build_graph(c.hypersurface, p))


@settings(max_examples=60, deadline=None)
@given(invariant_forms())
def test_orbit_weighted_counts_on_invariant_forms(form):
    p, d, affine, good, other = form
    H = hypersurface(affine, d)
    G = build_graph(H, p, symmetries=good + other)
    assert_counts_match(G, build_graph(H, p))


def test_counts_fall_back_when_no_candidate_is_kept():
    c = construct("1a", 7)
    bad = [translation(2, 0, 1, -1), translation(2, 1, 3, 3), linear(((1, 1), (0, 1)))]
    G = build_graph(c.hypersurface, 7, symmetries=bad)
    assert G.symmetries == [] and G._orbit_data() is None
    assert_counts_match(G, build_graph(c.hypersurface, 7))
    assert G.edge_count() == 7**3 - 7


# -- orbits known without a walk ------------------------------------------------------

FAMILY_GRAPHS = [
    (f, p, s, chart)
    for f, sizes in (("1a", (2,)), ("1b", (3,)), ("1c", (2, 3)), ("1d", (2, 3)))
    for s in sizes
    for p in (2, 3, 5, 7)
    for chart in ("affine", "projective")
    if not (f == "1b" and p == 2)
]


@pytest.mark.parametrize("family,p,dim,chart", FAMILY_GRAPHS)
def test_known_orbits_match_the_walk(family, p, dim, chart):
    # translations along every affine axis (1b, 1c) and transvections
    # generating SL (1a) give the orbits without a walk; 1d needs the walk.
    # x1^2 - n x2^2, n a non-residue, vanishes on F_p^2 at the origin alone:
    # on the affine chart 1a's maps keep the other points, one orbit.  The
    # walk is `_orbits` on the maps' tables as plain lists, which it always
    # walks; over no vertex, `_orbits` gives the closed forms alone
    c = construct(family, p, dim)
    candidates = family_symmetries(family, p, c.s)
    xs = tuple(f"x{i}" for i in range(c.s + 1))
    opens = [None]
    if p > 2:
        anisotropic = f"x1**2 - {smallest_nonresidue(p)}*x2**2"
        opens.append(OpenSet(c.s, [MultiPoly.parse(GF(p), xs, anisotropic)]))
    for X in opens:
        G = build_graph(c.hypersurface, p, X=X, chart=chart, symmetries=candidates)
        walked = _orbits([list(g) for g in G.symmetries], len(G.left))
        assert walked == union_find_orbits(len(G.left), G.symmetries)
        assert G._orbit_data() == walked
        assert list(G.orbit_minima) == list(walked)
        assert G.edge_count() == build_graph(c.hypersurface, p, X=X, chart=chart).edge_count()
        known = _orbits(G.symmetries, 0)
        walk_free = (family == "1a" and (X is None or chart == "affine")
                     or family in ("1b", "1c") and chart == "affine" and X is None)
        assert bool(known) == walk_free
        if known:
            assert known == walked
            two = family == "1a" and chart == "affine" and X is None
            assert len(known) == (2 if two else 1)


@pytest.mark.parametrize("family,p,dim,chart", [g for g in FAMILY_GRAPHS if g[1] in (3, 5)])
def test_known_orbits_keep_witnesses_and_counts(family, p, dim, chart):
    c = construct(family, p, dim)
    G = build_graph(c.hypersurface, p, chart=chart, symmetries=family_symmetries(family, p, c.s))
    plain = build_graph(c.hypersurface, p, chart=chart)
    sizes = [2, 3] if c.s > 2 else [2]
    assert answers(G, sizes, (2, 3, 7)) == answers(plain, sizes, (2, 3, 7))
    assert_counts_match(G, plain)


def test_known_orbits_need_every_generator():
    # translations along one axis only, or transvections missing a pair,
    # leave the orbits to the walk: over no vertex, it finds none
    p = 5
    side = build_graph(construct("1a", p).hypersurface, p).left

    def closed(*pairs):
        return _orbits([_ChartMap(m.mx, side) for m in pairs], 0)

    x1_shift, x2_shift = translation(2, 0, 1, 1), translation(2, 1, 1, 1)
    assert closed(x1_shift) == {}
    assert closed(x1_shift, x2_shift) == {0: p**2}
    e12 = linear(((1, 1), (0, 1)))
    e21 = linear(((1, 0), (1, 1)))
    assert closed(e12) == {}
    assert closed(e12, e21) == {0: 1, 1: p**2 - 1}
    # a map that moves the origin joins it to the rest
    assert closed(e12, e21, x1_shift) == {0: p**2}
    # each answer is the walk's
    for maps in ((x1_shift, x2_shift), (e12, e21), (e12, e21, x1_shift)):
        perms = [list(_ChartMap(m.mx, side)) for m in maps]
        assert closed(*maps) == _orbits(perms, p**2) == union_find_orbits(p**2, perms)


@lru_cache(maxsize=None)
def family_graph(family, p, dim, chart, opened):
    """A family's graph with its candidate maps verified, cached across
    examples; with `opened`, X is the complement of x1^2 - n x2^2 = 0, n a
    non-residue, which on the affine chart drops the origin alone."""
    c = construct(family, p, dim)
    X = None
    if opened:
        xs = tuple(f"x{i}" for i in range(c.s + 1))
        anisotropic = f"x1**2 - {smallest_nonresidue(p)}*x2**2"
        X = OpenSet(c.s, [MultiPoly.parse(GF(p), xs, anisotropic)])
    G = build_graph(c.hypersurface, p, X=X, chart=chart, symmetries=family_symmetries(family, p, c.s))
    G.symmetries  # verify every candidate
    return G


ORBIT_CASES = [
    (f, p, s, chart, opened)
    for f, sizes in (("1a", (2,)), ("1b", (3,)), ("1c", (2, 3)), ("1d", (2, 3)))
    for s in sizes
    for p in (3, 5, 7)
    for chart in ("affine", "projective")
    for opened in (False, True)
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORBIT_CASES), st.data())
def test_orbits_of_verified_map_subsets_match_union_find(case, data):
    # any subset of a family's verified maps, on either chart, with and
    # without an open set: the closed forms where they hold, else the walk,
    # give the union-find orbits of the maps' tables, sizes included
    G = family_graph(*case)
    n = len(G.left)
    chosen = data.draw(st.sets(st.sampled_from(range(len(G.symmetries))))) if G.symmetries else set()
    maps = [G.symmetries[k] for k in sorted(chosen)]
    got = _orbits(maps, n)
    assert got == union_find_orbits(n, [list(g) for g in maps])
    assert list(got) == sorted(got) and sum(got.values()) == n


def test_closed_forms_build_no_table(monkeypatch):
    # the edge counts of 1a (SL, on both charts) and 1c (translations), and
    # 1b's stabiliser minima (signed permutations) at p = 11, map no
    # vertex list
    from gridlab import gridcheck

    def never(*args):
        raise AssertionError("a permutation array was built")

    p = 11
    graphs = {}
    for family, dim, chart in (("1a", 2, "affine"), ("1a", 2, "projective"), ("1c", 2, "affine"),
                               ("1b", 3, "affine")):
        c = construct(family, p, dim)
        graphs[family, chart] = (
            build_graph(c.hypersurface, p, chart=chart, symmetries=family_symmetries(family, p, c.s)),
            build_graph(c.hypersurface, p, chart=chart).edge_count(),
        )
    monkeypatch.setattr(gridcheck._ChartMap, "table", property(never))
    for (family, chart), (G, edges) in graphs.items():
        assert G.edge_count() == edges
        two = (family, chart) == ("1a", "affine")  # the origin and the rest
        assert G.symmetries and list(G.orbit_minima) == ([0, 1] if two else [0])
    tops, seconds, count, _ = _plan(graphs["1b", "affine"][0], 3)
    assert tops == [0] and len(seconds[0]) == comb(6 + 2, 3) and count == 62930


# -- translation-derived adjacency, the pruned count and known stabilisers ----------


@settings(max_examples=80, deadline=None)
@given(invariant_forms(), st.randoms(use_true_random=False))
def test_translated_rows_and_pruned_scans_match_the_plain_graph(form, rng):
    # the good maps of P(x + sign y) include a translation of x and of y
    # along every axis: once they are verified, every row and column but
    # the first is moved from row 0 or column 0, and equals the kernel's;
    # the pruned scans answer as the reference scan of the plain graph
    p, d, affine, good, other = form
    H = hypersurface(affine, d)
    candidates = good + other
    rng.shuffle(candidates)
    G = build_graph(H, p, symmetries=candidates)
    assert G.symmetries and G.rows._moves is not None and G.cols._moves is not None
    plain = build_graph(H, p)
    order = list(range(len(G.left)))
    rng.shuffle(order)
    assert [G.rows[u] for u in order] == [plain.rows[u] for u in order]
    assert [G.cols[j] for j in order] == [plain.cols[j] for j in order]
    ts = (1, 2, 3, p, p + 1)
    G = build_graph(H, p, symmetries=candidates)
    assert answers(G, (1, 2, 3), ts) == reference_answers(plain, (1, 2, 3), ts)


@pytest.mark.parametrize("mask_bits", [0, 1 << 25])
@pytest.mark.parametrize("family,p,dim", [("1b", 5, 3), ("1c", 7, 2), ("1c", 3, 4)])
def test_translated_rows_of_constructions(monkeypatch, mask_bits, family, p, dim):
    # with every mask kept, and with none kept (each rebuilt on use)
    from gridlab import gridcheck

    monkeypatch.setattr(gridcheck, "_MASK_BITS", mask_bits)
    c = construct(family, p, dim)
    G = build_graph(c.hypersurface, p, symmetries=family_symmetries(family, p, c.s))
    assert G.symmetries and G.rows._moves is not None
    plain = build_graph(c.hypersurface, p)
    assert list(G.rows) == list(plain.rows) and list(G.cols) == list(plain.cols)
    assert len(G.rows._moves[0]._masks) == (0 if mask_bits == 0 else c.s * (p - 1))


def test_translations_need_both_sides_on_every_axis():
    # x + e_1 with y fixed is no translation pair; the steps are d / c
    p = 5
    pair = translation(2, 0, 2, 3)
    assert _translation_steps([pair], p, 2) is None
    assert _translation_steps([pair, translation(2, 1, 1, 0)], p, 2) is None
    assert _translation_steps([pair, translation(2, 1, 1, 1)], p, 2) == (3 * pow(2, -1, p) % p, 1)
    assert _translation_steps([pair, linear(((0, 1), (1, 0))), translation(2, 1, 4, 1)], p, 2) == (
        4, 4)


def enumerated_subsets(G, s) -> int:
    """The s-subsets of G's left side whose first vertex is the smallest of
    its orbit and, for s >= 3, whose second is the smallest of its orbit
    under the generators fixing the first, counted one by one with
    union-find orbits: the subsets the scan visits with no floor."""
    n, gens = len(G.left), [list(g) for g in G.symmetries]
    labels = union_find_labels(n, gens)
    count = 0
    stabiliser = {}
    for S in combinations(range(n), s):
        v = S[0]
        if labels[v] != v:
            continue
        if s >= 3:
            fixing = [g for g in gens if g[v] == v]
            if fixing:
                if v not in stabiliser:
                    stabiliser[v] = union_find_labels(n, fixing)
                if stabiliser[v][S[1]] != S[1]:
                    continue
        count += 1
    return count


@pytest.mark.parametrize(
    "family,p,dim,chart",
    [("1a", 5, 2, "affine"), ("1a", 3, 2, "projective"), ("1b", 3, 3, "affine"),
     ("1b", 3, 3, "projective"), ("1c", 3, 3, "affine"), ("1c", 5, 2, "projective"),
     ("1d", 3, 3, "affine"), ("1d", 5, 2, "affine")],
)
def test_pruned_count_is_the_unfloored_enumeration(family, p, dim, chart):
    c = construct(family, p, dim)
    G = build_graph(c.hypersurface, p, chart=chart, symmetries=family_symmetries(family, p, c.s))
    assert G.symmetries
    for s in (1, 2, 3):
        assert _plan(G, s)[2] == enumerated_subsets(G, s)


@settings(max_examples=40, deadline=None)
@given(invariant_forms())
def test_pruned_count_on_invariant_forms(form):
    p, d, affine, good, other = form
    G = build_graph(hypersurface(affine, d), p, symmetries=good + other)
    for s in (2, 3):
        if s <= len(G.left):
            assert _plan(G, s)[2] == enumerated_subsets(G, s)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 19])
def test_signed_permutation_minima_match_the_walk(p):
    # 1b's maps that fix the origin are the sign change of x1 and the swaps
    # of adjacent coordinates: their minima are listed, not walked
    c = construct("1b", p)
    G = build_graph(c.hypersurface, p, symmetries=family_symmetries("1b", p, 3))
    fixing = [g for g in G.symmetries if g[0] == 0]
    assert len(fixing) == 3
    listed = _orbits(fixing, len(G.left))
    assert all(g._table is None for g in G.symmetries)  # nothing was walked
    assert listed == _orbits([list(g) for g in fixing], len(G.left))
    assert list(listed) == sorted(listed) and len(listed) == comb((p + 1) // 2 + 2, 3)
    # without a swap, or with a map that is no signed permutation, it walks
    assert _orbits(fixing[:2], 0) == {}
    shear = ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert _orbits(fixing + [_ChartMap(shear, G.left)], 0) == {}


@pytest.mark.parametrize("p", [5, 7])
def test_signed_minima_need_the_whole_chart(p):
    # the open set x1^2 + x2^2 + x3^2 != x0^2 keeps the origin and 1b's
    # signed permutations, which fix it, and drops its translations: the
    # minima under those maps are walked on its indices, not listed as
    # the whole chart's
    c = construct("1b", p)
    xs = tuple(f"x{i}" for i in range(4))
    X = OpenSet(3, [MultiPoly.parse(GF(p), xs, "x1**2 + x2**2 + x3**2 - x0**2")])
    G = build_graph(c.hypersurface, p, X=X, symmetries=family_symmetries("1b", p, 3))
    fixing = [g for g in G.symmetries if g[0] == 0]
    assert len(fixing) == 3 == len(G.symmetries) and G.left.codes is not None
    assert _orbits(fixing, 0) == {}
    assert _plan(G, 3)[2] == enumerated_subsets(G, 3)
    assert answers(G, [3], [2, 3]) == reference_answers(G, [3], [2, 3])


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("s", [1, 2])
def test_signed_minima_in_low_dimensions(p, s):
    side = ChartPoints(p, s, "affine")
    points = [(1,) + pt for pt in side]
    sign = tuple(tuple(p - 1 if i == j == 1 else int(i == j) for j in range(s + 1))
                 for i in range(s + 1))
    maps = [sign] + [swap_matrix(s + 1, i) for i in range(1, s)]
    perms = [reference_permutation(M, points, p) for M in maps]
    walked = union_find_orbits(len(side), perms)
    assert _orbits([_ChartMap(M, side) for M in maps], 0) == walked == _orbits(perms, len(side))
    # a signed swap, x_i -> x_(i+1) and x_(i+1) -> -x_i, generates the
    # same group: column i of the swap negated
    signed = [sign] + [tuple(tuple(-a if k == i else a for k, a in enumerate(row))
                             for row in swap_matrix(s + 1, i)) for i in range(1, s)]
    assert _orbits([_ChartMap(M, side) for M in signed], 0) == walked
    assert _orbits([_ChartMap(M, side) for M in [identity(s + 1)] + maps[1:]], 0) == {}
    projective = ChartPoints(p, s, "projective")
    assert _orbits([_ChartMap(M, projective) for M in maps], 0) == {}


def swap_matrix(n, i):
    """The n x n identity with rows i and i + 1 swapped."""
    rows = [list(row) for row in identity(n)]
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("chart", ["affine", "projective"])
def test_chart_maps_read_one_vertex_at_a_time(chart, monkeypatch):
    # a whole-chart permutation maps the one vertex read, and its table is
    # the reference permutation
    from gridlab import gridcheck

    def never(*args):
        raise AssertionError("a permutation array was built")

    p = 7
    c = construct("1a", p)
    G = build_graph(c.hypersurface, p, chart=chart, symmetries=family_symmetries("1a", p, 2))
    left, _ = full_points(G, chart)
    table = gridcheck._ChartMap.table
    for g in G.symmetries:
        want = reference_permutation(g.matrix, left, p)
        monkeypatch.setattr(gridcheck._ChartMap, "table", property(never))
        assert [g[i] for i in (0, 1, len(left) - 1, -1)] == [want[i] for i in (0, 1, -1, -1)]
        monkeypatch.setattr(gridcheck._ChartMap, "table", table)
        assert g._table is None
        assert list(g) == want and g == want and g._table is not None


@st.composite
def chart_maps(draw):
    """(p, s, chart, M, codes): an invertible matrix M mod p, an affine map
    of the chart x0 = 1 on the affine chart, and the codes of a side: None
    for the whole chart, else a sorted set of chart indices, a random one or
    a union of M's orbits, which M keeps."""
    p = draw(st.sampled_from([3, 5, 7]))
    s = draw(st.sampled_from([1, 2]))
    chart = draw(st.sampled_from(["affine", "projective"]))
    row = st.lists(st.integers(0, p - 1), min_size=s + 1, max_size=s + 1)
    M = draw(st.lists(row, min_size=s + 1, max_size=s + 1))
    if chart == "affine":
        M[0] = [1] + [0] * s
    assume(matrix_rank(M, GF(p)) == s + 1)
    whole = ChartPoints(p, s, chart)
    n = len(whole)
    kind = draw(st.sampled_from(["whole", "random", "orbits"]))
    if kind == "whole":
        return p, s, chart, M, None
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1))
    if kind == "orbits":
        perm = reference_permutation(M, [whole.point(i) for i in range(n)], p)
        for i in list(seeds):
            j = perm[i]
            while j != i:
                seeds.add(j)
                j = perm[j]
    return p, s, chart, M, sorted(seeds)


@settings(max_examples=150, deadline=None)
@given(chart_maps(), st.data())
def test_one_chart_map_matches_the_reference(case, data):
    # the lone-vertex reads, the table and the bitset image all equal the
    # reference permutation, and a map that moves a vertex off a side with
    # an open set is rejected
    p, s, chart, M, codes = case
    side = ChartPoints(p, s, chart, codes)
    n = len(side)
    want = reference_permutation(M, [side.point(i) for i in range(n)], p)
    # a form in y alone is carried by (M, I), so the sides decide
    vars = xy_vars(s)
    form = Hypersurface(MultiPoly(GF(p), vars, {unit(2 * s + 2, s + 1, 1): 1}), s, s)
    pair = symmetry_permutation(form, (M, identity(s + 1)), side, ChartPoints(p, s, chart))
    if want is None:
        assert codes is not None and pair is None
        return
    g = _ChartMap(M, side)
    reads = data.draw(st.lists(st.integers(-n, n - 1), max_size=6))
    assert [g[i] for i in reads] == [want[i] for i in reads]
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    assert g.moved(sum(1 << i for i in subset)) == sum(1 << want[i] for i in subset)
    assert g._table is None
    assert list(g.table) == want and list(pair[0]) == want


@pytest.mark.parametrize("family, p, dim, chart", [
    ("1a", 7, 2, "affine"), ("1a", 5, 2, "projective"), ("1b", 5, 3, "affine"),
    ("1c", 5, 2, "affine"), ("1d", 5, 2, "projective"),
])
def test_s1_scan_reads_rows_and_no_column(family, p, dim, chart):
    # the only depth of an s = 1 scan is its last: it reads the rows of the
    # vertices it tries, with or without symmetries, and computes no column
    c = construct(family, p, dim)
    for symmetries in (None, family_symmetries(family, p, c.s)):
        G = build_graph(c.hypersurface, p, chart=chart, symmetries=symmetries)
        ts = sorted({1, 2, p, G.rows[0].bit_count() + 1, len(G.right)})
        assert answers(G, [1], ts) == reference_answers(G, [1], ts)
        assert G.cols._kernel is None and not G.cols._known

"""The lane-packed adjacency kernel against the per-pair reference loop, and
the open-set filter of build_graph against per-point membership."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gridlab.errors import EmptySide
from gridlab.fields import GF, QQ
from gridlab.gridcheck import (
    BipartiteGraph,
    _AdjacencyRows,
    _monomial_values,
    _terms_int,
    _values_mod,
    build_graph,
    find_grid,
    max_common_neighborhood,
)
from gridlab.hypersurfaces import (
    ChartPoints,
    chart_codes,
    construct,
    family_symmetries,
    reduce_hypersurface_mod,
    reduce_open_set_mod,
)
from gridlab.primefields import is_prime
from gridlab.projective import Hypersurface, OpenSet, ProjPoint, chart_point, chart_size
from gridlab.ring import MultiPoly


def xy_vars(s: int) -> tuple:
    """x0..xs, y0..ys, the variables of a form on P^s x P^s."""
    return tuple(f"x{i}" for i in range(s + 1)) + tuple(f"y{i}" for i in range(s + 1))


def chart_points(field, s: int, chart: str = "projective") -> list:
    """The points of P^s over a finite field (chart "projective") as tuples
    of raw values, in canonical representatives (first nonzero coordinate
    1) and lexicographic in the order of `field.elements()`, or of its
    affine chart x0 = 1, the first q^s of them: the listing that
    `hypersurfaces.chart_point` decodes by index, counted first as it is."""
    chart_size(field.characteristic ** getattr(field, "s", 1), s, chart)
    elems = [x.val for x in field.elements()]
    pts = []
    for lead in range(1 if chart == "affine" else s + 1):
        head = (field._zero(),) * lead + (field._one(),)
        pts += [head + tail for tail in product(elems, repeat=s - lead)]
    return pts


def proj_points(field, s: int) -> list:
    """The points of P^s over a finite field as ProjPoints, in chart order."""
    return [ProjPoint(field, pt) for pt in chart_points(field, s)]


class PointList(list):
    """Residue tuples, any ones, with what `_AdjacencyRows` reads of a point
    sequence: `point(i)` and the coordinate columns."""

    def point(self, i):
        return self[i]

    def columns(self):
        return [list(col) for col in zip(*self)]


def chart_side(points, p: int, chart: str = "projective") -> ChartPoints:
    """The homogeneous chart points `points` of P^s(F_p), in their order, as
    the index sequence build_graph makes."""
    return ChartPoints(p, len(points[0]) - 1, chart, chart_codes(list(zip(*points)), p))


def columns_of(points, nvars: int) -> list:
    """The coordinate columns of `points`, also when there are none."""
    return [[pt[k] for pt in points] for k in range(nvars)]


def reference_rows(terms, left_coords, right_coords, p):
    """Bit j of row i is set iff sum_terms c * u^xe * v^ye == 0 mod p,
    evaluated one (u, v) pair at a time."""
    yexps = sorted({ye for _, _, ye in terms})
    yindex = {ye: i for i, ye in enumerate(yexps)}
    right_vals = []
    for v in right_coords:
        vals = []
        for ye in yexps:
            m = 1
            for cv, e in zip(v, ye):
                if e:
                    m = m * pow(cv, e, p) % p
            vals.append(m)
        right_vals.append(vals)
    rows = []
    for u in left_coords:
        coeff = [0] * len(yexps)
        for c, xe, ye in terms:
            m = c
            for cu, e in zip(u, xe):
                if e:
                    m = m * pow(cu, e, p) % p
            i = yindex[ye]
            coeff[i] = (coeff[i] + m) % p
        nz = [(i, cf) for i, cf in enumerate(coeff) if cf]
        mask = 0
        for j, vals in enumerate(right_vals):
            tot = 0
            for i, cf in nz:
                tot += cf * vals[i]
            if tot % p == 0:
                mask |= 1 << j
        rows.append(mask)
    return rows


def transpose(rows, n_right):
    return [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(n_right)]


def chart_coords(G, chart):
    """The chart coordinates build_graph evaluated at, per side."""
    if chart == "projective":
        return G.left, G.right
    return [(1,) + u for u in G.left], [(1,) + v for v in G.right]


def assert_matches_reference(H, p, X=None, Y=None, chart="affine"):
    G = build_graph(H, p, X, Y, chart=chart)
    left, right = chart_coords(G, chart)
    assert list(G.rows) == reference_rows(_terms_int(reduce_hypersurface_mod(H, p)), left, right, p)


def exponents(nvars, degree):
    """Exponent vectors of total `degree` in `nvars` variables."""
    return st.lists(
        st.integers(0, nvars - 1), min_size=degree, max_size=degree
    ).map(lambda picks: tuple(picks.count(k) for k in range(nvars)))


@st.composite
def bihomogeneous_forms(draw, primes, max_s=2, max_deg=3):
    p = draw(st.sampled_from(primes))
    s = draw(st.integers(1, max_s))
    dx = draw(st.integers(0, max_deg))
    dy = draw(st.integers(0, max_deg))
    monomial = st.tuples(exponents(s + 1, dx), exponents(s + 1, dy))
    terms = draw(
        st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=6)
    )
    vars = xy_vars(s)
    poly = MultiPoly(GF(p), vars, {xe + ye: c for (xe, ye), c in terms.items()})
    return p, Hypersurface(poly, s, s)


@st.composite
def open_sets(draw, p, s, name):
    vars = tuple(f"{name}{i}" for i in range(s + 1))
    excluded = []
    for _ in range(draw(st.integers(0, 2))):
        deg = draw(st.integers(1, 2))
        terms = draw(
            st.dictionaries(
                exponents(s + 1, deg), st.integers(1, p - 1), min_size=1, max_size=3
            )
        )
        excluded.append(MultiPoly(GF(p), vars, terms))
    return OpenSet(s, excluded)


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    bihomogeneous_forms([2, 3, 5, 7, 13]),
    st.sampled_from(["affine", "projective"]),
    st.booleans(),
)
def test_rows_match_reference_small_primes(data, form, chart, opens):
    # rows and columns are computed one at a time on first read, by two
    # kernels; read them in a random order, the columns first or last
    p, H = form
    X = data.draw(open_sets(p, H.sx, "x")) if opens else None
    Y = data.draw(open_sets(p, H.sy, "y")) if opens else None
    try:
        G = build_graph(H, p, X, Y, chart=chart)
    except EmptySide:  # the open sets removed a whole side
        return
    left, right = chart_coords(G, chart)
    expected = reference_rows(_terms_int(reduce_hypersurface_mod(H, p)), left, right, p)
    columns = transpose(expected, len(right))
    if data.draw(st.booleans()):
        assert list(G.cols) == columns
    order = data.draw(st.permutations(range(len(left))))
    assert [G.rows[i] for i in order] == [expected[i] for i in order]
    assert list(G.rows) == expected
    assert list(G.cols) == columns


@st.composite
def excluded_forms(draw, p, s, name):
    """Forms of degree 1-3 in name0..names: over F_p, or over Q with
    denominators and with coefficients that p divides."""
    vars = tuple(f"{name}{i}" for i in range(s + 1))
    if draw(st.booleans()):
        field = GF(p)
        coeff = st.integers(1, p - 1)
    else:
        field = QQ
        numerator = st.integers(-3, 3).filter(bool).flatmap(
            lambda a: st.sampled_from([a, a * p])
        )
        coeff = st.builds(Fraction, numerator, st.integers(1, 2 * p))
    deg = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(exponents(s + 1, deg), coeff, min_size=1, max_size=4))
    return MultiPoly(field, vars, terms)


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.sampled_from([2, 3, 5, 7, 13]),
    st.integers(1, 2),
    st.sampled_from(["affine", "projective"]),
)
def test_vertices_match_point_membership(data, p, s, chart):
    vars = xy_vars(s)
    poly = MultiPoly.parse(QQ, vars, "x0*y0")
    H = Hypersurface(poly, s, s)
    X, Y = (
        OpenSet(s, data.draw(st.lists(excluded_forms(p, s, name), max_size=2)))
        for name in "xy"
    )
    if chart == "affine":
        pts = [(1,) + tail for tail in product(range(p), repeat=s)]
    else:
        pts = chart_points(GF(p), s)

    def inside(U):
        Up = reduce_open_set_mod(U, p)
        kept = [pt for pt in pts if Up.contains(ProjPoint(GF(p), pt))]
        return kept if chart == "projective" else [pt[1:] for pt in kept]

    left, right = inside(X), inside(Y)
    if not left or not right:
        with pytest.raises(EmptySide):
            build_graph(H, p, X, Y, chart=chart)
        return
    G = build_graph(H, p, X, Y, chart=chart)
    assert list(G.left) == left
    assert list(G.right) == right


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(1, 3),
    st.sampled_from(["affine", "projective"]),
)
def test_index_sides_match_the_listing(data, p, s, chart):
    # build_graph's sides hold chart indices and decode a vertex when it is
    # read: entries, homogeneous points and coordinate columns must be the
    # listed chart points that the open set contains, in the listing's order
    vars = xy_vars(s)
    H = Hypersurface(MultiPoly.parse(QQ, vars, "x0*y0"), s, s)
    X, Y = (
        OpenSet(s, data.draw(st.lists(excluded_forms(p, s, name), max_size=2)))
        for name in "xy"
    )
    listed = chart_points(GF(p), s, chart)

    def inside(U):
        Up = reduce_open_set_mod(U, p)
        return [pt for pt in listed if Up.contains(ProjPoint(GF(p), pt))]

    want = inside(X), inside(Y)
    if not all(want):
        with pytest.raises(EmptySide):
            build_graph(H, p, X, Y, chart=chart)
        return
    G = build_graph(H, p, X, Y, chart=chart)
    for side, points in zip((G.left, G.right), want):
        assert isinstance(side, ChartPoints) and len(side) == len(points)
        assert [side.point(i) for i in range(len(side))] == points
        assert list(side) == (points if chart == "projective" else [pt[1:] for pt in points])
        assert [list(col) for col in side.columns()] == columns_of(points, s + 1)
        i = data.draw(st.integers(-len(points), len(points) - 1))
        assert side[i] == list(side)[i]
        with pytest.raises(IndexError):
            side[len(points)]
    if not (X.excluded or Y.excluded):
        assert G.left is G.right and G.left.codes is None


# (p, k, largest s) for each field GF(p, k) with p^k <= 125: s <= 3, and
# charts of at most 125^2 points a block, so the listing stays small
FIELDS_UP_TO_125 = [
    (p, k, max(s for s in range(4) if (p**k) ** s <= 125**2))
    for p in range(2, 126)
    if is_prime(p)
    for k in range(1, 7)
    if p**k <= 125
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FIELDS_UP_TO_125).flatmap(
        lambda pks: st.tuples(st.just(pks[:2]), st.integers(0, pks[2]))
    ),
    st.sampled_from(["affine", "projective"]),
)
def test_index_sides_match_the_listing_over_every_finite_field(field_s, chart):
    # one decoder for P^s(F_q): index i is listed point i over GF(p, k),
    # each base-q digit the field element with that index, and over F_p the
    # whole chart's entries, points and columns are the listed ones
    (p, k), s = field_s
    listed = chart_points(GF(p, k), s, chart)
    assert [chart_point(i, p, s, k) for i in range(len(listed))] == listed
    if k == 1:
        side = ChartPoints(p, s, chart)
        assert [side.point(i) for i in range(len(side))] == listed
        assert list(side) == (listed if chart == "projective" else [pt[1:] for pt in listed])
        assert [list(col) for col in side.columns()] == columns_of(listed, s + 1)


def scan_answers(G, s, ts):
    out = []
    for t in ts:
        w = find_grid(G, s, t)
        out.append(None if w is None else (w.S, w.T))
    return out + [max_common_neighborhood(G, s)]


def explicit(G, symmetries):
    """G's graph with its rows given as a list and its columns by `transpose`."""
    rows = list(G.rows)
    return BipartiteGraph(G.left, G.right, rows, transpose(rows, len(G.right)), symmetries)


@settings(max_examples=60, deadline=None)
@given(
    bihomogeneous_forms([3, 5, 7]),
    st.sampled_from(["affine", "projective"]),
    st.integers(1, 3),
)
def test_scans_on_demand_match_explicit_rows(form, chart, s):
    p, H = form
    G = build_graph(H, p, chart=chart)
    if s > len(G.left):
        return
    ts = (1, 2, 3, len(G.right))
    expected = scan_answers(explicit(G, []), s, ts)
    assert scan_answers(build_graph(H, p, chart=chart), s, ts) == expected


@pytest.mark.parametrize(
    "family,p,dim,s,ts",
    [
        ("1a", 7, None, 2, (2,)),
        ("1b", 3, None, 3, (2, 3)),
        ("1c", 5, 2, 2, (2, 3)),
        ("1c", 3, 3, 3, (3, 7)),
        ("1d", 5, 3, 3, (2, 3)),
    ],
)
def test_pruned_scans_on_demand_match_explicit_rows(family, p, dim, s, ts):
    c = construct(family, p, dim)
    symmetries = family_symmetries(family, p, c.s)

    def graph():
        return build_graph(c.hypersurface, p, symmetries=symmetries)

    G = graph()
    assert G.symmetries
    expected = scan_answers(explicit(G, []), s, ts)
    assert scan_answers(explicit(G, G.symmetries), s, ts) == expected
    assert scan_answers(graph(), s, ts) == expected


@settings(max_examples=25, deadline=None)
@given(
    bihomogeneous_forms([101, 257], max_s=1, max_deg=4),
    st.sampled_from(["affine", "projective"]),
)
def test_rows_match_reference_wide_lanes(form, chart):
    p, H = form
    assert_matches_reference(H, p, chart=chart)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 13, 101, 257]))
def test_kernel_matches_reference_on_raw_terms(data, p):
    # any residue coordinates, not only chart points; repeated monomials
    # and many y-monomials push the lane sums toward their bound
    nx, ny = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    residue = st.integers(0, p - 1)
    term = st.tuples(
        residue,
        st.tuples(*[st.integers(0, 3)] * nx),
        st.tuples(*[st.integers(0, 3)] * ny),
    )
    terms = data.draw(st.lists(term, min_size=1, max_size=12))
    left = data.draw(st.lists(st.tuples(*[residue] * nx), min_size=1, max_size=8))
    right = data.draw(st.lists(st.tuples(*[residue] * ny), min_size=1, max_size=40))
    rows = _AdjacencyRows(terms, PointList(left), PointList(right), p)
    cols = rows.transpose()
    expected = reference_rows(terms, left, right, p)
    columns = transpose(expected, len(right))
    # each entry is computed on its first read: a random subset of rows and
    # of columns, read in a random order, must not depend on earlier reads
    picked = data.draw(st.lists(st.integers(0, len(left) - 1), unique=True))
    assert [rows[u] for u in picked] == [expected[u] for u in picked]
    picked = data.draw(st.lists(st.integers(0, len(right) - 1), unique=True))
    assert [cols[j] for j in picked] == [columns[j] for j in picked]
    assert list(rows) == expected
    assert list(cols) == columns


@pytest.mark.parametrize(
    "family,p,s,chart",
    [
        ("1a", 13, None, "affine"),
        ("1b", 7, None, "affine"),
        ("1c", 5, 3, "affine"),
        ("1d", 11, 2, "projective"),
    ],
)
def test_constructions_match_reference(family, p, s, chart):
    assert_matches_reference(construct(family, p, s).hypersurface, p, chart=chart)


@pytest.mark.parametrize("block_bytes", [1, 20, 300])
@pytest.mark.parametrize(
    "family,p,s,chart", [("1a", 7, None, "affine"), ("1d", 5, 2, "projective")]
)
def test_kernel_in_blocks_matches_reference(monkeypatch, block_bytes, family, p, s, chart):
    # a right side with more lanes than `_BLOCK_BYTES` is packed in blocks,
    # the last one short, and each row is computed block by block
    from gridlab import gridcheck

    monkeypatch.setattr(gridcheck, "_BLOCK_BYTES", block_bytes)
    assert_matches_reference(construct(family, p, s).hypersurface, p, chart=chart)


def test_single_y_monomial():
    vars = xy_vars(1)
    poly = MultiPoly.parse(GF(7), vars, "x0*y0**2 + 3*x1*y0**2")
    H = Hypersurface(poly, 1, 1)
    assert len({ye for _, _, ye in _terms_int(reduce_hypersurface_mod(H, 7))}) == 1
    assert_matches_reference(H, 7, chart="projective")


def test_zero_coefficient_vector_gives_full_row():
    # x1*(y0 + y1): every coefficient vanishes at x1 = 0
    vars = xy_vars(1)
    poly = MultiPoly.parse(GF(5), vars, "x1*y0 + x1*y1")
    H = Hypersurface(poly, 1, 1)
    G = build_graph(H, 5)
    assert G.rows[0] == (1 << len(G.right)) - 1  # left vertex x1 = 0
    assert_matches_reference(H, 5)


@pytest.mark.parametrize("p", [2, 3, 257])
def test_one_vertex_right_side(p):
    terms = [(1, (1, 0), (0, 1)), (p - 1, (0, 1), (1, 0))]  # x0*y1 - x1*y0
    left = [(1, a) for a in range(p)] + [(0, 1)]
    for v in [(1, 0), (1, p - 1), (0, 1)]:
        rows = list(_AdjacencyRows(terms, chart_side(left, p), chart_side([v], p), p))
        assert rows == reference_rows(terms, left, [v], p)
        assert sum(rows) == 1  # the one left point equal to v



# -- monomial columns against the per-point loop --------------------------------------


def reference_monomial_values(points, exps, p):
    """values[i][j] = the monomial exps[i] at points[j], mod p, one point
    at a time."""
    values = []
    for e in exps:
        row = []
        for pt in points:
            m = 1
            for c, k in zip(pt, e):
                m = m * pow(c, k, p) % p
            row.append(m)
        values.append(row)
    return values


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 3))
def test_monomial_values_match_per_point_loop(data, p, nvars):
    # exponents reach past p, points may be empty, and the constant
    # monomial and repeated monomials are drawn too
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 2 * p + 1)] * nvars), max_size=6))
    exps.append((0,) * nvars)
    points = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * nvars), max_size=20))
    columns = columns_of(points, nvars)
    assert _monomial_values(columns, exps, p) == reference_monomial_values(points, exps, p)
    f = MultiPoly(GF(p), tuple(f"z{k}" for k in range(nvars)),
                  {e: data.draw(st.integers(1, p - 1)) for e in exps})
    want = [f.evaluate(list(pt)).val for pt in points]
    assert _values_mod(f, columns, p) == want


def test_monomial_values_edge_cases():
    assert _monomial_values([[], []], [(0, 0), (2, 1)], 5) == [[], []]
    assert _monomial_values([[1, 3], [2, 4]], [], 5) == []
    assert _monomial_values([[1, 3], [2, 4]], [(0, 0)], 5) == [[1, 1]]
    # x^7 = x^3 on F_5 (exponent >= p), and 0^0 = 1
    pts = columns_of([(a, 0) for a in range(5)], 2)
    assert _monomial_values(pts, [(7, 0), (3, 0)], 5) == [[0, 1, 3, 2, 4]] * 2
    # a column of ones (x0 on the affine chart) is a factor 1
    ones = [[1, 1, 1], [0, 2, 4]]
    assert _monomial_values(ones, [(3, 1), (2, 0), (1, 2)], 5) == [[0, 2, 4], [1, 1, 1], [0, 4, 1]]

"""Bipartite graphs from hypersurfaces over F_p, exhaustive (s,t)-grid
detection with bitset adjacency rows, and edge-count reporting against the
Kővári–Sós–Turán/Füredi leading term.

Adjacency rows come from a lane-packed kernel (`_lane_kernel`): each
y-monomial's values over all right vertices are packed into one Python int,
one byte-aligned lane per vertex, so a left vertex's row takes a few big-int
multiplies and adds, one Barrett reduction of every lane at once and a
zero-lane test, instead of a Python loop over the right side.  The rows of a
`build_graph` graph are computed on demand (`_AdjacencyRows`): the kernel is
set up on the first request, and each row is computed when it is first read
and then cached.  Its columns come from the same kernel with the x and y
roles swapped, so the scan never transposes and a pruned scan pays only for
the rows and columns it reads.  A `build_graph` graph is a description:
it verifies its symmetries on first use too (below), so the scan's budget
check (`_check_budget`) comes before any row, column or map is computed.

The vertices come from one path.  `build_graph` lists the chart's residue
tuples (`hypersurfaces.chart_points`, which counts them against the
enumeration budget first), and keeps, on each side, those where no
excluded form of the open set vanishes.  The test is the same kernel: an excluded form reduced mod p
is a form with one left vertex, (), and the chart points on its right, so
one kernel row marks every point on its zero set at once.

`find_grid` and `max_common_neighborhood` share one subset scan (`_scan`):
a depth-first walk of the left s-subsets in lexicographic order that
prunes a prefix once its common neighborhood has no more than a floor of
members, since deeper intersections only shrink.  `find_grid` fixes the
floor at t-1 and stops at the first hit; `max_common_neighborhood` starts
it at -1 and raises it to each new maximum.  The lexicographic order is
part of the contract, so witnesses, argmaxes and reports are
byte-identical across runs.

The last depth of the scan counts by columns instead of trying each
remaining candidate: a prefix with common neighborhood `inter` adds the
columns (the left vertices adjacent to each right vertex) of the members
of `inter` into a bit-sliced counter, one plane per bit of every
candidate's count |inter & N(i)|.  A prefix then costs |inter| column
adds of a few big-int operations each, not one intersection per remaining
candidate.  The counts pick the lowest candidate that the candidate loop
would have reported, so the lexicographic order is kept.

A graph may carry verified symmetries, and the scan then visits only orbit
minima at its first two depths.  Let g be an automorphism of the graph that
maps left vertices to left vertices, and let S = (v0 < v1 < ...) be the
answer: the first subset, in lexicographic order, with more than t-1
common neighbours, or the first of maximum count.  g(S) has as many common
neighbours as S, so it is no earlier than S.  If g(v0) < v0, g(S) would
start lower, so v0 is the smallest vertex of its orbit.  If g fixes v0 and
g(v1) < v1, then g(S) holds v0 and a vertex below v1, so it would come
first.  So v1 is the smallest of its orbit under any group of maps that fix
v0.  The scan therefore tries at depth 0 only the orbit minima of the group
the symmetries generate.  When s >= 3, depth 1 then tries only the minima
under those generators that fix the first vertex.  The last level is
unchanged.  The scan still meets S, and it meets every subset it visits in
the same order as before, so S, T and the argmax are byte-identical.  The
budget still counts C(|left|, s), as for the plain graph.

The edge count reads one row per orbit.  g maps N(v) onto N(g(v)), so the
degree is constant on each orbit of left vertices, and by the
orbit-stabiliser count |E| = sum over the orbits O of |O| * deg(min O).
`BipartiteGraph` computes the orbit labels once, for this count, `degree`
and the scan's first depth.  Family 1a's maps act on F_p^2 with two
orbits, and on P^2(F_p) with one, so its count reads 2 rows, or 1.  A
graph without symmetries sums every row.

The symmetries come from `build_graph(..., symmetries=...)` as candidate
matrix pairs (M_x, M_y) mod p acting on homogeneous coordinates,
(x, y) -> (M_x x, M_y y) (`hypersurfaces.MatrixPair`,
`hypersurfaces.family_symmetries`); an affine map x -> A x + b of the
chart x0 = 1 is [[1, 0], [b, A]].  They are verified on the first read of
the graph's `symmetries` or `orbit_labels`, once.  `symmetry_permutations`
keeps a candidate only when all of these hold:
- both matrices are (s+1) x (s+1) and invertible mod p, and on the affine
  chart the rows of x0 and y0 are (1, 0, ..., 0), so the map is an affine
  map [[1, 0], [b, A]] of the chart;
- the map carries the form mod p to λ times the form, λ != 0: one
  `MultiPoly.substitute` of x_i -> sum_j (M_x)_ij x_j, and likewise on y,
  into the reduced bihomogeneous form;
- M_x maps the left vertex list onto itself and M_y the right one.
Then the map sends edges to edges and non-edges to non-edges, on either
chart and between any open sets: the last test is made on the vertex lists
themselves, so no reasoning about the excluded forms is needed.  It maps
all vertices at once, column by column, scales each image to first
nonzero coordinate 1 and computes its index in the chart's order
arithmetically (`hypersurfaces.chart_codes`); a side with an open set is
indexed through a position table.  A wrong candidate is dropped, and a
missing one costs only speed.  No family label is trusted.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from math import comb

from .errors import (
    BudgetExceeded,
    EmptySide,
    InvalidWitness,
    ParameterOutOfRange,
    UnknownVariable,
)
from .fields import GF, enumeration_budget, matrix_rank
from .hypersurfaces import Hypersurface, OpenSet, chart_codes, chart_points, reduce_hypersurface_mod
from .poly import MultiPoly

class GridWitness:
    """Index sets certifying an (s,t)-grid; re-verified on construction."""

    __slots__ = ("S", "T")

    def __init__(self, S: list, T: list):
        self.S = S
        self.T = T

    @classmethod
    def checked(cls, S, T, rows) -> "GridWitness":
        S, T = sorted(S), sorted(T)
        for i in S:
            for j in T:
                if not rows[i] >> j & 1:
                    raise InvalidWitness(f"witness edge ({i},{j}) missing")
        return cls(S, T)

    def to_json(self) -> dict:
        return {"S": self.S, "T": self.T}


class BipartiteGraph:
    """Two indexed point lists plus adjacency bitsets: rows[i] over the right
    side for left i, cols[j] over the left side for right j.

    `rows` and `cols` are int sequences: lists, or the on-demand
    `_AdjacencyRows` of `build_graph` and its `transpose()`.  Both are
    given; the graph never transposes its rows itself."""

    def __init__(
        self,
        left: list,
        right: list,
        rows: Sequence,
        cols: Sequence,
        symmetries: list | None = None,
    ):
        if not left or not right:
            raise EmptySide("both sides need at least one vertex")
        if len(rows) != len(left):
            raise ParameterOutOfRange("adjacency rows do not match left side")
        if len(cols) != len(right):
            raise ParameterOutOfRange("adjacency columns do not match right side")
        self.left = left
        self.right = right
        self.rows = rows
        self.cols = cols
        self._symmetries = symmetries or []
        self._labels = None

    @property
    def symmetries(self) -> list:
        """Left-index permutations of verified graph automorphisms (each maps
        right vertices to right vertices too); the scan prunes by them and
        the edge count reads one row per orbit.  They may be given as a
        function that returns them, as `build_graph` does: it is called on
        the first read, and its list is kept."""
        if callable(self._symmetries):
            self._symmetries = self._symmetries()
        return self._symmetries

    @property
    def orbit_labels(self) -> list | None:
        """labels[i] = the smallest left index in the orbit of i under the
        group that `symmetries` generate, computed once; None without
        symmetries."""
        if self._labels is None and self.symmetries:
            self._labels = _orbit_labels(len(self.rows), self._symmetries)
        return self._labels

    def edge_count(self) -> int:
        """|E|.  With symmetries, one row per orbit: an automorphism g maps
        N(i) onto N(g(i)), so the degree is constant on each orbit O of left
        vertices and |E| = sum over the orbits of |O| * deg(min O)."""
        labels = self.orbit_labels
        if labels is None:
            return sum(r.bit_count() for r in self.rows)
        return sum(size * self.rows[v].bit_count() for v, size in Counter(labels).items())

    def degree(self, i: int) -> int:
        """The degree of left vertex i, read from the row of its orbit's
        smallest vertex when the graph has symmetries."""
        labels = self.orbit_labels
        return self.rows[i if labels is None else labels[i]].bit_count()


def _terms_int(Hp: Hypersurface):
    """The terms of a form over F_p as (coeff, x-exps, y-exps) integer
    triples."""
    nx = len(Hp.form.xvars)
    return [(c, e[:nx], e[nx:]) for e, c in Hp.form.poly.terms.items()]


# flag byte of a lane after the zero test -> ASCII binary digit
_FLAG_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def _monomial_tables(exps, p):
    """tables[i] = (k, powers) pairs, one per variable k in the monomial
    exps[i], with powers[a] = a^(exps[i][k]) mod p: the monomial's value at
    a point of residues in [0, p) is the product of powers[pt[k]] mod p."""
    used = {ek for e in exps for ek in e if ek}
    powers = {k: [pow(a, k, p) for a in range(p)] for k in used}
    return [[(k, powers[ek]) for k, ek in enumerate(e) if ek] for e in exps]


def _monomial_values(points, exps, p):
    """values[i][j] = the monomial exps[i] at points[j], mod p.

    Column-wise: one residue column per (variable, exponent) by lookup in
    `_monomial_tables`, a monomial's column the product of its columns."""
    if not points:
        return [[] for _ in exps]
    coords = list(zip(*points))
    columns = {}  # (variable, exponent) -> its residue column
    values = []
    for e, cols in zip(exps, _monomial_tables(exps, p)):
        row = None
        for k, pw in cols:
            col = columns.get((k, e[k]))
            if col is None:
                col = columns[k, e[k]] = list(map(pw.__getitem__, coords[k]))
            row = col if row is None else [x * y % p for x, y in zip(row, col)]
        values.append([1] * len(points) if row is None else row)
    return values


def _values_mod(f, points, p):
    """f, a polynomial over F_p, at each residue tuple of points, mod p."""
    vals = [0] * len(points)
    for c, row in zip(f.terms.values(), _monomial_values(points, list(f.terms), p)):
        vals = [v + c * m for v, m in zip(vals, row)]
    return [v % p for v in vals]


def _lane_kernel(terms, left_coords, right_coords, p):
    """row(u): bit j set iff the form vanishes at (left u, right j) mod p.

    Lane-packed: for each y-monomial, its values over all right vertices
    sit in one int, vertex j in the byte-aligned `width`-bit lane j.  The
    set-up packs those lanes once, and tables of the powers of F_p that the
    x-exponents use; a row evaluates u's x-monomials from those tables, then
    costs a few big-int operations: the lane sums S = sum_i c_i(u) P_i, one
    Barrett reduction of every lane at once, a SWAR zero-lane test and a
    byte compaction of the lane flags.  Coordinates are residues in [0, p).
    """
    nr = len(right_coords)
    if not nr:
        return lambda u: 0
    yexps = sorted({ye for _, _, ye in terms})
    xexps = sorted({xe for _, xe, _ in terms})
    yindex = {ye: i for i, ye in enumerate(yexps)}
    xindex = {xe: a for a, xe in enumerate(xexps)}
    plan = [(c, xindex[xe], yindex[ye]) for c, xe, ye in terms]
    # A lane sum is below `bound`.  With m = ceil(2^r / p) and
    # 2^r > 2p * bound, (x * m) >> r is exactly x // p for every lane value
    # x, and x * m < 2^(r + bits(bound)) stays inside its lane.
    bound = len(yexps) * (p - 1) ** 2 + 1
    r = bound.bit_length() + p.bit_length() + 1
    m = -(-(1 << r) // p)
    nbytes = -(-(r + bound.bit_length()) // 8)
    width = 8 * nbytes

    def packed(lane: int) -> int:
        return int.from_bytes(lane.to_bytes(nbytes, "little") * nr, "little")

    qmask = packed((1 << (width - r)) - 1)
    high = packed(1 << (width - 1))
    lane_bytes = [v.to_bytes(nbytes, "little") for v in range(p)]
    lanes = [
        int.from_bytes(b"".join([lane_bytes[v] for v in vals]), "little")
        for vals in _monomial_values(right_coords, yexps, p)
    ]
    xtables = _monomial_tables(xexps, p)
    size = nbytes * nr
    ny = len(yexps)

    def row(u: int) -> int:
        pt = left_coords[u]
        xvals = []
        for cols in xtables:
            xv = 1
            for k, pw in cols:
                xv = xv * pw[pt[k]] % p
            xvals.append(xv)
        coeff = [0] * ny
        for c, a, i in plan:
            coeff[i] += c * xvals[a]
        S = 0
        for cf, P in zip(coeff, lanes):
            cf %= p
            if cf:
                S += cf * P
        R = S - ((S * m >> r) & qmask) * p
        # a lane's top bit survives high - R iff the lane of R is zero; the
        # big-endian bytes hold the lanes' top bytes from lane nr-1 down
        flags = ((high - R) & high).to_bytes(size, "big")[::nbytes]
        return int(flags.translate(_FLAG_DIGITS), 2)

    return row


class _AdjacencyRows(Sequence):
    """The adjacency bitsets of a form between two point lists, on demand:
    entry u has bit j set iff the form vanishes at (left u, right j) mod p.

    The lane kernel (`_lane_kernel`) is set up on the first request; each
    entry is computed on its first request and cached, so a scan that reads
    a few rows pays for those alone.  `transpose()` gives the columns from
    the same kernel with the x and y roles swapped."""

    __slots__ = ("_args", "_kernel", "_known")

    def __init__(self, terms, left_coords, right_coords, p):
        self._args = (terms, left_coords, right_coords, p)
        self._kernel = None
        self._known = [None] * len(left_coords)

    def __len__(self) -> int:
        return len(self._known)

    def __getitem__(self, u: int) -> int:
        bits = self._known[u]
        if bits is None:
            if self._kernel is None:
                self._kernel = _lane_kernel(*self._args)
            bits = self._known[u] = self._kernel(u)
        return bits

    def __iter__(self):
        return map(self.__getitem__, range(len(self._known)))

    def transpose(self) -> "_AdjacencyRows":
        """Entry j: the bitset of the left vertices adjacent to right j."""
        terms, left_coords, right_coords, p = self._args
        swapped = [(c, ye, xe) for c, xe, ye in terms]
        return _AdjacencyRows(swapped, right_coords, left_coords, p)


def _carries_form(form, m) -> bool:
    """Whether x -> M_x x and y -> M_y y carry `form`, a monic bihomogeneous
    form over F_p, to λ·form with λ != 0: then the map sends edges to edges
    and non-edges to non-edges.  One `MultiPoly.substitute`; a variable
    that the map fixes is left out, so substitute skips it."""
    poly = form.poly
    vars = poly.vars
    unit = [tuple(int(i == k) for i in range(len(vars))) for k in range(len(vars))]
    p = poly.field.characteristic
    images = {}
    for group, M in zip((form.xvars, form.yvars), m):
        at = [vars.index(v) for v in group]
        for i, row in enumerate(M):
            if any(a % p != (i == j) for j, a in enumerate(row)):
                terms = {unit[at[j]]: a for j, a in enumerate(row)}
                images[group[i]] = MultiPoly(poly.field, vars, terms)
    g = poly.substitute(images, new_vars=vars)
    # the form is monic, so this is g = λ·form with λ != 0
    return not g.is_zero() and g.monic() == poly


def _image(M, coords, p) -> list:
    """The coordinate columns of M applied to the points whose coordinate
    columns are `coords`, mod p; a unit row reuses its column."""
    image = []
    for row in M:
        terms = [(a % p, col) for a, col in zip(row, coords) if a % p]
        if len(terms) == 1 and terms[0][0] == 1:
            image.append(terms[0][1])
            continue
        (a, col), *more = terms
        acc = col if a == 1 else [a * v for v in col]
        for a, col in more:
            acc = [u + a * v for u, v in zip(acc, col)]
        image.append([u % p for u in acc])
    return image


def symmetry_permutations(
    form, maps: list, left: list, right: list, p: int, affine: bool, right_perm: bool = True
) -> list:
    """For each candidate MatrixPair (M_x, M_y) of `maps`, the pair (left
    permutation, right permutation) of vertex indices by which it acts on
    the graph of `form` between the vertex lists `left` and `right`, or
    None when it is not verified to be an automorphism of that graph.

    The vertices are residue tuples of P^s in the canonical representatives
    of `chart_points` (the affine chart when `affine`).  A candidate is
    kept when all of these hold:
    - both matrices are (s+1) x (s+1); on the affine chart the row of x0 in
      M_x, and of y0 in M_y, is (1, 0, ..., 0), so that the map is an
      affine map of the chart (an arithmetic test, made before any point
      is mapped);
    - both matrices are invertible mod p (`fields.matrix_rank`);
    - it carries the form mod p to λ·form, λ != 0 (`_carries_form`);
    - M_x maps `left` onto itself and M_y maps `right` onto itself.
    The last test maps every vertex at once, column by column, scales each
    image to first nonzero coordinate 1 and indexes it arithmetically
    (`chart_codes`); a side that is not the whole chart is then indexed
    through a position table, and a vertex whose image is not on it
    rejects the map.  An invertible map is injective, so onto follows.  A
    right side that is the whole chart is mapped onto itself by every map
    that passes the first two tests; with `right_perm` false such a side is
    not mapped, and its permutation is given as None."""
    n = len(left[0])
    field = form.poly.field
    size = p ** (n - 1) if affine else (p**n - 1) // (p - 1)

    sides = {}

    def side(k):
        """(coordinate columns, position table) of left (k = 0) or right
        (k = 1), made on first use; the table is None for the whole chart
        in chart order, where a code is its own index."""
        if k not in sides:
            coords = list(zip(*(left, right)[k]))
            codes = chart_codes(coords, p)
            position = None
            if codes != list(range(size)):
                position = [-1] * size
                for i, c in enumerate(codes):
                    position[c] = i
            sides[k] = coords, position
        return sides[k]

    # a map that passes the chart and rank tests maps the whole chart onto
    # itself, so such a right side needs no mapping unless its permutation
    # is asked for
    skip_right = not right_perm and len(right) == size
    out = []
    for m in maps:
        pair = None
        if _invertible_on_chart(m, n, p, field, affine) and _carries_form(form, m):
            lp = _permutation(m[0], side(0), p)
            if lp is not None:
                rp = None if skip_right else _permutation(m[1], side(1), p)
                if skip_right or rp is not None:
                    pair = (lp, rp)
        out.append(pair)
    return out


def _permutation(M, side, p: int) -> list | None:
    """perm[k] = the index in a vertex list of M times its vertex k, from
    the list's `side` (coordinate columns, position table); None when an
    image is not in the list."""
    coords, position = side
    codes = chart_codes(_image(M, coords, p), p)
    if position is None:
        return codes
    perm = list(map(position.__getitem__, codes))
    return None if -1 in perm else perm


def _invertible_on_chart(m, n: int, p: int, field, affine: bool) -> bool:
    """Whether both matrices of m are invertible n x n matrices mod p and,
    on the affine chart, affine maps of it: row 0 is (1, 0, ..., 0)."""
    x0 = (1,) + (0,) * (n - 1)
    for M in m:
        if len(M) != n or any(len(row) != n for row in M):
            return False
        if affine and tuple(a % p for a in M[0]) != x0:
            return False
    return all(matrix_rank(M, field) == n for M in m)


def _open_points(U: OpenSet, pts: list, p: int) -> list:
    """The points of `pts` (residue tuples) where no excluded form of U, a
    form over F_p, vanishes: each form is one `_lane_kernel` row, with the
    one left vertex () and `pts` on the right."""
    on = 0
    for f in U.excluded:
        on |= _lane_kernel([(c, (), e) for e, c in f.terms.items()], [()], pts, p)(0)
    flags = format(on, f"0{len(pts)}b")[::-1]  # flags[j]: bit j of `on`
    return [pt for pt, flag in zip(pts, flags) if flag == "0"]


def build_graph(
    H: Hypersurface,
    p: int,
    X: OpenSet | None = None,
    Y: OpenSet | None = None,
    chart: str = "affine",
    symmetries: list | None = None,
) -> BipartiteGraph:
    """Vertices are the F_p-points of the chosen chart inside X and Y;
    edges by exact evaluation of the defining form.

    Each side keeps the chart's residue tuples (`chart_points`, affine or
    projective) where no excluded form of its open set, reduced mod p,
    vanishes (`_open_points`); EmptySide is raised when a side is left with
    no point.  A chart with more points than the enumeration budget is
    refused before it is listed.

    The graph is a description: nothing that a scan may not need is
    computed here.  Its rows and columns are computed on first read
    (`_AdjacencyRows`), and so are its symmetries: `symmetries` lists
    candidate MatrixPairs (`hypersurfaces.family_symmetries`), and on the
    first read of the graph's `symmetries` or `orbit_labels` the maps that
    `symmetry_permutations` verifies on the form mod p and on both vertex
    lists, on either chart and under any open sets, become the left-index
    permutations that the scan and the edge count prune by.  So a scan
    that the budget refuses costs the point listing alone.  The adjacency
    kernel and the symmetry test share one reduction of H mod p."""
    s = H.s
    pts = chart_points(GF(p), s, chart)
    Xp = (X or OpenSet.full(s)).reduce_mod(p)
    Yp = (Y or OpenSet.full(s)).reduce_mod(p)
    for f in Xp.excluded + Yp.excluded:
        if len(f.vars) != len(pts[0]):
            raise UnknownVariable("point length does not match variables")
    left, right = _open_points(Xp, pts, p), _open_points(Yp, pts, p)
    if not left or not right:
        raise EmptySide("open-set filters removed a whole side")
    Hp = reduce_hypersurface_mod(H, p)
    rows = _AdjacencyRows(_terms_int(Hp), left, right, p)
    display = left if chart == "projective" else [u[1:] for u in left]
    display_r = right if chart == "projective" else [v[1:] for v in right]

    def kept():
        verified = symmetry_permutations(
            Hp.form, symmetries, left, right, p, chart == "affine", right_perm=False
        )
        return [perms[0] for perms in verified if perms]

    return BipartiteGraph(
        display,
        display_r,
        rows,
        rows.transpose(),
        kept if symmetries else None,
    )


def _check_budget(n: int, s: int):
    limit = enumeration_budget()
    if comb(n, s) > limit:
        raise BudgetExceeded(
            f"C({n},{s}) = {comb(n, s)} subset iterations exceed budget {limit}"
        )


def _orbit_labels(n: int, perms: list) -> list:
    """labels[i] = the smallest index in the orbit of i under the group that
    the permutations `perms` of range(n) generate."""
    labels = [-1] * n
    for i in range(n):
        if labels[i] < 0:
            labels[i] = i
            stack = [i]
            while stack:
                v = stack.pop()
                for g in perms:
                    w = g[v]
                    if labels[w] < 0:
                        labels[w] = i
                        stack.append(w)
    return labels


def _scan(G: BipartiteGraph, s: int, floor: int, first: bool):
    """(S, common neighborhood bitset) for the lexicographically first
    s-subset with more than `floor` common neighbours, or with `first` false
    the first one of maximum size (each hit raises `floor`, so ties keep the
    earlier subset); None when no subset beats `floor`.

    Depths above the last try each candidate vertex in turn, since they
    recurse into every survivor anyway.  The last depth counts instead: for
    a prefix with common neighborhood `inter`, it adds the column
    cols[v] >> start of every v in `inter` into a bit-sliced counter, where
    bit j of planes[k] is bit k of |inter & N(start + j)|; the shift drops
    the candidates below `start`.  A plane-wise comparison with floor + 1
    gives every candidate that beats the floor at once, and the lowest of
    them is the one the candidate loop would stop at.  With `first` false
    the survivors are narrowed from the top plane down to those of maximum
    count; the lowest of those is the last hit the loop would have kept,
    since it replaced its hit only on a strictly larger count.  So S, T and
    the argmax are those of the plain lexicographic scan.

    With `G.symmetries`, depth 0 tries only the smallest vertex of each orbit
    of the group they generate, and when s >= 3 depth 1 only the smallest of
    each orbit under the generators that fix the first vertex.  The answer's
    vertex at each depth is such a minimum (module docstring), so S, T and
    the argmax do not change."""
    n = len(G.rows)
    _check_budget(n, s)
    rows, cols = G.rows, G.cols
    hit = None
    gens = G.symmetries
    stabilisers = {}

    def stabiliser_labels(v):
        """Orbit labels under the generators that fix v; None if none does."""
        fixing = tuple(k for k, g in enumerate(gens) if g[v] == v)
        if not fixing:
            return None
        if fixing not in stabilisers:
            stabilisers[fixing] = _orbit_labels(n, [gens[k] for k in fixing])
        return stabilisers[fixing]

    def last(start, inter, chosen):
        nonlocal floor, hit
        planes = []
        x = inter
        while x:
            low = x & -x
            x ^= low
            carry = cols[low.bit_length() - 1] >> start
            for k, plane in enumerate(planes):
                planes[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        alive = (1 << (n - start)) - 1
        need = floor + 1
        if need > 0:
            if need >> len(planes):  # every count is below 2^len(planes)
                return False
            # from the top bit down, `alive` keeps the candidates whose count
            # matches `need` so far; one with a 1 where `need` has a 0
            # exceeds it and stays in `above`
            above = 0
            for k in range(len(planes) - 1, -1, -1):
                if need >> k & 1:
                    alive &= planes[k]
                else:
                    above |= alive & planes[k]
            alive |= above
            if not alive:
                return False
        if not first:
            for plane in reversed(planes):
                top = alive & plane
                if top:
                    alive = top
        i = start + (alive & -alive).bit_length() - 1
        ni = inter & rows[i]
        hit = chosen + [i], ni
        if first:
            return True
        floor = ni.bit_count()
        return False

    def rec(start, depth, inter, chosen, labels):
        # labels: orbit labels that this depth's vertex must be minimal in
        if depth + 1 == s:
            return last(start, inter, chosen)
        for i in range(start, n - (s - depth) + 1):
            if labels is not None and labels[i] != i:
                continue
            ni = inter & rows[i]
            if ni.bit_count() <= floor:
                continue
            below = stabiliser_labels(i) if depth == 0 and s > 2 else None
            if rec(i + 1, depth + 1, ni, chosen + [i], below):
                return True
        return False

    rec(0, 0, (1 << len(G.right)) - 1, [], G.orbit_labels)
    return hit


def find_grid(G: BipartiteGraph, s: int, t: int) -> GridWitness | None:
    """First s-subset of left (lexicographic) whose common neighborhood has
    size >= t; T is its t smallest members.  None when grid-free."""
    n = len(G.rows)
    if s < 1 or s > n or t < 1:
        raise ParameterOutOfRange(f"(s,t)=({s},{t}) with |left|={n}")
    hit = _scan(G, s, t - 1, True)
    if hit is None:
        return None
    S, common = hit
    T = [j for j in range(len(G.right)) if common >> j & 1][:t]
    return GridWitness.checked(S, T, G.rows)


def max_common_neighborhood(G: BipartiteGraph, s: int) -> tuple:
    """(max size, lexicographically first attaining s-subset of left)."""
    n = len(G.rows)
    if s < 1 or s > n:
        raise ParameterOutOfRange(f"s={s} with |left|={n}")
    S, common = _scan(G, s, -1, False)
    return common.bit_count(), S


def _nth_root_floor(a: int, n: int) -> int:
    if a < 0:
        raise ParameterOutOfRange("negative radicand")
    if a == 0:
        return 0
    x = 1 << (-(-a.bit_length() // n))
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


_PREC = 12  # decimal digits of the edge report's fixed-point values


def _fmt_scaled(scaled: int) -> str:
    digits = str(scaled).rjust(_PREC + 1, "0")
    return digits[:-_PREC] + "." + digits[-_PREC:]


def edge_report(G: BipartiteGraph, s: int, t: int) -> dict:
    """Edge count versus the Füredi leading term (1/2)(t-s+1)^(1/s) n^(2-1/s)."""
    if s < 1 or t < 1:
        raise ParameterOutOfRange(f"(s,t)=({s},{t}): both must be at least 1")
    if t - s + 1 < 0:
        raise ParameterOutOfRange(f"(s,t)=({s},{t}): the leading term needs t >= s - 1")
    n = len(G.left) + len(G.right)
    m = G.edge_count()
    power = n ** (2 * s - 1)
    root = _nth_root_floor(power, s)
    exact_power = root**s == power
    scale = 10**_PREC
    n_pow_scaled = (
        root * scale if exact_power else _nth_root_floor(power * scale**s, s)
    )
    base = t - s + 1
    broot = _nth_root_floor(base, s)
    exact_base = broot**s == base
    base_scaled = (
        broot * scale if exact_base else _nth_root_floor(base * scale**s, s)
    )
    furedi_scaled = base_scaled * n_pow_scaled // (2 * scale)
    ratio_scaled = 0 if m == 0 else m * scale**2 // n_pow_scaled
    report = {
        "n": n,
        "m": m,
        "s": s,
        "t": t,
        "n_power_exact": str(root) if exact_power else None,
        "n_power": _fmt_scaled(n_pow_scaled),
        "furedi_leading": _fmt_scaled(furedi_scaled),
        "ratio": _fmt_scaled(ratio_scaled),
        "precision": _PREC,
    }
    return report

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
roles swapped, one at a time on first read, so a pruned scan pays only for
the rows and columns it reads.  A scan without symmetries reads every row:
once its first count at the last depth leaves it going, it takes the
columns from the rows, transposed (`_transpose`), instead of running the
kernel for each.  A witness found by that first count costs no transpose.
A graph whose verified symmetries include a translation of x and of y
along every axis of a whole affine chart needs the kernel for row 0
alone: row u is row 0 moved by the base-p digits of u, times the
translations' steps, along each axis, and column w is column 0 moved by
the digits of w (`_Translations`).  A move is two masked shifts of the
bitset per axis, some microseconds where a kernel column over thousands
of vertices costs hundreds.  Column 0 is the image of row 0 under the
chart map diag(1, -step) (`_ChartMap.moved`), the one vertex map below.
A `build_graph` graph is a description: it
verifies its symmetries on first use too (below), so the scan's budget
check (`_admit`) comes before any row or column is computed.

The vertices are indices.  Each side of a `build_graph` graph is a
`hypersurfaces.ChartPoints`: the chart is counted against the enumeration
budget, and a vertex is decoded from its index in the chart's order
(`projective.chart_point`) only when it is read.  The kernels read the
chart's coordinate columns, arrays of repeated digit runs, and no list of
coordinate tuples is made.  A side whose open set excludes no
form is the whole chart.  Otherwise it keeps the sorted indices of the
points where no excluded form vanishes.  The test is the same kernel: an
excluded form reduced mod p is a form with one left vertex, (), and the
chart's points on its right, so one kernel row marks every point on its
zero set at once.

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
the same order as before, so S, T and the argmax are byte-identical.  Both
depths take their orbits from `_orbits` (below).

The budget counts the subsets the scan visits with no floor (`_plan`):
C(|left|, s) for a graph without symmetries, and with them the s-subsets
whose first vertex is an orbit minimum and, for s >= 3, whose second is a
minimum under the generators that fix the first.  1b at p = 11 visits
62,930 subsets of C(1331, 3) = 3.9·10^8.  Verifying the candidates and
walking their orbits comes first, and is bounded by n times the number of
candidates (`_admit`).  Both refusals are worded by
`primefields.check_budget`, as every other budget refusal is.

When s = 1 the first depth is also the last, and it reads rows, not
columns: each vertex it tries (the orbit minima, or every vertex) is one
row whose popcount is compared with the floor.  The degree is constant on
an orbit, so the first vertex of a degree is an orbit minimum.

The edge count reads one row per orbit.  g maps N(v) onto N(g(v)), so the
degree is constant on each orbit of left vertices, and by the
orbit-stabiliser count |E| = sum over the orbits O of |O| * deg(min O).
It charges the rows it reads, times the right side, to the budget first;
a graph without symmetries reads every row.

One function answers every orbit question, `_orbits(maps, n)`, as
{minimum: size} in ascending order of the minima: the graph's orbits,
found once for the edge count, `orbit_minima` and the scan's first depth,
and the orbits of the maps that fix each first vertex, for the scan's
second.  When the maps are verified `_ChartMap`s it reads their matrices
for three closed forms: translations along every affine axis (1b, 1c)
give one orbit; transvections that generate SL (1a) give one orbit on
P^2(F_p) and two on F_p^2, the origin and the rest; a sign change and the
swaps of adjacent coordinates of a whole affine chart (1b's maps that fix
the origin) give the minima 0 <= x1 <= ... <= xs <= (p-1)/2, each orbit's
size counted from its coordinates.  So 1a's count reads 2 rows, or 1, and
1b's scan maps no vertex list.  Any other group (1d, the transport's
torus) is walked once, a layer of images at a time, after its n times
|maps| steps are charged to the budget.  The count and `orbit_minima`
stop verifying candidates once the closed forms show one orbit, since no
further map can merge orbits: 1c's count verifies its translations and
not its norm-one map.  The scan reads `symmetries`, which verifies the
rest.

The symmetries come from `build_graph(..., symmetries=...)` as candidate
matrix pairs (M_x, M_y) mod p acting on homogeneous coordinates,
(x, y) -> (M_x x, M_y y) (`hypersurfaces.MatrixPair`,
`hypersurfaces.family_symmetries`); an affine map x -> A x + b of the
chart x0 = 1 is [[1, 0], [b, A]].  The graph holds the candidate list and
a verifier that gives a candidate's left `_ChartMap`, or None; a graph
built from maps already verified, as the transport's, holds them alone.
The candidates are verified on the first read of the graph's
`symmetries` or orbits, each at most once and alone, by one
`symmetry_permutation` call.  It keeps a candidate only when all of these
hold:
- both matrices are (s+1) x (s+1) and invertible mod p, and on the affine
  chart the rows of x0 and y0 are (1, 0, ..., 0), so the map is an affine
  map [[1, 0], [b, A]] of the chart;
- the map carries the form mod p to λ times the form, λ != 0: one
  `MultiPoly.substitute` of x_i -> sum_j (M_x)_ij x_j, and likewise on y,
  into the reduced bihomogeneous form;
- M_x maps the left vertices onto themselves and M_y the right ones.
Then the map sends edges to edges and non-edges to non-edges, on either
chart and between any open sets: the last test is made on the vertices
themselves, so no reasoning about the excluded forms is needed.  Each
verified map is a `_ChartMap` on either kind of side, and every vertex it
moves goes through one method (`_ChartMap.indices`): the matrix applied
to coordinate columns (`_image`), each image scaled to first nonzero
coordinate 1 and indexed in the chart's order arithmetically
(`hypersurfaces.chart_codes`), then, on a side with an open set, through
a position table.  An entry read alone maps one vertex, the whole table
is mapped `_CHUNK` vertices at a time, and a bitset is mapped through its
set bits.  On a side that is the whole chart the last test holds by the
first, and no vertex is mapped until one is read; a side with an open set
is mapped whole, and an image off it rejects the candidate.  A wrong
candidate is dropped, and a missing one costs only speed.  No family
label is trusted.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import combinations_with_replacement, compress, groupby
from math import comb, factorial, log10

from .errors import (DimensionMismatch, EmptySide, InvalidWitness, ParameterOutOfRange,
                     UnknownVariable)
from .hypersurfaces import ChartPoints, chart_codes, reduce_hypersurface_mod, reduce_open_set_mod
from .primefields import PrimeField, base_digits, check_budget, enumeration_budget, matrix_rank
from .projective import Hypersurface, OpenSet
from .ring import MultiPoly

# -- graphs --------------------------------------------------------------------------


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
    """Two indexed vertex sequences plus adjacency bitsets: rows[i] over the
    right side for left i, cols[j] over the left side for right j.

    `left` and `right` are sequences of residue tuples: lists, or the
    `ChartPoints` of `build_graph`, which decode a vertex
    when it is read.  `rows` and `cols` are int sequences: lists, or the
    on-demand `_AdjacencyRows` of `build_graph` and its `transpose()`.
    Both are given.  Columns given as lists are read as they are; on-demand
    columns are computed by their kernel one at a time, until a scan
    without symmetries goes on past its first count at the last depth and
    takes them all from the rows, transposed (`_scan`).

    `symmetries` lists verified automorphisms, as left-index permutations;
    with `verify`, it lists candidates instead, and `verify(candidate)`
    gives a candidate's permutation once it is verified, None when it is
    not.  Each candidate is verified on first need, in order, at most
    once."""

    def __init__(
        self,
        left: Sequence,
        right: Sequence,
        rows: Sequence,
        cols: Sequence,
        symmetries: list | None = None,
        verify=None,
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
        symmetries = symmetries or []
        # how many symmetries were given, verified or candidates
        self.candidates = len(symmetries)
        self._verify = verify
        self._pending = iter(symmetries) if verify else None
        self._symmetries = [] if verify else symmetries
        self._orbits = None

    def _draw(self, one_orbit: bool):
        """Verify the pending candidates: every one, or with `one_orbit` only
        until the closed forms of `_orbits` (with n = 0, nothing is walked)
        show that the maps kept so far act with one orbit."""
        for candidate in self._pending:
            g = self._verify(candidate)
            if g is None:
                continue
            self._symmetries.append(g)
            if one_orbit and len(_orbits(self._symmetries, 0)) == 1:
                return
        self._pending = None

    @property
    def symmetries(self) -> list:
        """Left-index permutations of verified graph automorphisms (each maps
        right vertices to right vertices too); the scan prunes by them and
        the edge count reads one row per orbit.  Reading this verifies every
        candidate left."""
        if self._pending is not None:
            self._draw(False)
        return self._symmetries

    def _orbit_data(self) -> dict | None:
        """The orbits of the left side under the group that `symmetries`
        generate (`_orbits`), found once; None without symmetries.  Pending
        candidates are drawn only until the maps kept are known to act with
        one orbit: an automorphism maps each orbit onto an orbit, so more
        maps cannot change one orbit, and the candidates left are not
        verified."""
        if self._orbits is None:
            if self._pending is not None:
                self._draw(True)
            if self._symmetries:
                self._orbits = _orbits(self._symmetries, len(self.rows))
        return self._orbits

    @property
    def orbit_minima(self) -> Sequence:
        """The smallest left index of each orbit, ascending: every left index
        without symmetries.  A loop over all vertices of a property that the
        automorphisms keep reads these alone."""
        orbits = self._orbit_data()
        return range(len(self.rows)) if orbits is None else list(orbits)

    def edge_count(self) -> int:
        """|E|.  With symmetries, one row per orbit: an automorphism g maps
        N(i) onto N(g(i)), so the degree is constant on each orbit O of left
        vertices and |E| = sum over the orbits of |O| * deg(min O).  The
        rows it reads, times the right side, are charged to the budget
        before the first is read."""
        orbits = self._orbit_data()
        reads, width = len(self.rows) if orbits is None else len(orbits), len(self.right)
        bits = reads * width
        check_budget(bits, f"the edge count reads {reads} rows of {width} vertices = {bits} adjacency bits")
        if orbits is None:
            return sum(r.bit_count() for r in self.rows)
        return sum(size * self.rows[v].bit_count() for v, size in orbits.items())


def _terms_int(Hp: Hypersurface):
    """The terms of a form over F_p as (coeff, x-exps, y-exps) integer
    triples."""
    nx = len(Hp.xvars)
    return [(c, e[:nx], e[nx:]) for e, c in Hp.poly.terms.items()]


# flag byte of a lane after the zero test -> ASCII binary digit
_FLAG_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def _monomial_tables(exps, p):
    """tables[i] = (k, powers) pairs, one per variable k in the monomial
    exps[i], with powers[a] = a^(exps[i][k]) mod p: the monomial's value at
    a point of residues in [0, p) is the product of powers[pt[k]] mod p."""
    used = {ek for e in exps for ek in e if ek}
    powers = {k: [pow(a, k, p) for a in range(p)] for k in used}
    return [[(k, powers[ek]) for k, ek in enumerate(e) if ek] for e in exps]


def _monomial_values(columns, exps, p):
    """values[i][j] = the monomial exps[i] at point j, mod p, for the points
    whose coordinate columns (residues in [0, p)) are `columns`.

    Column-wise: one residue column per (variable, exponent) by lookup in
    `_monomial_tables`, a monomial's column the product of its columns.  A
    variable whose column is all 1, x0 on the affine chart, is a factor 1
    and is skipped.  A row may be one of `columns` itself, to be read, not
    changed."""
    n = len(columns[0])
    ones = {}  # variable -> whether its column is all 1
    powers = {}  # (variable, exponent) -> its residue column
    values = []
    for e, cols in zip(exps, _monomial_tables(exps, p)):
        row, unit = None, True  # unit: every factor so far is 1
        for k, pw in cols:
            if k not in ones:
                ones[k] = columns[k].count(1) == n
            if ones[k]:
                row = columns[k] if row is None else row
                continue
            col = powers.get((k, e[k]))
            if col is None:
                # x^1 = x on residues: the coordinate column itself
                col = columns[k] if e[k] == 1 else list(map(pw.__getitem__, columns[k]))
                powers[k, e[k]] = col
            row = col if unit else [x * y % p for x, y in zip(row, col)]
            unit = False
        values.append([1] * n if row is None else row)
    return values


def _values_mod(f, columns, p):
    """f, a polynomial over F_p, at each point whose coordinate columns are
    `columns`, mod p."""
    vals = [0] * len(columns[0])
    for c, row in zip(f.terms.values(), _monomial_values(columns, list(f.terms), p)):
        vals = [v + c * m for v, m in zip(vals, row)]
    return [v % p for v in vals]


# bytes of lanes in one block of right vertices (`_lane_kernel`)
_BLOCK_BYTES = 1 << 20


def _lane_kernel(terms, left_point, right_columns, p):
    """row(u): bit j set iff the form vanishes at (left_point(u), right j)
    mod p, where the right points' coordinate columns are `right_columns`.

    Lane-packed: for each y-monomial, its values over all right vertices
    sit in one int, vertex j in the byte-aligned `width`-bit lane j.  The
    set-up packs those lanes once, and tables of the powers of F_p that the
    x-exponents use; a row evaluates u's x-monomials from those tables, then
    costs a few big-int operations: the lane sums S = sum_i c_i(u) P_i, one
    Barrett reduction of every lane at once, a SWAR zero-lane test and a
    byte compaction of the lane flags.  Coordinates are residues in [0, p).
    A right side with more than `_BLOCK_BYTES` of lanes is packed in blocks
    of vertices, and a row is computed block by block, so that no big-int
    temporary of a row outgrows a block.
    """
    nr = len(right_columns[0])
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
    size = nbytes * nr
    # the first vertex of each block, from the last block down, as the
    # flags of a row run from vertex nr-1 down
    per_block = max(1, _BLOCK_BYTES // nbytes)
    starts = range(0, nr, per_block)[::-1]

    # a lane holds a residue below p in its low bytes, and zeros above them:
    # byte k of every lane is one strided slice, filled from a table
    low = [[v >> 8 * k & 255 for v in range(p)] for k in range(-(-(p - 1).bit_length() // 8))]

    def lane_values(vals) -> list:
        buf = bytearray(size)
        for k, table in enumerate(low):
            buf[k::nbytes] = bytes(map(table.__getitem__, vals))
        return [int.from_bytes(buf[lo * nbytes : (lo + per_block) * nbytes], "little") for lo in starts]

    def packed(lane: int, count: int) -> int:
        return int.from_bytes(lane.to_bytes(nbytes, "little") * count, "little")

    # per block: its bytes, (qmask, high) over its lanes, and its lanes
    counts = [min(per_block, nr - lo) for lo in starts]
    masks = {c: (packed((1 << (width - r)) - 1, c), packed(1 << (width - 1), c)) for c in set(counts)}
    blocks = list(zip(
        [count * nbytes for count in counts],
        map(masks.__getitem__, counts),
        zip(*[lane_values(vals) for vals in _monomial_values(right_columns, yexps, p)]),
    ))
    xtables = _monomial_tables(xexps, p)
    ny = len(yexps)

    def row(u: int) -> int:
        pt = left_point(u)
        xvals = []
        for cols in xtables:
            xv = 1
            for k, pw in cols:
                xv = xv * pw[pt[k]] % p
            xvals.append(xv)
        coeff = [0] * ny
        for c, a, i in plan:
            coeff[i] += c * xvals[a]
        flags = b""
        for block_size, (qmask, high), lanes in blocks:
            S = 0
            for cf, P in zip(coeff, lanes):
                cf %= p
                if cf:
                    S += cf * P
            R = S - ((S * m >> r) & qmask) * p
            # a lane's top bit survives high - R iff the lane of R is zero;
            # the big-endian bytes hold the lanes' top bytes from the last
            # lane down
            flags += ((high - R) & high).to_bytes(block_size, "big")[::nbytes]
        return int(flags.translate(_FLAG_DIGITS), 2)

    return row


# bits of the masks a `_Translations` keeps (4 MB); past them, masks are rebuilt
_MASK_BITS = 1 << 25


class _Translations:
    """Translations of the affine chart of P^s(F_p) acting on bitsets over
    its points, bit i for the point of index i (base-p digits, x1 the most
    significant).  `moved(bits, code, steps)` moves every point of `bits`
    by step_a times digit a of `code` along each axis a, mod p.

    Along axis a, of stride w = p^(s-a), a move by d shifts the points
    whose digit a is below p - d up by d w and the others down by (p - d) w:
    two masked shifts.  A mask, the points whose digit a is below some c,
    is a run of c w ones repeated once per cycle of p w bits, doubled until
    it spans the chart (its bits past the chart meet none of a bitset's).
    Masks are kept once built, up to `_MASK_BITS` bits in all, which 1b
    and 1c at the primes the budget admits for s = 3 stay under."""

    __slots__ = ("p", "s", "n", "_masks")

    def __init__(self, p: int, s: int):
        self.p, self.s, self.n = p, s, p**s
        self._masks = {}

    def _below(self, a: int, c: int) -> int:
        """The points whose digit along axis a (0-based) is below c."""
        mask = self._masks.get((a, c))
        if mask is None:
            width = self.p ** (self.s - a)
            mask = (1 << c * width // self.p) - 1
            while width < self.n:
                mask |= mask << width
                width *= 2
            if self.n * (len(self._masks) + 1) <= _MASK_BITS:
                self._masks[a, c] = mask
        return mask

    def moved(self, bits: int, code: int, steps: tuple) -> int:
        p, w = self.p, self.n
        for a, (digit, step) in enumerate(zip(base_digits(code, p, self.s), steps)):
            w //= p
            d = digit * step % p
            if d:
                bits = (bits & self._below(a, p - d)) << d * w | bits >> (p - d) * w & self._below(a, d)
        return bits


class _AdjacencyRows(Sequence):
    """The adjacency bitsets of a form between two point sequences, on
    demand: entry u has bit j set iff the form vanishes at (left u, right j)
    mod p.  A point sequence gives its homogeneous residue tuples by
    `point(i)` and their coordinate columns by `columns()`, as
    `ChartPoints` does.

    The lane kernel (`_lane_kernel`) is set up on the first request; each
    entry is computed on its first request and cached, so a scan that reads
    a few rows pays for those alone.  `transpose()` gives the columns from
    the same kernel with the x and y roles swapped, and keeps the rows
    they transpose, for `fill`.  Once `translate` has been given verified
    translations along every axis of a whole affine chart, an entry other
    than 0 is entry 0 moved by them (`_Translations`), and the kernel
    computes entry 0 of the rows alone: entry 0 of the columns is read off
    it."""

    __slots__ = ("_args", "_kernel", "_known", "_rows", "_moves")

    def __init__(self, terms, left, right, p, rows=None):
        self._args = (terms, left, right, p)
        self._kernel = None
        self._known = {}
        self._rows = rows
        self._moves = None

    def __len__(self) -> int:
        return len(self._args[1])

    def __getitem__(self, u: int) -> int:
        bits = self._known.get(u)
        if bits is None:
            u = range(len(self))[u]
            if self._moves is not None and u:
                translations, steps = self._moves
                bits = translations.moved(self[0], u, steps)
            elif self._moves is not None and self._rows is not None:
                # row u is row 0 moved by σ∘u, so right vertex 0 is adjacent
                # to left u iff -σ∘u is in row 0: u = -τ∘v for v in row 0,
                # with τ = σ^-1 the steps of these columns: the chart map
                # diag(1, -τ) moves row 0 onto entry 0
                scale = (1,) + tuple(-d for d in self._moves[1])
                diagonal = [[c * (i == j) for j in range(len(scale))] for i, c in enumerate(scale)]
                bits = _ChartMap(diagonal, self._args[1]).moved(self._rows[0])
            else:
                if self._kernel is None:
                    terms, left, right, p = self._args
                    self._kernel = _lane_kernel(terms, left.point, right.columns(), p)
                bits = self._kernel(u)
            self._known[u] = bits
        return bits

    def translate(self, translations: _Translations, steps: tuple):
        """Derive every entry from entry 0 from now on: the graph keeps its
        edges under x -> x + e_a, y -> y + step_a e_a for each axis a, so
        entry u is entry 0 moved by step_a u_a along each axis."""
        self._moves = translations, steps

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def transpose(self) -> "_AdjacencyRows":
        """Entry j: the bitset of the left vertices adjacent to right j."""
        terms, left, right, p = self._args
        swapped = [(c, ye, xe) for c, xe, ye in terms]
        return _AdjacencyRows(swapped, right, left, p, self)

    def fill(self) -> list:
        """Every entry of the columns that `transpose()` made, as a list,
        from their rows transposed (`_transpose`): each row not yet read is
        computed once, and no column by the kernel."""
        entries = _transpose(list(self._rows), len(self))
        self._known.update(enumerate(entries))
        return entries


# a binary digit of `format` -> the byte 0 or 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _transpose(rows: list, n: int) -> list:
    """cols[j] = the bitset, bit i for rows[i], of the rows with bit j set,
    for j < n: C-level byte work, no loop over bits.  Each row's binary
    digits become bytes 0/1, one per column, read as an int; eight such
    ints, shifted by 0..7, add up to one byte per column holding the bits
    of those eight rows.  Those bytes, eight rows after eight rows, hold
    column j as the strided slice from byte j, little-endian.  The buffer
    has the size of the rows' bitsets."""
    fmt = f"0{n}b"
    buf = bytearray()
    for g in range(0, len(rows), 8):
        acc = 0
        for k, r in enumerate(rows[g : g + 8]):
            # the digits run from bit n-1 down, so byte j of the int is bit j
            acc |= int.from_bytes(format(r, fmt).encode().translate(_DIGIT_BYTES), "big") << k
        buf += acc.to_bytes(n, "little")
    return [int.from_bytes(buf[j::n], "little") for j in range(n)]


def _carries_form(Hp: Hypersurface, m) -> bool:
    """Whether x -> M_x x and y -> M_y y carry the form of Hp, over F_p and
    monic, to λ·form with λ != 0: then the map sends edges to edges and
    non-edges to non-edges.  One `MultiPoly.substitute`; a variable that
    the map fixes is left out, so substitute skips it."""
    poly = Hp.poly
    vars = poly.vars
    unit = [tuple(int(i == k) for i in range(len(vars))) for k in range(len(vars))]
    p = poly.field.characteristic
    images = {}
    for group, M in zip((Hp.xvars, Hp.yvars), m):
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
        acc = None
        for a, col in terms[:-1]:
            acc = [a * v for v in col] if acc is None else [u + a * v for u, v in zip(acc, col)]
        a, col = terms[-1]
        if acc is None:
            image.append([a * v % p for v in col])
        else:
            image.append([(u + a * v) % p for u, v in zip(acc, col)])
    return image


# vertices mapped at a time by `_ChartMap.table`
_CHUNK = 1 << 16


class _ChartMap(Sequence):
    """The map of the vertices of `side`, a `ChartPoints`, by an invertible
    matrix `matrix`: entry i is the index in `side` of `matrix` times vertex
    i, -1 when that image is not on the side.  Every read maps its vertices
    by `indices`: an entry read alone maps that one vertex, the whole array
    (`table`) is computed once, when a walk, an iteration or a check of a
    side with an open set reads it, and `moved` maps a bitset of vertices."""

    __slots__ = ("matrix", "side", "_table", "_positions")

    def __init__(self, matrix, side: ChartPoints):
        self.matrix, self.side, self._table, self._positions = matrix, side, None, None

    def indices(self, coords) -> list:
        """The side indices of `matrix` times the points whose homogeneous
        coordinate columns are `coords`: each image is scaled to first
        nonzero coordinate 1 and indexed in the chart's order arithmetically
        (`chart_codes`), which is its index on a side that is the whole
        chart; a side that is not is indexed through a position table."""
        side = self.side
        codes = chart_codes(_image(self.matrix, coords, side.p), side.p)
        if side.codes is None:
            return codes
        if self._positions is None:
            self._positions = array("q", [-1]) * side.size
            for i, c in enumerate(side.codes):
                self._positions[c] = i
        return list(map(self._positions.__getitem__, codes))

    def __len__(self) -> int:
        return len(self.side)

    def __getitem__(self, i: int) -> int:
        if self._table is not None:
            return self._table[i]
        return self.indices([[c] for c in self.side.point(range(len(self))[i])])[0]

    @property
    def table(self) -> array:
        """Every entry, mapped `_CHUNK` vertices at a time, column by column,
        so that no list outgrows a chunk."""
        if self._table is None:
            table, cols = array("q"), self.side.columns()
            for lo in range(0, len(self), _CHUNK):
                table.fromlist(self.indices([col[lo : lo + _CHUNK] for col in cols]))
            self._table = table
        return self._table

    def moved(self, bits: int) -> int:
        """The bitset of the images of the vertices in the bitset `bits`."""
        n = len(self)
        on = format(bits, f"0{n}b").encode().translate(_DIGIT_BYTES)[::-1]  # byte v: bit v
        vertices = list(compress(range(n), on))
        digits = bytearray(b"0") * n  # binary, bit n-1 first
        for c in self.indices([[col[v] for v in vertices] for col in self.side.columns()]):
            digits[n - 1 - c] = ord("1")
        return int(digits, 2)

    def __iter__(self):
        return iter(self.table)

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    __hash__ = None


def symmetry_permutation(Hp: Hypersurface, m, left, right) -> tuple | None:
    """The pair (left permutation, right permutation), `_ChartMap`s of
    vertex indices, by which the candidate MatrixPair m = (M_x, M_y) acts on
    the graph of Hp, over F_p, between the vertex sequences `left` and `right`
    (`ChartPoints` of one chart); None when it is not verified to be an
    automorphism of that graph.

    The candidate is kept when all of these hold:
    - both matrices are (s+1) x (s+1); on the affine chart the row of x0 in
      M_x, and of y0 in M_y, is (1, 0, ..., 0), so that the map is an
      affine map of the chart;
    - both matrices are invertible mod p (`primefields.matrix_rank`);
    - it carries the form mod p to λ·form, λ != 0 (`_carries_form`);
    - M_x maps `left` onto itself and M_y maps `right` onto itself.
    A map that passes the first two tests, arithmetic ones, maps the whole
    chart onto itself, so the last test holds on a side that is the whole
    chart and no vertex of it is mapped: its map maps a vertex only when it
    is read.  A side that is not the whole chart is mapped whole (`table`),
    and a vertex whose image is not on it rejects the map; an invertible
    map is injective, so onto follows."""
    if not (_invertible_on_chart(m, left.s + 1, left.p, Hp.field, left.affine)
            and _carries_form(Hp, m)):
        return None
    pair = _ChartMap(m[0], left), _ChartMap(m[1], right)
    return None if any(g.side.codes is not None and -1 in g.table for g in pair) else pair


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


def _moved(M, p: int) -> list:
    """The positions (a, b) where the matrix M differs from the identity
    mod p."""
    return [(a, b) for a, row in enumerate(M) for b, c in enumerate(row) if c % p != (a == b)]


def _translation_steps(maps: list, p: int, s: int) -> tuple | None:
    """(step_1, ..., step_s) when the MatrixPairs `maps` hold, for every axis
    a of the affine chart, a translation x -> x + c e_a, y -> y + d e_a
    (c, d != 0): the graph then keeps its edges under x -> x + e_a,
    y -> y + (d / c) e_a, and step_a = d / c mod p.  None otherwise."""
    steps = {}
    for mx, my in maps:
        moved = _moved(mx, p)
        if len(moved) == 1 and moved[0][0] and not moved[0][1] and _moved(my, p) == moved:
            a = moved[0][0]
            steps.setdefault(a, my[a][0] * pow(mx[a][0], -1, p) % p)
    return tuple(steps[a] for a in range(1, s + 1)) if len(steps) == s else None


# flag character of a point after `_open_points`' kernel row -> 1 if kept
_KEEP = bytes.maketrans(b"01", b"\x01\x00")


def _open_points(U: OpenSet, chart: ChartPoints) -> array:
    """The indices, ascending, of the points of the whole `chart` where no
    excluded form of U, a form over F_p, vanishes: each form is one
    `_lane_kernel` row, with one left vertex, (), and the chart's columns
    on the right."""
    on, cols = 0, chart.columns()
    for f in U.excluded:
        terms = [(c, (), e) for e, c in f.terms.items()]
        on |= _lane_kernel(terms, lambda u: (), cols, chart.p)(0)
    flags = format(on, f"0{len(chart)}b")[::-1]  # flags[j]: bit j of `on`
    return array("q", compress(range(len(chart)), flags.encode().translate(_KEEP)))


def graph_dim(H: Hypersurface) -> int:
    """s for a form on P^s x P^s, whose graph joins two charts of P^s;
    DimensionMismatch for one with sx != sy."""
    if H.sx != H.sy:
        raise DimensionMismatch(f"a graph needs sx = sy, not {H.sx} and {H.sy}")
    return H.sx


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

    Each side is a `ChartPoints` of the chart, affine or projective, which
    decodes a vertex from its index when it is read.  A side whose open set
    excludes no form is the whole chart, and no point of it is listed or
    tested.  Otherwise the side keeps the indices of the points where no
    excluded form, reduced mod p, vanishes (`_open_points`); EmptySide is
    raised when a side is left with no point.  A chart with more points
    than the enumeration budget is refused before anything is computed.

    The graph is a description: nothing that a scan may not need is
    computed here.  Its rows and columns are computed on first read
    (`_AdjacencyRows`); a scan without symmetries takes the columns from
    the rows, transposed, once its first count at the last depth leaves it
    going (`_scan`).  The symmetries are verified on demand too:
    `symmetries` lists candidate MatrixPairs
    (`hypersurfaces.family_symmetries`), and the maps that
    `symmetry_permutation` verifies on the form mod p and on both vertex
    sequences, on either chart and under any open sets, become the
    left-index permutations that the scan and the edge count prune by.  On
    a side that is the whole chart that test maps no vertex, and the
    permutation maps one only when it is read (`_ChartMap`).  Each
    candidate is verified alone when first drawn, in order, and at most
    once: the graph holds the candidate list and the verifier, which gives
    the left map of a kept candidate.  The edge count and `orbit_minima`
    draw candidates only until the closed forms of `_orbits` show one
    orbit, and the scan's read of `symmetries` draws the rest.
    When both sides are the whole affine chart and the maps kept include a
    translation of x and of y along every axis (`_translation_steps`), the
    kernel computes row 0 alone, column 0 is read off it, and every other
    row and column is one of them moved by the translations
    (`_Translations`).  So a scan that the budget refuses costs nothing that
    grows with the chart, and a translation-invariant graph costs one
    kernel entry.  The adjacency kernel and the symmetry test share one
    reduction of H mod p.  A form with sx != sy is refused first
    (`graph_dim`)."""
    s = graph_dim(H)
    PrimeField(p)  # refuses a p that is not prime before the chart is counted
    whole = ChartPoints(p, s, chart)
    Xp = reduce_open_set_mod(X or OpenSet.full(s), p)
    Yp = reduce_open_set_mod(Y or OpenSet.full(s), p)
    for f in Xp.excluded + Yp.excluded:
        if len(f.vars) != s + 1:
            raise UnknownVariable("point length does not match variables")
    left, right = (
        ChartPoints(p, s, chart, _open_points(U, whole)) if U.excluded else whole
        for U in (Xp, Yp)
    )
    if not left or not right:
        raise EmptySide("open-set filters removed a whole side")
    Hp = reduce_hypersurface_mod(H, p)
    rows = _AdjacencyRows(_terms_int(Hp), left, right, p)
    cols = rows.transpose()
    translatable = left.affine and left.codes is None and right.codes is None
    maps = []

    def verify(m):
        pair = symmetry_permutation(Hp, m, left, right)
        if not pair:
            return None
        maps.append(m)
        steps = _translation_steps(maps, p, s) if translatable and rows._moves is None else None
        if steps:
            translations = _Translations(p, s)
            rows.translate(translations, steps)
            cols.translate(translations, tuple(pow(d, -1, p) for d in steps))
        return pair[0]

    return BipartiteGraph(left, right, rows, cols, symmetries, verify)


def _orbits(maps: list, n: int) -> dict:
    """The orbits of range(n) under the group that the permutations `maps`
    of range(n) generate, as {smallest index: size} in ascending order of
    the minima.

    When every map is a verified `_ChartMap` of one side, their matrices
    are read once for three closed forms.  M = I + c e_a e_b^T (c != 0,
    a != b) is x_a -> x_a + c x_b, and the maps of each pair (a, b)
    generate all of its multiples.
    - Translations, (a, 0) for every axis a = 1..s of the affine chart,
      move any point to any other: one orbit.
    - The pairs (a, b) of distinct coordinates among those the chart lets
      move, 0..s on the projective chart and 1..s (s >= 2) on the affine
      one, generate SL of them, which is transitive on P^s and on the
      nonzero vectors of F_p^s: one orbit, or on the affine chart the
      origin apart when every map fixes it.
    - Signed permutations of x1..xs, among them a sign change x_a -> -x_a
      and a swap, signed or not, of each pair of adjacent coordinates,
      generate every signed permutation.  On a whole affine chart with p
      odd, the smallest index of an orbit sorts the coordinates' absolute
      values (a or p - a, the smaller) ascending, x1 being the most
      significant digit: the minima are the points with
      0 <= x1 <= ... <= xs <= (p - 1)/2, and the orbit of one with m
      nonzero coordinates is 2^m s! / (k_1! k_2! ...) points, k_i the
      multiplicity of each value.
    Each map keeps its side, so the side is a union of these orbits; the
    origin has the lowest chart index, so it is vertex 0 when it is a
    vertex.

    Otherwise, and for plain permutation lists, each orbit is walked from
    its smallest index, the lowest one not yet seen, a layer at a time: the
    next layer is the unseen images of this one under every map.  The walk
    reads every map's table, so its n times len(maps) steps are charged to
    the budget before any table is built.  With n = 0 nothing is walked:
    `_orbits(maps, 0)` gives the closed forms alone, {} when none holds."""
    if maps and all(isinstance(g, _ChartMap) for g in maps):
        side = maps[0].side
        p, s, points = side.p, side.s, len(side)
        matrices = [g.matrix for g in maps]
        moved = [_moved(M, p) for M in matrices]
        pairs = {m[0] for m in moved if len(m) == 1 and m[0][0] != m[0][1]}
        coords = range(1 if side.affine else 0, s + 1)
        if side.affine and {(a, 0) for a in coords} <= pairs:
            return {0: points}
        if len(coords) > 1 and {(a, b) for a in coords for b in coords if a != b} <= pairs:
            fixed = side.affine and all(M[a][0] % p == 0 for M in matrices for a in coords)
            if fixed and points > 1 and (side.codes is None or side.codes[0] == 0):
                return {0: 1, 1: points - 1}
            return {0: points}
        # rows 1..s of a signed permutation: one entry, 1 or -1, off x0
        signed = p > 2 and side.affine and side.codes is None and all(
            row[0] % p == 0 and sorted(a % p for a in row)[-2:] in ([0, 1], [0, p - 1])
            for M in matrices for row in M[1:])
        # then a sign change moves one entry, and a swap of a, a + 1 four
        swaps = {m[0][0] for m in moved if len(m) == 4 and m[3][0] == m[0][0] + 1}
        if signed and any(len(m) == 1 for m in moved) and len(swaps) == s - 1:
            orbits = {}
            for point in combinations_with_replacement(range((p + 1) // 2), s):
                count = factorial(s) << s - point.count(0)
                for _, run in groupby(point):
                    count //= factorial(len(list(run)))
                orbits[sum(x * p ** (s - 1 - k) for k, x in enumerate(point))] = count
            return orbits
    if not n:
        return {}
    steps = n * len(maps)
    check_budget(steps, f"the orbit walk of {len(maps)} maps on {n} vertices = {steps} steps")
    perms = [g.table if isinstance(g, _ChartMap) else g for g in maps]
    seen = bytearray(n)
    sizes = {}
    for i in range(n):
        if not seen[i]:
            seen[i] = 1
            layer, size = [i], 1
            while layer:
                new = []
                for g in perms:
                    for w in map(g.__getitem__, layer):
                        if not seen[w]:
                            seen[w] = 1
                            new.append(w)
                size += len(new)
                layer = new
            sizes[i] = size
    return sizes


def _plan(G: BipartiteGraph, s: int) -> tuple:
    """(tops, seconds, count, partial) for the scan of the s-subsets of G's
    left side, pruned by its verified symmetries (`_scan`).  tops: the first
    vertices it tries, the orbit minima up to n - s.  seconds, when s >= 3:
    for each of those that some generators fix, the second vertices it may
    try, the orbit minima under those generators up to n - s + 1 (those
    above the first vertex are tried).  count: the s-subsets the scan visits
    with no floor, the number of those whose first vertex is in tops and,
    for s >= 3, whose second is in the first's seconds when it has them;
    C(n, s) without symmetries, whose scan tries every vertex.  A count past
    100 digits is worded by its magnitude alone, so the sum ends once it
    passes both the budget and 10^100, and partial is True when it ended
    early: count is then a lower bound that the budget refuses, and tops and
    seconds are not all there.  So a huge s costs a few of its binomials."""
    n, gens = len(G.rows), G.symmetries
    stop = max(enumeration_budget(), 10**100)
    if not gens:
        return range(n - s + 1), {}, comb(n, s), False
    tops = [v for v in G.orbit_minima if v <= n - s]
    seconds, count, stabilisers = {}, 0, {}
    for v in tops:
        if count > stop:
            return tops, seconds, count, True
        fixing = tuple(k for k, g in enumerate(gens) if g[v] == v) if s > 2 else ()
        if not fixing:
            count += comb(n - 1 - v, s - 1)
            continue
        if fixing not in stabilisers:
            minima = list(_orbits([gens[k] for k in fixing], n))
            minima = minima[: bisect_right(minima, n - s + 1)]
            # sums[j]: the subsets after a second vertex among the last j
            # minima, summed from the last one down until a sum passes `stop`
            sums = [0]
            for w in reversed(minima):
                if sums[-1] > stop:
                    break
                sums.append(sums[-1] + comb(n - 1 - w, s - 2))
            stabilisers[fixing] = minima, sums
        minima, sums = stabilisers[fixing]
        seconds[v] = minima
        later = len(minima) - bisect_right(minima, v)
        if later >= len(sums):
            return tops, seconds, count + sums[-1], True
        count += sums[later]
    return tops, seconds, count, False


def _admit(G: BipartiteGraph, s: int) -> tuple:
    """(tops, seconds) of `_plan` for the scan of G's s-subsets, once the
    enumeration budget admits its work; BudgetExceeded before that work
    otherwise.  A graph given candidate symmetries is refused first when n
    times their number exceeds the budget, a bound on verifying them and
    walking their orbits; then any graph is refused when its scan visits
    more subsets than the budget (`_plan`): C(n, s) when no map is kept.
    That refusal is worded only when it is made, so a scan the budget
    admits computes no C(n, s).  A partial count is worded "at least"."""
    n = len(G.rows)
    steps = n * G.candidates
    check_budget(steps, f"{G.candidates} candidate symmetries on {n} vertices = {steps} verification steps")
    tops, seconds, count, partial = _plan(G, s)
    if count > enumeration_budget():
        least = "at least " if partial else ""
        scan = f"pruned scan visits {least}{_decimal(count)}" if G.symmetries else "scan visits all"
        check_budget(count, f"the {scan} {s}-subsets (C({n},{s}) = {_decimal(comb(n, s))})")
    return tops, seconds


def _decimal(x: int) -> str:
    """x in decimal, or ~10^k past 100 digits: an int of more than 4300
    digits is no string by default (`sys.set_int_max_str_digits`)."""
    return str(x) if x < 10**100 else f"~10^{int(log10(x))}"


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
    the argmax are those of the plain lexicographic scan.  When s = 1 the
    first depth is the last, and it tries each candidate's row in turn, as
    the depths above it do, rather than counting every column.

    With `G.symmetries`, depth 0 tries only the smallest vertex of each orbit
    of the group they generate, and when s >= 3 depth 1 only the smallest of
    each orbit under the generators that fix the first vertex (`_plan`).
    The answer's vertex at each depth is such a minimum (module docstring),
    so S, T and the argmax do not change.  The budget is checked first,
    against the subsets this scan visits (`_admit`)."""
    n = len(G.rows)
    tops, seconds = _admit(G, s)
    rows, cols = G.rows, G.cols
    hit = None
    # without symmetries every row is read, so once the first count at the
    # last depth leaves the scan going, on-demand columns come from the
    # rows, transposed, rather than from their kernel one at a time
    unfilled = not G.symmetries and isinstance(cols, _AdjacencyRows)

    def record(S, common):
        # a hit: `first` stops the scan, else the floor rises to its count
        nonlocal floor, hit
        hit, floor = (S, common), common.bit_count()
        return first

    def last(start, inter, chosen):
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
        return record(chosen + [i], inter & rows[i])

    def rec(start, depth, inter, chosen, candidates):
        # candidates: the vertices this depth tries, ascending from start
        nonlocal cols, unfilled
        if depth and depth + 1 == s:
            if last(start, inter, chosen):
                return True
            if unfilled:
                cols, unfilled = cols.fill(), False
            return False
        for i in candidates:
            ni = inter & rows[i]
            if ni.bit_count() <= floor:
                continue
            if s == 1:
                if record([i], ni):
                    return True
                continue
            minima = seconds.get(i) if depth == 0 else None
            if minima is None:
                later = range(i + 1, n - (s - depth) + 2)
            else:
                later = minima[bisect_right(minima, i) :]
            if rec(i + 1, depth + 1, ni, chosen + [i], later):
                return True
        return False

    rec(0, 0, (1 << len(G.right)) - 1, [], tops)
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
    T = []
    for _ in range(t):  # the t lowest set bits, each cleared once taken
        T.append((common & -common).bit_length() - 1)
        common &= common - 1
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
    """Edge count versus the Füredi leading term (1/2)(t-s+1)^(1/s) n^(2-1/s).
    An s above |left| is refused as `find_grid` refuses it, before the
    count and the s-th roots, whose integers grow with s."""
    if s < 1 or t < 1:
        raise ParameterOutOfRange(f"(s,t)=({s},{t}): both must be at least 1")
    if t - s + 1 < 0:
        raise ParameterOutOfRange(f"(s,t)=({s},{t}): the leading term needs t >= s - 1")
    if s > len(G.left):
        raise ParameterOutOfRange(f"(s,t)=({s},{t}) with |left|={len(G.left)}")
    n = len(G.left) + len(G.right)
    m = G.edge_count()
    power = n ** (2 * s - 1)
    root = _nth_root_floor(power, s)
    exact_power = root**s == power
    scale = 10**_PREC
    n_pow_scaled = _nth_root_floor(power * scale**s, s)
    base_scaled = _nth_root_floor((t - s + 1) * scale**s, s)
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

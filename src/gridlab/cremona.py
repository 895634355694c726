"""Rational maps of P^2 and polynomial automorphisms of affine space, applied
to hypersurfaces with exact degree tracking: the standard quadratic
transformation, the degree-raising line-preserving maps and Nagata's
automorphism."""

from __future__ import annotations

from collections import Counter

from . import gridcheck, hypersurfaces
from .errors import (
    DegreeTooHigh,
    NotInvertibleShape,
    SampleTooSmall,
    ZeroPullback,
    json_field,
)
from .primefields import Field
from .ring import BiHomPoly, MultiPoly, group_degree
from .projective import Hypersurface, chart_block
from .poly import content, exact_div, split_group_contents


class RationalMap:
    """Homogeneous components of equal degree, common content removed."""

    __slots__ = ("field", "vars", "components", "degree")

    def __init__(self, components: list):
        if not components or all(c.is_zero() for c in components):
            raise ZeroPullback("rational map needs a nonzero component")
        field = components[0].field
        vars = components[0].vars
        cont = content(components)
        if cont.degree() > 0:
            components = [exact_div(c, cont) for c in components]
        degs = {group_degree(c, vars) for c in components if not c.is_zero()}
        if len(degs) != 1:
            raise NotInvertibleShape(f"component degrees differ: {sorted(degs)}")
        self.field = field
        self.vars = vars
        self.components = components
        self.degree = degs.pop()

    def reduce_mod(self, p: int) -> "RationalMap":
        return RationalMap(hypersurfaces.reduce_polys_mod(self.components, p))

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, data: dict) -> "RationalMap":
        components = json_field(data, "components", list, "rational map")
        return cls([MultiPoly.from_json(c) for c in components])

    def __repr__(self):
        return f"RationalMap(deg {self.degree}){[repr(c) for c in self.components]}"


YV = ("y0", "y1", "y2")


def standard_quadratic(field: Field) -> RationalMap:
    """(y0:y1:y2) -> (y1 y2 : y0 y2 : y0 y1); an involution off the
    coordinate triangle."""
    v0, v1, v2 = (MultiPoly.variable(field, YV, v) for v in YV)
    return RationalMap([v1 * v2, v0 * v2, v0 * v1])


def example_line_map(field: Field, d: int, f_coeffs: list):
    """(y0:y1:y2) -> (y0^d : y0^(d-1) y1 : y0^(d-1) y2 + y0^d f(y1/y0)),
    with f given by its coefficient list (low degree first, deg f <= d)."""
    if d < 1:
        raise DegreeTooHigh("d must be positive")
    coeffs = [field.coerce(c) for c in f_coeffs]
    while coeffs and field._is_zero(coeffs[-1]):
        coeffs.pop()
    if len(coeffs) - 1 > d:
        raise DegreeTooHigh(f"deg f = {len(coeffs) - 1} exceeds d = {d}")
    y0, y1, y2 = (MultiPoly.variable(field, YV, v) for v in YV)
    third = y0 ** (d - 1) * y2
    for k, c in enumerate(coeffs):
        third = third + y0 ** (d - k) * y1**k * c
    return RationalMap([y0**d, y0 ** (d - 1) * y1, third])


def apply_map(sigma_y: RationalMap, H: Hypersurface) -> Hypersurface:
    """Pull back the defining form through (id, sigma_y) and strip the
    per-group contents arising from the base locus."""
    H2, _, _ = apply_with_contents(sigma_y, H)
    return H2


def apply_with_contents(sigma_y, H: Hypersurface):
    """Like apply_map but also returns the removed x- and y-group contents
    (needed to recognize the exceptional locus of the substitution)."""
    form = H.form
    if len(sigma_y.components) != len(form.yvars):
        raise NotInvertibleShape("y-map does not match the y-group")
    comps = [c.with_vars(form.poly.vars) for c in sigma_y.components]
    pulled = form.poly.substitute(dict(zip(form.yvars, comps)), new_vars=form.poly.vars)
    if pulled.is_zero():
        raise ZeroPullback("the hypersurface contains the image of the map")
    cx, cy, pulled = split_group_contents(pulled, form.xvars, form.yvars)
    return Hypersurface(BiHomPoly(pulled, form.xvars, form.yvars)), cx, cy


# -- affine automorphisms ----------------------------------------------------------


class AffineAutomorphism:
    """Polynomial automorphism of affine s-space, given by its components."""

    __slots__ = ("field", "vars", "components", "kind")

    def __init__(self, components, kind: str):
        self.field = components[0].field
        self.vars = components[0].vars
        self.components = components
        self.kind = kind

    def apply_poly(self, F: MultiPoly) -> MultiPoly:
        return F.substitute(dict(zip(self.vars, self.components)), new_vars=F.vars)

    def __repr__(self):
        return f"AffineAutomorphism[{self.kind}]{[repr(c) for c in self.components]}"


def affine_vars(s: int) -> tuple:
    return tuple(f"x{i}" for i in range(1, s + 1))


def nagata(field: Field) -> AffineAutomorphism:
    """Nagata's wild automorphism of affine 3-space; it fixes x^2 - yz."""
    vars = affine_vars(3)
    x, y, z = (MultiPoly.variable(field, vars, v) for v in vars)
    delta = x * x - y * z
    return AffineAutomorphism([x + delta * z, y + 2 * delta * x + delta * delta * z, z], "nagata")


# -- sampled grid transport ---------------------------------------------------------


def grid_transport_check(
    H: Hypersurface, sigma_y: RationalMap, p: int, s: int, t: int, symmetries: list | None = None
) -> dict:
    """Verify on P^s(F_p) that applying (id, sigma_y) transports grids:
    off the base and exceptional loci, the pulled-back graph must coincide
    with the original graph under v -> sigma_y(v).

    Points are the indices of P^s(F_p) in the chart's order
    (`hypersurfaces.ChartPoints`).  sigma_y's components and the removed
    y-content are evaluated at every point at once, on the chart's
    coordinate columns; each image is scaled to first nonzero coordinate 1
    and indexed in the same order (`hypersurfaces.chart_codes`), and the
    sample keeps the points v where sigma_y is defined, off the exceptional
    locus, whose image w is hit once.  The original graph joins P^s to the
    images w, the pulled one to the points v, in the order of v as
    coordinate tuples.

    `symmetries` lists candidate pairs (g, h) of MatrixPairs, g for the
    original graph and h for the pulled one, as `build_graph` takes
    `symmetries=`.  A pair is kept only when both maps are verified
    automorphisms of their graphs (`gridcheck.symmetry_permutation`) and
    give the same left and the same right index permutation, (π, ρ).  Then
    rows_orig[π(u)] is rows_orig[u] with its bits moved by ρ, and so is
    rows_pull[π(u)] with rows_pull[u]: rows that agree at u agree at every
    vertex of u's orbit, and the rows are compared only at the smallest
    vertex of each orbit of the group the kept pairs generate.  Both scans
    are pruned by the same permutations, on on-demand rows and kernel
    columns.  A wrong or missing candidate costs speed only."""
    Hp = hypersurfaces.reduce_hypersurface_mod(H, p)
    sig = sigma_y.reduce_mod(p)
    Hpulled, _, cy = apply_with_contents(sig, Hp)
    chart = hypersurfaces.ChartPoints(p, Hp.s)
    cols = chart.columns()
    values = [gridcheck._values_mod(c, cols, p) for c in sig.components]
    codes = hypersurfaces.chart_codes(values, p)
    off = gridcheck._values_mod(cy.with_vars(sig.vars), cols, p)
    # keep v where sigma is defined, injective on the sample, and off the
    # exceptional locus of the content removal; v and w are chart indices
    usable = [(v, w) for v, (w, o) in enumerate(zip(codes, off)) if w >= 0 and o]
    hits = Counter(w for _, w in usable)
    # in the tuple order of v: a point with more leading zero coordinates
    # comes first, and the chart's order is the tuple order within a block
    pairs = sorted(((v, w) for v, w in usable if hits[w] == 1),
                   key=lambda vw: -chart_block(vw[0], p, Hp.s)[0])
    if len(pairs) < t:
        raise SampleTooSmall(f"only {len(pairs)} usable sample points")
    right_orig = hypersurfaces.ChartPoints(p, Hp.s, codes=[w for _, w in pairs])
    right_pull = hypersurfaces.ChartPoints(p, Hp.s, codes=[v for v, _ in pairs])
    rows_orig = gridcheck._AdjacencyRows(gridcheck._terms_int(Hp), chart, right_orig, p)
    rows_pull = gridcheck._AdjacencyRows(gridcheck._terms_int(Hpulled), chart, right_pull, p)
    perms = []
    verify = gridcheck.symmetry_permutation
    for g, h in symmetries or ():
        a = verify(Hp.form, g, chart, right_orig)
        if a is not None and a == verify(Hpulled.form, h, chart, right_pull):
            perms.append(a[0])
    G1 = gridcheck.BipartiteGraph(chart, right_orig, rows_orig, rows_orig.transpose(), perms)
    adjacency_match = all(rows_orig[u] == rows_pull[u] for u in G1.orbit_minima)
    w1 = gridcheck.find_grid(G1, s, t)
    # equal rows give an equal scan, so the pulled graph is scanned only
    # when the rows differ
    w2 = w1
    if not adjacency_match:
        G2 = gridcheck.BipartiteGraph(chart, right_pull, rows_pull, rows_pull.transpose(), perms)
        w2 = gridcheck.find_grid(G2, s, t)
    return {
        "p": p,
        "s": s,
        "t": t,
        "sample_size": len(pairs),
        "adjacency_match": adjacency_match,
        "grid_original": w1.to_json() if w1 else None,
        "grid_pulled": w2.to_json() if w2 else None,
        "consistent": adjacency_match,
    }

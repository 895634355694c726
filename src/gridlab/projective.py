"""Points, open sets and hypersurfaces of projective space: `ProjPoint`,
the numbering of P^s(F_q) by index (`chart_size`, `chart_block`,
`chart_point`), `OpenSet`, `Hypersurface` in P^s x P^s with its sections,
and `linear_form`.  The algebra commands read their inputs through this
module alone; chart enumeration, reduction mod p and the constructions
are `gridlab.hypersurfaces`'."""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    MalformedJSON,
    ParameterOutOfRange,
    UnsupportedParameters,
    json_field,
)
from .primefields import Field, FieldElem, base_digits, check_budget
from .ring import BiHomPoly, MultiPoly


class ProjPoint:
    """A point of P^s, stored with the first nonzero coordinate scaled to 1."""

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords):
        raw = [field.coerce(c) for c in coords]
        pivot = next((c for c in raw if not field._is_zero(c)), None)
        if pivot is None:
            raise DimensionMismatch("projective point needs a nonzero coordinate")
        inv = field._inv(pivot)
        self.field = field
        self.coords = tuple(FieldElem(field, field._mul(c, inv)) for c in raw)

    @property
    def raw(self) -> tuple:
        """The coordinates as the field's raw values."""
        return tuple(c.val for c in self.coords)

    @classmethod
    def parse(cls, field: Field, text: str) -> "ProjPoint":
        return cls(field, [field.coeff_from_str(part) for part in text.split(":")])

    def __eq__(self, other):
        return (
            isinstance(other, ProjPoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash(self.raw)

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return "(" + ":".join(self.field.coeff_str(c) for c in self.raw) + ")"


def chart_size(q: int, s: int, chart: str) -> int:
    """The number of points of the affine (x0 = 1) or projective chart of
    P^s(F_q), counted against the enumeration budget: more points than the
    budget raise BudgetExceeded."""
    if chart not in ("affine", "projective"):
        raise ParameterOutOfRange(f"unknown chart {chart!r}")
    count = sum(q ** (s - lead) for lead in range(1 if chart == "affine" else s + 1))
    return check_budget(count, f"the {chart} chart of P^{s}(F_{q}) has {count} points")


def chart_block(code: int, q: int, s: int) -> tuple:
    """(lead, rest) for the point of P^s(F_q) with index `code` in the
    chart's order: the point is (0, ..., 0, 1, t) with `lead` zeros and t
    the s - lead base-q digits of `rest`.  The order lists the q^s points
    (1, t) first, then the q^(s-1) points (0, 1, t), and so on, each block
    in the order of t: a point with more leading zeros comes later, and the
    affine chart x0 = 1 is the first block."""
    lead, block = 0, q**s
    while code >= block:
        code -= block
        block //= q
        lead += 1
    return lead, code


def chart_point(code: int, p: int, s: int, k: int = 1) -> tuple:
    """The point of P^s(F_{p^k}) with index `code` in the chart's order
    (`chart_block`), as a tuple of the field's raw values with first
    nonzero coordinate 1; over F_p the inverse of
    `hypersurfaces.chart_codes`.  Each coordinate is a base-p^k digit of
    the index, and over F_{p^k}, k > 1, the element with that index in
    `extfields.ExtensionField.elements()`, whose coefficients are its
    base-p digits: 1 has index p^(k-1)."""
    q = p**k
    lead, rest = chart_block(code, q, s)
    point = (0,) * lead + (p ** (k - 1),) + base_digits(rest, q, s - lead)
    return point if k == 1 else tuple(base_digits(i, p, k) for i in point)


def linear_form(pt: ProjPoint, vars2: tuple) -> MultiPoly:
    """The linear form in `vars2` that vanishes exactly at `pt` in P^1."""
    c0, c1 = pt.coords
    return MultiPoly(pt.field, vars2, {(1, 0): c1, (0, 1): -c0})


def _json_dim(data, key: str, what: str) -> int:
    dim = json_field(data, key, int, what)
    if dim < 0:
        raise MalformedJSON(f"{what}.{key} must be nonnegative")
    return dim


class OpenSet:
    """P^s minus the union of zero sets of the excluded homogeneous forms."""

    __slots__ = ("dim", "excluded")

    def __init__(self, dim: int, excluded: list | None = None):
        self.dim = dim
        self.excluded = list(excluded or [])
        for f in self.excluded:
            if f.is_zero():
                raise UnsupportedParameters("excluded polynomial must be nonzero")

    @classmethod
    def full(cls, dim: int) -> "OpenSet":
        return cls(dim, [])

    @classmethod
    def complement_of_points(cls, points: list, vars: tuple) -> "OpenSet":
        """P^1 minus a finite point list; each point becomes a linear form."""
        return cls(1, [linear_form(pt, vars) for pt in points])

    def contains(self, point: ProjPoint) -> bool:
        coords = [c for c in point.coords]
        for f in self.excluded:
            if f.evaluate(coords).is_zero():
                return False
        return True

    def to_json(self) -> dict:
        return {"dim": self.dim, "excluded": [f.to_json() for f in self.excluded]}

    @classmethod
    def from_json(cls, data: dict) -> "OpenSet":
        dim = _json_dim(data, "dim", "open set")
        excluded = json_field(data, "excluded", list, "open set")
        return cls(dim, [MultiPoly.from_json(f) for f in excluded])


class Hypersurface:
    """Nonzero bihomogeneous form up to scalar; stored monic."""

    __slots__ = ("form",)

    def __init__(self, form: BiHomPoly):
        self.form = form.monic()

    @property
    def s(self) -> int:
        return len(self.form.xvars) - 1

    @property
    def bidegree(self) -> tuple:
        return self.form.bidegree

    @property
    def field(self) -> Field:
        return self.form.poly.field

    def section(self, u: ProjPoint) -> MultiPoly:
        """F(u, ȳ): homogeneous in ȳ of degree <= d_y; returned raw so the
        caller can observe degree drops.  Zero signals {u} x P^s inside H."""
        if len(u.coords) != len(self.form.xvars):
            raise DimensionMismatch("point does not match the x-group")
        mapping = {v: c for v, c in zip(self.form.xvars, u.coords)}
        return self.form.poly.substitute(mapping, new_vars=self.form.yvars)

    def to_json(self) -> dict:
        return {
            "poly": self.form.poly.to_json(),
            "sx": len(self.form.xvars) - 1,
            "sy": len(self.form.yvars) - 1,
            "bidegree": list(self.form.bidegree),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Hypersurface":
        poly = MultiPoly.from_json(json_field(data, "poly", dict, "hypersurface"))
        sx = _json_dim(data, "sx", "hypersurface")
        sy = _json_dim(data, "sy", "hypersurface")
        xg = tuple(f"x{i}" for i in range(sx + 1))
        yg = tuple(f"y{i}" for i in range(sy + 1))
        return cls(BiHomPoly(poly, xg, yg))

    def __repr__(self):
        return f"Hypersurface{self.bidegree}[{self.form.poly!r}]"

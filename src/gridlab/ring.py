"""Sparse exact multivariate polynomials over the fields in `gridlab.fields`:
the representation every other module shares.

`MultiPoly` holds a polynomial as a map from exponent vectors to raw field
values, with its ring arithmetic, substitution, derivatives, evaluation,
views by variable group, the expression parser and JSON.  `BiHomPoly`,
`homogenize`, `bihomogenize` and `group_degree` give the bihomogeneous
forms on P^s x P^s, and `primitive_integral_model` the integer model of
forms over Q that reduction mod p follows.  Exact division, contents,
GCDs and squarefree parts are `gridlab.poly`'s, which a graph command
never runs.  The monomial order is graded lex with the variable tuple's
later entries more significant; the leading coefficient in that order is
normalized to 1 wherever a canonical representative is needed.
"""

from __future__ import annotations

import math
import operator
import re

from .errors import (
    DivisionByZero,
    ExactDivisionError,
    MalformedExpression,
    MalformedJSON,
    MixedFields,
    NotHomogeneous,
    UnknownVariable,
    ZeroPolynomial,
    json_field,
    json_value,
)
from .fields import field_from_descriptor
from .primefields import Field, FieldElem


def _order_key(exps: tuple) -> tuple:
    # graded lex; later variables in the tuple dominate the tie-break
    return (sum(exps), tuple(reversed(exps)))


class MultiPoly:
    """Map from exponent vectors to nonzero coefficients, plus a var tuple.

    Coefficients are stored as the field's raw values (see `Field.coerce`)
    and combined with the field's `_add`/`_mul`/... primitives; `FieldElem`
    appears only at the public boundary (`evaluate`, `constant_value`, and
    as accepted input).
    """

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: Field, vars: tuple, terms: dict):
        self.field = field
        self.vars = tuple(vars)
        nv = len(self.vars)
        coerce, is_zero = field.coerce, field._is_zero
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nv:
                raise UnknownVariable(f"exponent vector {exps} vs vars {self.vars}")
            c = coerce(c)
            if not is_zero(c):
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, field: Field, vars: tuple, terms: dict) -> "MultiPoly":
        """Adopt `terms` as is: raw, nonzero coefficients keyed by exponent
        tuples matching `vars`.  For results of internal arithmetic."""
        poly = cls.__new__(cls)
        poly.field, poly.vars, poly.terms = field, vars, terms
        return poly

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, vars: tuple) -> "MultiPoly":
        return cls(field, vars, {})

    @classmethod
    def constant(cls, field: Field, vars: tuple, c) -> "MultiPoly":
        return cls(field, vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, field: Field, vars: tuple, name: str) -> "MultiPoly":
        if name not in vars:
            raise UnknownVariable(name)
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls._raw(field, tuple(vars), {exps: field._one()})

    @classmethod
    def parse(cls, field: Field, vars: tuple, expr: str) -> "MultiPoly":
        """Build a polynomial from an expression in `+ - * / ** ( )`,
        integers and the names in `vars`, with Python's precedence; `/`
        divides by a constant and an exponent is an integer literal."""
        toks = re.findall(r"\w+|\*\*|\S", expr)[::-1]

        def take(*ops):
            return toks.pop() if toks and toks[-1] in ops else None

        def sum_():
            acc = product()
            while op := take("+", "-"):
                acc = acc + product() if op == "+" else acc - product()
            return acc

        def product():
            acc = signed()
            while op := take("*", "/"):
                acc = acc * signed() if op == "*" else acc / signed()
            return acc

        def signed():
            if op := take("+", "-"):
                return signed() if op == "+" else -signed()
            base = atom()
            if not take("**"):
                return base
            if not (toks and toks[-1].isdecimal()):
                raise MalformedExpression("an exponent must be an integer literal")
            return base ** int(toks.pop())

        def atom():
            tok = toks.pop() if toks else "end of input"
            if tok == "(":
                inner = sum_()
                if not take(")"):
                    raise MalformedExpression(f"unbalanced '(' in {expr!r}")
                return inner
            if tok.isdecimal():
                return cls.constant(field, vars, int(tok))
            if tok in vars:
                return cls.variable(field, vars, tok)
            if tok.isidentifier():
                raise UnknownVariable(tok)
            raise MalformedExpression(f"unexpected {tok!r} in {expr!r}")

        poly = sum_()
        if toks:
            raise MalformedExpression(f"unexpected {toks[-1]!r} in {expr!r}")
        return poly

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> FieldElem:
        c = self.terms.get((0,) * len(self.vars), self.field._zero())
        return FieldElem(self.field, c)

    def _lead(self) -> tuple:
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading term")
        exps = max(self.terms, key=_order_key)
        return exps, self.terms[exps]

    def _scale(self, c) -> "MultiPoly":
        # c is a raw nonzero field value, so no product vanishes
        mul = self.field._mul
        return MultiPoly._raw(
            self.field, self.vars, {e: mul(k, c) for e, k in self.terms.items()}
        )

    def monic(self) -> "MultiPoly":
        if self.is_zero():
            return self
        _, lc = self._lead()
        if lc == self.field._one():
            return self
        return self._scale(self.field._inv(lc))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def _vidx(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVariable(var) from None

    def degree_in(self, var: str) -> int:
        i = self._vidx(var)
        if self.is_zero():
            return -1
        return max(e[i] for e in self.terms)

    def degree_in_vars(self, group: tuple) -> int:
        idx = [self._vidx(v) for v in group]
        if self.is_zero():
            return -1
        return max(sum(e[i] for i in idx) for e in self.terms)

    # -- arithmetic --------------------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly):
            # identity first: the Python-level Field.__ne__ is the slow path
            if other.field is not self.field and other.field != self.field:
                raise MixedFields("polynomials over different fields")
            if other.vars != self.vars:
                raise UnknownVariable(
                    f"variable tuples differ: {other.vars} vs {self.vars}"
                )
            return other
        return MultiPoly.constant(self.field, self.vars, other)

    def __add__(self, other):
        other = self._coerce_operand(other)
        add, is_zero = self.field._add, self.field._is_zero
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = add(terms[e], c)
                if is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return MultiPoly._raw(self.field, self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field._neg
        return MultiPoly._raw(
            self.field, self.vars, {e: neg(c) for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-self._coerce_operand(other))

    def __rsub__(self, other):
        return self._coerce_operand(other) - self

    def __mul__(self, other):
        field = self.field
        if not isinstance(other, MultiPoly):
            c = field.coerce(other)
            if field._is_zero(c):
                return MultiPoly.zero(field, self.vars)
            return self._scale(c)
        other = self._coerce_operand(other)
        add, mul, is_zero = field._add, field._mul, field._is_zero
        out: dict = {}
        right = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in right:
                e = tuple(map(operator.add, e1, e2))
                c = mul(c1, c2)
                out[e] = add(out[e], c) if e in out else c
        return MultiPoly._raw(
            field, self.vars, {e: c for e, c in out.items() if not is_zero(c)}
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        # division by a nonzero constant only
        if isinstance(other, MultiPoly):
            if not other.is_constant():
                raise ExactDivisionError("use exact_div for nonconstant divisors")
            other = other.constant_value()
        c = self.field.coerce(other)
        if self.field._is_zero(c):
            raise DivisionByZero("inverse of zero")
        return self._scale(self.field._inv(c))

    def __pow__(self, n: int):
        """Square-and-multiply for a nonnegative int exponent: no product
        with the constant 1, and no square past the top bit."""
        if n < 0:
            raise ValueError("negative power")
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.constant(self.field, self.vars, 1) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and evaluation -------------------------------------------------

    def derivative(self, var: str) -> "MultiPoly":
        i = self._vidx(var)
        field = self.field
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            k = field._mul(c, field.coerce(e[i]))
            if field._is_zero(k):
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = k
        return MultiPoly._raw(field, self.vars, out)

    def evaluate(self, point) -> FieldElem:
        """Evaluate at a sequence of values, one per variable in order."""
        field = self.field
        vals = [field.coerce(v) for v in point]
        if len(vals) != len(self.vars):
            raise UnknownVariable("point length does not match variables")
        add, mul = field._add, field._mul
        total = field._zero()
        for e, c in self.terms.items():
            t = c
            for val, k in zip(vals, e):
                for _ in range(k):
                    t = mul(t, val)
            total = add(total, t)
        return FieldElem(field, total)

    def substitute(self, mapping: dict, new_vars: tuple) -> "MultiPoly":
        """Replace variables by polynomials or field elements.

        `mapping` maps variable names to MultiPoly (or coercible scalars);
        unreplaced variables stay.  The result lives in `new_vars`; a
        variable that occurs in it, unreplaced or in a substituted
        polynomial, but is not in `new_vars` raises UnknownVariable.
        """
        for v in mapping:
            if v not in self.vars:
                raise UnknownVariable(v)
        lifted = {}
        for v, val in mapping.items():
            if isinstance(val, MultiPoly):
                lifted[v] = val.with_vars(new_vars)
            else:
                lifted[v] = MultiPoly.constant(self.field, new_vars, val)
        # a term starts at the monomial of its unmapped variables' exponents
        # and is multiplied by the powers of the mapped ones only; a monomial
        # factor shifts exponents injectively, so the terms and their order
        # are those of multiplying by every variable's power in turn
        mapped, kept, missing = [], [], []
        for i, v in enumerate(self.vars):
            if v in lifted:
                mapped.append((i, v))
            elif v in new_vars:
                kept.append((i, new_vars.index(v)))
            else:
                missing.append((i, v))
        add, is_zero = self.field._add, self.field._is_zero
        powers = {}  # (v, k) -> the image of v to the k-th power
        out = {}
        for e, c in self.terms.items():
            for i, v in missing:
                if e[i]:
                    raise UnknownVariable(f"{v} not in target variables")
            start = [0] * len(new_vars)
            for i, j in kept:
                start[j] = e[i]
            term = MultiPoly._raw(self.field, new_vars, {tuple(start): c})
            for i, v in mapped:
                k = e[i]
                if k == 0:
                    continue
                power = powers.get((v, k))
                if power is None:
                    power = powers[v, k] = lifted[v] ** k
                term = term * power
            # add in place, dropping a cancelled monomial at once, so the
            # terms come out in the order that `+` would give them
            for m, a in term.terms.items():
                if m in out:
                    a = add(out[m], a)
                    if is_zero(a):
                        del out[m]
                        continue
                out[m] = a
        return MultiPoly._raw(self.field, new_vars, out)

    def with_vars(self, new_vars: tuple) -> "MultiPoly":
        """Re-express over a different variable tuple (superset of support)."""
        new_vars = tuple(new_vars)
        if new_vars == self.vars:
            return self
        pos = {}
        for i, v in enumerate(self.vars):
            if v in new_vars:
                pos[i] = new_vars.index(v)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i not in pos:
                    raise UnknownVariable(f"{self.vars[i]} not in target variables")
                ne[pos[i]] = k
            out[tuple(ne)] = c
        return MultiPoly._raw(self.field, new_vars, out)

    # -- views --------------------------------------------------------------------

    def coeffs_in(self, group: tuple) -> dict:
        """View as a polynomial in `group`; maps group-exponents to the
        coefficient polynomial (same var tuple, degree 0 in `group`)."""
        idx = [self._vidx(v) for v in group]
        idx_set = set(idx)
        buckets: dict = {}
        for e, c in self.terms.items():
            key = tuple(e[i] for i in idx)
            rest = tuple(0 if i in idx_set else k for i, k in enumerate(e))
            buckets.setdefault(key, {})[rest] = c
        return {
            key: MultiPoly._raw(self.field, self.vars, t)
            for key, t in buckets.items()
        }

    def univariate(self, var: str) -> list:
        """Dense coefficient list in `var`, low degree first; entries are
        MultiPolys of degree 0 in `var`."""
        i = self._vidx(var)
        d = self.degree_in(var)
        coeffs = [dict() for _ in range(max(d + 1, 1))]
        for e, c in self.terms.items():
            rest = list(e)
            k = rest[i]
            rest[i] = 0
            coeffs[k][tuple(rest)] = c
        return [MultiPoly._raw(self.field, self.vars, t) for t in coeffs]

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        order = sorted(self.terms, key=_order_key, reverse=True)
        return {
            "field": self.field.descriptor(),
            "vars": list(self.vars),
            "terms": [
                {"e": list(e), "c": self.field.coeff_str(self.terms[e])}
                for e in order
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        field = field_from_descriptor(json_field(data, "field", dict, "poly"))
        vars = tuple(
            json_value(v, str, "poly.vars entry")
            for v in json_field(data, "vars", list, "poly")
        )
        # two columns of one name would be merged by `with_vars`, which
        # keeps one of the colliding terms and drops the others
        repeated = sorted({v for v in vars if vars.count(v) > 1})
        if repeated:
            raise MalformedJSON(f"poly.vars names {', '.join(repeated)} more than once")
        terms = {}
        for t in json_field(data, "terms", list, "poly"):
            e = tuple(
                json_value(k, int, "poly.terms exponent")
                for k in json_field(t, "e", list, "poly.terms entry")
            )
            if min(e, default=0) < 0:
                raise MalformedJSON("poly.terms exponent must be nonnegative")
            # a dict keeps the last of two terms with one exponent and drops the other
            if e in terms:
                raise MalformedJSON(f"poly.terms exponent {list(e)} appears more than once")
            terms[e] = field.coeff_from_str(json_field(t, "c", str, "poly.terms entry"))
        return cls(field, vars, terms)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms, key=_order_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            cs = self.field.coeff_str(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts)


def primitive_integral_model(polys: list) -> list:
    """Integer term dicts of c*F for every F over Q in `polys`: one positive
    rational c for the whole list, chosen so that all the coefficients
    together are coprime integers."""
    coeffs = [c for F in polys for c in F.terms.values()]
    den = math.lcm(*(c.denominator for c in coeffs))
    num = math.gcd(*(c.numerator for c in coeffs)) or 1
    return [
        {e: c.numerator // num * (den // c.denominator) for e, c in F.terms.items()}
        for F in polys
    ]


# -- homogenization -----------------------------------------------------------------


def homogenize(F: MultiPoly, group: tuple, hvar: str) -> MultiPoly:
    """Homogenize within a variable group using `hvar` (a member of it), to
    the largest degree in the group among F's terms."""
    idx = [F._vidx(v) for v in group]
    h = F._vidx(hvar)
    if h not in idx:
        raise UnknownVariable(f"{hvar} must belong to the group")
    if F.is_zero():
        return F
    target = max(sum(e[i] for i in idx) for e in F.terms)
    out = {}
    for e, c in F.terms.items():
        d = sum(e[i] for i in idx)
        ne = list(e)
        ne[h] += target - d
        out[tuple(ne)] = c
    return MultiPoly._raw(F.field, F.vars, out)


def group_degree(F: MultiPoly, group: tuple):
    """Degree in the group if F is homogeneous there, else raises."""
    idx = [F._vidx(v) for v in group]
    degs = {sum(e[i] for i in idx) for e in F.terms}
    if len(degs) > 1:
        raise NotHomogeneous(f"degrees {sorted(degs)} in group {group}")
    return degs.pop() if degs else 0


class BiHomPoly:
    """A bihomogeneous polynomial with its bidegree, over groups (x̄, ȳ)."""

    __slots__ = ("poly", "xvars", "yvars", "bidegree")

    def __init__(self, poly: MultiPoly, xvars: tuple, yvars: tuple):
        self.poly = poly
        self.xvars = tuple(xvars)
        self.yvars = tuple(yvars)
        dx = group_degree(poly, self.xvars)
        dy = group_degree(poly, self.yvars)
        self.bidegree = (dx, dy)

    def __eq__(self, other):
        return isinstance(other, BiHomPoly) and self.poly == other.poly

    def monic(self) -> "BiHomPoly":
        return BiHomPoly(self.poly.monic(), self.xvars, self.yvars)

    def __repr__(self):
        return f"BiHom{self.bidegree}[{self.poly!r}]"


def xy_vars(s: int) -> tuple:
    """Standard variable tuple (x0..xs, y0..ys) for P^s x P^s."""
    return tuple(f"x{i}" for i in range(s + 1)) + tuple(
        f"y{i}" for i in range(s + 1)
    )


def bihomogenize(affine: MultiPoly, s: int) -> BiHomPoly:
    """Bihomogenize a polynomial in x1..xs, y1..ys with x0 and y0.

    The target bidegree is (max x-degree, max y-degree) over the terms.
    """
    full = xy_vars(s)
    F = affine.with_vars(full)
    xg = tuple(f"x{i}" for i in range(s + 1))
    yg = tuple(f"y{i}" for i in range(s + 1))
    F = homogenize(F, xg, "x0")
    F = homogenize(F, yg, "y0")
    return BiHomPoly(F, xg, yg)

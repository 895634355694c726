"""Sparse exact multivariate polynomials over the fields in `gridlab.fields`.

Provides exactly the primitives the grid-free machinery needs: ring
arithmetic, substitution, derivatives, per-variable-group contents, GCDs,
squarefree parts and (bi)homogenization.

A GCD over a finite field is Brown's dense evaluation/interpolation scheme
(`_DenseGcd`): the last variable is evaluated at field points taken one at
a time, the images' gcds come from the same scheme in one variable fewer
down to univariate Euclid, Newton interpolation combines them, and the
candidate is certified by exact division of both inputs.  A field F_q with
too few points for the degrees runs the same scheme over F_{q^k}, for the
least k = 2, 3, ... that has enough, and maps the monic gcd back: it does
not change under field extension.  Over Q the GCD is assembled from the
dense scheme's images modulo word-size primes by CRT and rational
reconstruction, and certified by exact division as well.  The monomial
order is graded lex with the variable tuple's later entries more
significant; the leading coefficient in that order is normalized to 1
wherever a canonical representative is needed.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction

from .errors import (
    BadCharacteristic,
    DivisionByZero,
    ExactDivisionError,
    MalformedExpression,
    MalformedJSON,
    MixedFields,
    NotHomogeneous,
    UnknownVariable,
    UnsupportedParameters,
    ZeroPolynomial,
    json_field,
    json_value,
)
from .fields import (
    GF,
    QQ,
    DenseUnivariate,
    Field,
    FieldElem,
    check_budget,
    field_from_descriptor,
    is_prime,
)


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
        terms = {}
        for t in json_field(data, "terms", list, "poly"):
            e = tuple(
                json_value(k, int, "poly.terms exponent")
                for k in json_field(t, "e", list, "poly.terms entry")
            )
            if min(e, default=0) < 0:
                raise MalformedJSON("poly.terms exponent must be nonnegative")
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


# -- exact division and gcd -------------------------------------------------------


def _quotient(field: Field, a: dict, b: dict):
    """Quotient of raw term dicts a / b (b nonzero) when b divides a
    exactly, else None."""
    sub, mul, is_zero = field._sub, field._mul, field._is_zero
    zero = field._zero()
    quotient: dict = {}
    rem = dict(a)
    eb = max(b, key=_order_key)
    cb_inv = field._inv(b[eb])
    while rem:
        ea = max(rem, key=_order_key)
        qe = tuple(x - y for x, y in zip(ea, eb))
        if any(k < 0 for k in qe):
            return None
        qc = mul(rem[ea], cb_inv)
        quotient[qe] = qc
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(qe, e2))
            s = sub(rem.get(e, zero), mul(qc, c2))
            if is_zero(s):
                rem.pop(e, None)
            else:
                rem[e] = s
    return quotient


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Quotient a/b when b divides a exactly; raises ExactDivisionError."""
    if b.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    field = a._coerce_operand(b).field
    quotient = _quotient(field, a.terms, b.terms)
    if quotient is None:
        raise ExactDivisionError("leading term not divisible")
    return MultiPoly._raw(field, a.vars, quotient)


def divides(b: MultiPoly, a: MultiPoly) -> bool:
    if a.is_zero():
        return True
    if b.is_zero():
        return False
    try:
        exact_div(a, b)
        return True
    except ExactDivisionError:
        return False


def content(polys: list) -> MultiPoly:
    """Monic gcd of a nonempty list of polynomials; zero when all are zero."""
    if not polys:
        raise ZeroPolynomial("content of an empty list")
    cont = polys[0].monic()
    for c in polys[1:]:
        if cont.degree() == 0:
            break  # gcd(1, c) = 1
        cont = gcd(cont, c)
    return cont


def split_group_contents(F: MultiPoly, xvars: tuple, yvars: tuple) -> tuple:
    """(f, g, core) with F = f g core: f is the content of F's coefficients
    in ȳ, a factor in x̄ only; g is the content of the coefficients in x̄ of
    F / f, a factor in ȳ only; core is free of one-group factors.  A content
    of 1 is not divided out, since exact division costs time quadratic in
    the number of terms."""
    contents = []
    for group in (yvars, xvars):
        cont = content(list(F.coeffs_in(group).values()))
        if cont.degree() > 0:
            F = exact_div(F, cont)
        contents.append(cont)
    return (*contents, F)


def gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """GCD over a field, normalized monic: the dense evaluation/interpolation
    gcd over a finite field, the modular gcd over Q."""
    b = a._coerce_operand(b)
    if a.is_zero() or b.is_zero():
        return (a + b).monic()
    if not a.field.characteristic:
        return _modular_gcd(a, b)
    return _field_gcd(a, b)


def _field_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic gcd of nonzero polynomials over a finite field F_q by the dense
    scheme, on the variables that occur in a or b.  When F_q runs out of
    evaluation points, the same scheme runs over F_{q^k} for k = 2, 3, ...
    until one has enough: the monic gcd does not change under field
    extension, so its coefficients lie in the image of F_q and map back.
    Variables of degrees d_i span a dense grid of prod(d_i + 1)
    coefficients, which the evaluation and interpolation fill, so a grid
    over the enumeration budget is refused (BudgetExceeded) before any list
    is allocated."""
    degrees = list(map(max, zip(*a.terms, *b.terms)))
    used = [i for i, d in enumerate(degrees) if d]
    grid = math.prod(degrees[i] + 1 for i in used)
    spans = ", ".join(f"{degrees[i]} in {a.vars[i]}" for i in used)
    check_budget(grid, f"degree {spans}: a dense grid of {grid} coefficients")
    if not used:
        return MultiPoly.constant(a.field, a.vars, 1)
    small = _DenseGcd(a.field)
    pair = [{tuple(e[i] for i in used): c for e, c in f.terms.items()} for f in (a, b)]
    g = small.gcd(*pair, len(used))
    k = 1
    while g is None:
        k += 1
        big, embed = small.lift(k)
        g = big.gcd(*({e: embed(c) for e, c in f.items()} for f in pair), len(used))
        if g is not None:
            back = {embed(c): c for c in small.points()}
            g = {e: back[c] for e, c in g.items()}
    terms = {}
    for e, c in g.items():
        full = [0] * len(a.vars)
        for i, d in zip(used, e):
            full[i] = d
        terms[tuple(full)] = c
    return MultiPoly._raw(a.field, a.vars, terms)


class _DenseGcd(DenseUnivariate):
    """Brown's dense modular gcd over one finite field (algorithm PGCD of
    Geddes, Czapor and Labahn, Algorithms for Computer Algebra, ch. 7), on
    raw coefficient values through the field's primitives.

    Polynomials in n variables are term dicts keyed by n-tuples; `group`
    views one as a map from its first n-1 exponents to a dense list in the
    last variable, low degree first, with no trailing zero.  The last
    variable is evaluated at field points, the images' gcds come from the
    recursion, and univariate Euclid ends it.  A candidate is tested by
    exact division once degree bound + 1 points agree, or earlier when a
    point leaves the interpolant unchanged; one that divides both inputs is
    the gcd, since its leading monomial is no smaller than the gcd's.  The
    dense-list arithmetic is `fields.DenseUnivariate`'s.
    """

    def points(self):
        """The field's elements as raw values, lazily."""
        if self.field.kind == "prime":
            return iter(range(self.field.p))
        return (x.val for x in self.field.elements())

    def lift(self, k: int) -> tuple:
        """(the engine over the degree-k extension E of the field, the
        embedding of the field's raw values into E's)."""
        field = self.field
        if field.kind == "prime":
            big = _DenseGcd(GF(field.p, k))
            return big, big.field.coerce
        big = _DenseGcd(GF(field.p, field.s * k))
        coerce = big.field.coerce
        # the field is F_p[b]/(modulus): b goes to a root of the modulus in E
        modulus = [coerce(c) for c in field.modulus]
        root = next(x for x in big.points() if big.is_zero(big.value(modulus, x)))
        return big, lambda c: big.value([coerce(ci) for ci in c], root)

    # -- the recursion -------------------------------------------------------

    def group(self, terms: dict) -> dict:
        out: dict = {}
        zero = self.zero
        for e, c in terms.items():
            row = out.setdefault(e[:-1], [])
            k = e[-1]
            if len(row) <= k:
                row.extend([zero] * (k + 1 - len(row)))
            row[k] = c
        return out

    def primitive(self, f: dict) -> tuple:
        """(content, primitive part) of a grouped polynomial, the content
        being the monic gcd of its lists."""
        cont = []
        for row in f.values():
            cont = self.ugcd(cont, row)
            if len(cont) == 1:
                return cont, f
        return cont, {k: self.divmod(row, cont)[0] for k, row in f.items()}

    def flat(self, f: dict) -> dict:
        is_zero = self.is_zero
        return {
            k + (i,): c
            for k, row in f.items()
            for i, c in enumerate(row)
            if not is_zero(c)
        }

    def divides(self, f: dict, g: dict) -> bool:
        return _quotient(self.field, self.flat(g), self.flat(f)) is not None

    def times_content(self, f: dict, cont: list) -> dict:
        """The monic flat form of f times the univariate content."""
        terms = self.flat({k: self.product(row, cont) for k, row in f.items()})
        lead_inv = self.inv(terms[max(terms, key=_order_key)])
        return {e: self.mul(c, lead_inv) for e, c in terms.items()}

    def gcd(self, a: dict, b: dict, n: int):
        """Monic gcd (graded lex on the n variables) of nonzero term dicts
        keyed by n-tuples; None when the field runs out of points."""
        is_zero, mul, sub = self.is_zero, self.mul, self.sub
        if n == 1:
            g = self.ugcd(self.group(a)[()], self.group(b)[()])
            return {(i,): c for i, c in enumerate(g) if not is_zero(c)}
        ca, a = self.primitive(self.group(a))
        cb, b = self.primitive(self.group(b))
        cont = self.ugcd(ca, cb)
        lc_gcd = self.ugcd(a[max(a, key=_order_key)], b[max(b, key=_order_key)])
        # bounds the last-variable degree of lc_gcd/lc(G) * G, G = gcd(a, b)
        bound = min(max(map(len, a.values())), max(map(len, b.values()))) - 2
        bound += len(lc_gcd)
        best = ceiling = (math.inf,)
        value = self.value
        for x in self.points():
            gx = value(lc_gcd, x)
            if is_zero(gx):
                continue
            ax, bx = (
                {k: v for k, row in f.items() if not is_zero(v := value(row, x))}
                for f in (a, b)
            )
            image = self.gcd(ax, bx, n - 1)
            if image is None:
                return None
            lead = max(image, key=_order_key)
            if not any(lead):  # the primitive parts are coprime
                return self.times_content({(0,) * (n - 1): [self.one]}, cont)
            key = _order_key(lead)
            if key >= ceiling or key > best:
                continue  # x is unlucky
            if key < best:  # every earlier point was unlucky
                best, modulus, changed = key, [self.one], True
                h = {k: [mul(gx, c)] for k, c in image.items()}
            else:  # Newton: h += (gx * image - h(x)) * modulus / modulus(x)
                inv_mx = self.inv(value(modulus, x))
                changed = False
                for k in image.keys() | h.keys():
                    row = h.get(k, [])
                    d = sub(mul(gx, image.get(k, self.zero)), value(row, x))
                    if not is_zero(d):
                        changed = True
                        h[k] = self.plus(row, self.scale(modulus, mul(d, inv_mx)))
            modulus = self.product(modulus, [sub(self.zero, x), self.one])
            complete = len(modulus) - 1 > bound
            if changed and not complete:
                continue
            # test once the interpolant is complete or stopped changing
            _, candidate = self.primitive(h)
            if self.divides(candidate, a) and self.divides(candidate, b):
                return self.times_content(candidate, cont)
            if complete:  # images of this leading monomial are all unlucky
                best, ceiling = (math.inf,), best
        return None


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


def _word_primes():
    """Primes below 2^31, largest first: the moduli of the Q gcd's images."""
    p = 2**31 - 1
    while p > 2:
        if is_prime(p):
            yield p
        p -= 2


def _rational(u: int, m: int):
    """The fraction r/s with r = s*u (mod m) and |r|, s <= sqrt(m/2), or None
    when there is none; it is unique since 2*sqrt(m/2)^2 < m for odd m
    (Wang's rational reconstruction, the half-extended Euclid)."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _modular_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic GCD of nonzero polynomials over Q from monic images over GF(p)
    (Brown 1971).

    Take primes p dividing neither leading coefficient of the primitive
    integral models.  The gcd's leading monomial then divides the image's,
    with equality exactly when p is lucky: an image with a larger leading
    monomial is dropped, a smaller one restarts the accumulation, and an
    image of degree 0 proves the gcd is 1.  Images of one leading monomial
    are combined coefficientwise by CRT and lifted to Q by rational
    reconstruction.  A lift that divides both inputs is the gcd, because
    its leading monomial is no smaller than the gcd's.
    """
    A, B = (primitive_integral_model([f])[0] for f in (a, b))
    la, lb = A[max(A, key=_order_key)], B[max(B, key=_order_key)]
    best, acc, modulus = (math.inf,), {}, 1
    for p in _word_primes():
        if la % p == 0 or lb % p == 0:
            continue
        Fp = GF(p)
        a_p, b_p = (
            MultiPoly._raw(Fp, a.vars, {e: r for e, c in M.items() if (r := c % p)})
            for M in (A, B)
        )
        image = _field_gcd(a_p, b_p)
        exps, _ = image._lead()
        if sum(exps) == 0:
            return MultiPoly.constant(QQ, a.vars, 1)
        key = _order_key(exps)
        if key > best:
            continue  # p is unlucky
        if key < best:  # every earlier prime was unlucky
            best, acc, modulus = key, {}, 1
        inv = pow(modulus, -1, p)
        acc = {
            e: (u := acc.get(e, 0))
            + modulus * ((image.terms.get(e, 0) - u) * inv % p)
            for e in acc.keys() | image.terms.keys()
        }
        modulus *= p
        lifted = {}
        for e, u in acc.items():
            if (c := _rational(u, modulus)) is None:
                break
            if c:
                lifted[e] = c
        else:
            g = MultiPoly._raw(QQ, a.vars, lifted)
            if divides(g, a) and divides(g, b):
                return g
    raise UnsupportedParameters("ran out of word-size primes")


def squarefree_part(a: MultiPoly, var: str) -> MultiPoly:
    """a / gcd(a, da/dvar), monic; demands characteristic 0 or larger than
    the degree in `var` so the derivative cannot collapse."""
    if a.is_zero():
        raise ZeroPolynomial("squarefree part of zero")
    char = a.field.characteristic
    d = a.degree_in(var)
    if char and d >= char:
        raise BadCharacteristic(
            f"char {char} <= degree {d} in {var}; derivative may degenerate"
        )
    if d <= 0:
        return a.monic()
    da = a.derivative(var)
    if da.is_zero():
        raise BadCharacteristic(f"derivative in {var} vanished")
    return exact_div(a, gcd(a, da)).monic()


def squarefree_in_vars(a: MultiPoly, group: tuple) -> MultiPoly:
    """Iterated per-variable squarefree pass over a variable group.

    The pass in v divides by gcd(a, da/dv), which holds every factor free
    of v whole, so each factor free of some variable of the group is
    dropped: on y0*y1*h over (y0, y1) the result is h.  This is no
    squarefree part of a binary form; callers must not have such factors
    or must split them off first."""
    out = a
    for v in group:
        if out.degree_in(v) > 0:
            out = squarefree_part(out, v)
    return out.monic()


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

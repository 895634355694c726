"""Exact division, contents, GCDs and squarefree parts of the polynomials
in `gridlab.ring`, over the fields in `gridlab.fields`: the algebra that the
classifier, the curves code and the Cremona code rest on, and that no
graph command runs.

A GCD over a finite field is Brown's dense evaluation/interpolation scheme
(`_DenseGcd`): the last variable is evaluated at field points taken one at
a time, the images' gcds come from the same scheme in one variable fewer
down to univariate Euclid, Newton interpolation combines them, and the
candidate is certified by exact division of both inputs.  A field F_q with
too few points for the degrees runs the same scheme over F_{q^k}, for the
least k = 2, 3, ... that has enough, and maps the monic gcd back: it does
not change under field extension.  Over Q the GCD is assembled from the
dense scheme's images modulo word-size primes by CRT and rational
reconstruction, and certified by exact division as well.  Gcds and
contents are monic in `ring`'s monomial order.
"""

from __future__ import annotations

import math

from .errors import BadCharacteristic, ExactDivisionError, UnsupportedParameters, ZeroPolynomial
from . import rationals
from .fields import GF
from .primefields import DenseUnivariate, Field, check_budget, is_prime
from .ring import MultiPoly, _order_key, primitive_integral_model


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
    dense-list arithmetic is `primefields.DenseUnivariate`'s.
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
    return rationals.Fraction(r1, s1)


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
            return MultiPoly.constant(rationals.QQ, a.vars, 1)
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
            g = MultiPoly._raw(rationals.QQ, a.vars, lifted)
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

"""Seeded inputs and job lists for the three benchmark workloads.

A job is one `gridlab` CLI call.  Each job carries an `expect` record that
`oracle.py` checks the call's exit code and stdout against.  The record
holds what this generator built (factors, points, the family theorem that
applies), never anything computed by gridlab, so the check is independent
of the code under test.

Polynomials are built here with a few lines of dict arithmetic and written
in gridlab's JSON interchange format.  `setup` writes every input file into
a work directory and runs the `gridlab construct` calls the graph jobs need.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("graphs", "algebra", "sweep")

SWEEP_PRIMES = "5,7,11,13,17,19"

P1 = ("x0", "x1", "y0", "y1")
PLANE = ("y0", "y1", "y2")
P2P2 = ("x0", "x1", "x2", "y0", "y1", "y2")


# -- coefficient fields ------------------------------------------------------------


class Rationals:
    char = 0
    descriptor = {"kind": "rationals"}

    def elem(self, c):
        return Fraction(c)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def text(self, a):
        return str(a)


class PrimeField:
    def __init__(self, p):
        self.p = self.char = p
        self.descriptor = {"kind": "prime", "p": p}

    def elem(self, c):
        return c % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def is_zero(self, a):
        return a == 0

    def text(self, a):
        return str(a)


class F25:
    """F_5[b]/(b^2 - 2); the modulus is written into every descriptor."""

    p = char = 5
    descriptor = {"kind": "extension", "p": 5, "s": 2, "modulus": [3, 0, 1]}

    def elem(self, c):
        if isinstance(c, tuple):
            return (c[0] % 5, c[1] % 5)
        return (c % 5, 0)

    def add(self, a, b):
        return ((a[0] + b[0]) % 5, (a[1] + b[1]) % 5)

    def mul(self, a, b):
        return ((a[0] * b[0] + 2 * a[1] * b[1]) % 5, (a[0] * b[1] + a[1] * b[0]) % 5)

    def is_zero(self, a):
        return a == (0, 0)

    def text(self, a):
        return f"{a[0]},{a[1]}"


QQ = Rationals()
FIELDS = {"QQ": QQ, "F101": PrimeField(101), "F25": F25()}


# -- dict polynomials --------------------------------------------------------------


def pmul(K, a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = K.add(out[e], K.mul(ca, cb)) if e in out else K.mul(ca, cb)
    return {e: c for e, c in out.items() if not K.is_zero(c)}


def pprod(K, *polys) -> dict:
    out = polys[0]
    for q in polys[1:]:
        out = pmul(K, out, q)
    return out


def monomials(nvars: int, degree: int):
    """Exponent vectors of total degree `degree`, in a fixed order."""
    if nvars == 1:
        yield (degree,)
        return
    for k in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - k):
            yield (k,) + rest


def poly_json(K, vars: tuple, poly: dict) -> dict:
    terms = [{"e": list(e), "c": K.text(c)} for e, c in sorted(poly.items())]
    return {"field": K.descriptor, "vars": list(vars), "terms": terms}


def terms_record(K, poly: dict) -> list:
    """[[exponents, coefficient text], ...]: a factor as the oracle reads it."""
    return [[list(e), K.text(c)] for e, c in sorted(poly.items())]


def hyper_json(K, poly: dict, bidegree: tuple) -> dict:
    return {"poly": poly_json(K, P2P2, poly), "sx": 2, "sy": 2, "bidegree": list(bidegree)}


def _nonzero(rng, K, lo=-5, hi=5):
    if K is QQ:
        return Fraction(rng.choice([k for k in range(lo, hi + 1) if k]))
    if isinstance(K, PrimeField):
        return rng.randrange(1, K.p)
    return (rng.randrange(5), rng.randrange(1, 5))


def _coeff(rng, K):
    """A random coefficient that may be zero."""
    if K is QQ:
        return Fraction(rng.randint(-3, 3))
    if isinstance(K, PrimeField):
        return rng.randrange(K.p)
    return (rng.randrange(5), rng.randrange(5))


# -- algebra workload ----------------------------------------------------------------


def _linear(rng, K, offset: int, nvars: int = 4):
    """a*v0 + b*v1 in the pair of variables starting at `offset`."""
    a, b = _nonzero(rng, K), _nonzero(rng, K)
    e0 = tuple(1 if i == offset else 0 for i in range(nvars))
    e1 = tuple(1 if i == offset + 1 else 0 for i in range(nvars))
    return {e0: a, e1: b}, (a, b)


def _root_text(K, a, b) -> str:
    """The point (v0:v1) where a*v0 + b*v1 vanishes, as the CLI parses it."""
    if K is QQ:
        return f"{b}:{-a}"
    return f"{b % K.p}:{-a % K.p}"


def _distinct_lines(rng, K, offset, count):
    out, seen = [], set()
    while len(out) < count:
        poly, (a, b) = _linear(rng, K, offset)
        ratio = Fraction(a) / Fraction(b) if K is QQ else a * pow(b, -1, K.p) % K.p
        if ratio not in seen:
            seen.add(ratio)
            out.append((poly, (a, b)))
    return out


def _s1_form(rng, K):
    """f(x) g(y) h1^2 h2 of bidegree (5, 6): f and g are products of two
    distinct linear forms, h1 an irreducible (1,1) form and h2 an
    irreducible (1,2) form."""
    fs = _distinct_lines(rng, K, 0, 2)
    gs = _distinct_lines(rng, K, 2, 2)
    while True:
        a, b, c, d = (_nonzero(rng, K) for _ in range(4))
        det = a * d - b * c
        if (det if K is QQ else det % K.p) != 0:
            break
    h1 = {(1, 0, 1, 0): a, (1, 0, 0, 1): b, (0, 1, 1, 0): c, (0, 1, 0, 1): d}
    while True:
        q0, q1 = ([_nonzero(rng, K) for _ in range(3)] for _ in range(2))
        # x0*q0(y) + x1*q1(y) is irreducible iff q0 and q1 have no common root
        a0, a1, a2 = q0
        b0, b1, b2 = q1
        res = (a0 * b2 - a2 * b0) ** 2 - (a0 * b1 - a1 * b0) * (a1 * b2 - a2 * b1)
        if (res if K is QQ else res % K.p) != 0:
            break
    ys = ((2, 0), (1, 1), (0, 2))
    h2 = {(1, 0) + e: c for e, c in zip(ys, q0)} | {(0, 1) + e: c for e, c in zip(ys, q1)}
    factors = [(q, 1) for q, _ in fs + gs] + [(h1, 2), (h2, 1)]
    poly = pprod(K, *[q for q, k in factors for _ in range(k)])
    f_roots = [_root_text(K, *ab) for _, ab in fs]
    g_roots = [_root_text(K, *ab) for _, ab in gs]
    record = [[terms_record(K, q), k] for q, k in factors]
    return poly, f_roots, g_roots, record


def _algebra_s1(rng, files: dict, jobs: list):
    for fname in ("QQ", "F101"):
        K = FIELDS[fname]
        poly, f_roots, g_roots, factors = _s1_form(rng, K)
        path = f"s1_{fname}.json"
        files[path] = poly_json(K, P1, poly)
        for excl_y in ([], [g_roots[rng.randrange(2)]]):
            # "=" keeps a list that starts with "-" from reading as an option
            common = ["--poly", path, "--exclude-x=" + ",".join(f_roots)]
            if excl_y:
                common += ["--exclude-y=" + ",".join(excl_y)]
            # M by construction: g roots left in Y plus deg_y(h1) + deg_y(h2)
            t = 2 - len(excl_y) + 3 + rng.randrange(2)
            expect = {
                "kind": "s1",
                "field": fname,
                "poly": path,
                "exclude_x": f_roots,
                "exclude_y": excl_y,
                "factors": factors,
            }
            jobs.append(
                {
                    "name": f"s1-classify-{fname}-y{len(excl_y)}",
                    "argv": ["s1", "classify", "--t", str(t)] + common,
                    "expect": {**expect, "action": "classify", "t": t},
                }
            )
            jobs.append(
                {
                    "name": f"s1-reduce-{fname}-y{len(excl_y)}",
                    "argv": ["s1", "reduce"] + common,
                    "expect": {**expect, "action": "reduce"},
                }
            )


def _point_text(K, i: int) -> str:
    one = K.text(K.elem(1))
    zero = K.text(K.elem(0))
    return ":".join(one if k == i else zero for k in range(3))


def _curve_pair(rng, K, small: int, singular: bool):
    """(e_on, e_off, conic, [A, B]): C passes through the coordinate point
    e_on and misses e_off; A and B pass through e_off, A singularly when
    `singular`.  Over Q the coefficients lie in [-small, small]; over
    F_{5^2} the cofactors' lie in F_5."""
    e_on, e_off = rng.sample(range(3), 2)
    conic = {}
    for e in monomials(3, 2):
        if e[e_on] == 2:
            continue
        if K is QQ:
            c = Fraction(rng.choice([k for k in range(-small, small + 1) if k])
                         if e[e_off] == 2 else rng.randint(-small, small))
        else:
            c = _nonzero(rng, K) if e[e_off] == 2 else _coeff(rng, K)
        if not K.is_zero(c):
            conic[e] = c
    cofactors = []
    for which in range(2):
        q = {}
        for e in monomials(3, 4):
            if e[e_off] == 4 or (singular and which == 0 and e[e_off] == 3):
                continue
            c = rng.randint(-small, small) if K is QQ else rng.randrange(K.p)
            if c:
                q[e] = c
        cofactors.append(q)
    return e_on, e_off, conic, cofactors


def _algebra_curves(rng, files: dict, jobs: list):
    """Plane sextics C*A and C*B sharing a conic C, with quartic cofactors.

    Over F_{5^2}, A and B have coefficients in F_5, so the oracle can work
    over F_5: gcds and local multiplicities do not change under field
    extension.  Over Q the seeded cofactors have coefficients in {-1,0,1}:
    with [-3,3] about one instance in ten makes the PRS gcd take 1-5 s
    instead of 0.1-0.3 s, which would swamp the spread between seeds.  That
    slow case is kept, as one fixed instance (`QQhard`) run every time.
    """
    cases = [("QQ", "QQ", rng, 1, True), ("F101", "F101", rng, 1, False),
             ("F25", "F25", rng, 1, True),
             ("QQhard", "QQ", random.Random("algebra:hard-gcd:3"), 3, True)]
    for name, fname, r, small, singular in cases:
        K = FIELDS[fname]
        e_on, e_off, conic, cofactors = _curve_pair(r, K, small, singular)
        forms = [pmul(K, conic, {e: K.elem(c) for e, c in q.items()}) for q in cofactors]
        paths = [f"curve_{name}_{k}.json" for k in "fg"]
        for path, form in zip(paths, forms):
            files[path] = poly_json(K, PLANE, form)
        expect = {"field": fname, "paths": paths, "conic": terms_record(K, conic),
                  "cofactors": [[[list(e), str(c)] for e, c in sorted(q.items())]
                                for q in cofactors]}
        points = ((e_on, True),) if name == "QQhard" else ((e_on, True), (e_off, False))
        for point, on_conic in points:
            jobs.append(
                {
                    "name": f"curves-imult-{name}-{'on' if on_conic else 'off'}",
                    "argv": ["curves", "imult", "--f", paths[0], "--g", paths[1],
                             "--point", _point_text(K, point)],
                    "expect": {**expect, "kind": "imult", "point": point,
                               "on_conic": on_conic},
                }
            )
        if name == "QQhard":
            continue
        jobs.append(
            {
                "name": f"curves-common-{name}",
                "argv": ["curves", "common", "--h1", paths[0], "--h2", paths[1],
                         "--u", _point_text(K, rng.randrange(3))],
                "expect": {**expect, "kind": "common", "degrees": [6, 6]},
            }
        )


def _bihom_form(rng, K, dx: int, dy: int, dense=False) -> dict:
    poly = {}
    for ex in monomials(3, dx):
        for ey in monomials(3, dy):
            c = _nonzero(rng, K, -9, 9) if dense else _coeff(rng, K)
            if dense and K is QQ and rng.randrange(4) == 0:
                c = c / rng.choice((2, 3))
            if not K.is_zero(c):
                poly[ex + ey] = c
    return poly


def _algebra_cremona(rng, files: dict, jobs: list):
    for fname in ("QQ", "F101"):
        K = FIELDS[fname]
        poly = _bihom_form(rng, K, 1, 2)
        src = f"cremona_{fname}.json"
        files[src] = hyper_json(K, poly, (1, 2))
        once = f"cremona_{fname}_once.json"
        base = {"kind": "cremona", "field": fname, "input": src}
        jobs.append(
            {
                "name": f"cremona-quadratic-{fname}",
                "argv": ["cremona", "apply", "--sigma", "quadratic", "--input", src],
                "expect": {**base, "maps": ["quadratic"]},
            }
        )
        jobs.append(
            {
                "name": f"cremona-quadratic-twice-{fname}",
                "argv": ["cremona", "apply", "--sigma", "quadratic", "--input", once],
                "input_from": {"job": len(jobs) - 1, "path": once},
                "expect": {**base, "maps": ["quadratic", "quadratic"]},
            }
        )
    coeffs = [rng.randint(-3, 3) for _ in range(3)] + [rng.choice((-2, -1, 1, 2))]
    sigma = "line:3," + ",".join(map(str, coeffs))
    jobs.append(
        {
            "name": "cremona-line3-QQ",
            "argv": ["cremona", "apply", "--sigma", sigma, "--input", "cremona_QQ.json"],
            "expect": {"kind": "cremona", "field": "QQ", "input": "cremona_QQ.json",
                       "maps": [sigma]},
        }
    )


# -- graphs workload -----------------------------------------------------------------

# (family, p, s, file): the `gridlab construct` calls whose output the graph jobs read
CONSTRUCTIONS = (
    ("1a", 53, 2, "h1a_53.json"),
    ("1c", 7, 3, "h1c_7_3.json"),
    ("1d", 7, 3, "h1d_7_3.json"),
    ("1c", 5, 4, "h1c_5_4.json"),
    ("1d", 31, 2, "h1d_31_2.json"),
)


def _open_set(rng, var: str) -> dict:
    """{var0 = 0} plus one seeded line: the complement lies in the affine
    chart, where family 1d is K_{2,2}-free."""
    vars = tuple(f"{var}{i}" for i in range(3))
    line = {(0, 1, 0): Fraction(rng.randint(1, 9)), (0, 0, 1): Fraction(rng.randint(1, 9)),
            (1, 0, 0): Fraction(rng.randint(-9, 9))}
    return {"dim": 2, "excluded": [poly_json(QQ, vars, {(1, 0, 0): Fraction(1)}),
                                   poly_json(QQ, vars, line)]}


def _graph_jobs(rng, files: dict) -> list:
    def grid(name, path, p, s, t, expect, chart="affine", extra=()):
        return {"name": name,
                "argv": ["gridcheck", "--input", path, "--p", str(p), "--s", str(s),
                         "--t", str(t), "--chart", chart, *extra],
                "expect": {"kind": "gridcheck", "input": path, "p": p, "s": s, "t": t,
                           "chart": chart, **expect}}

    def edges(name, path, p, s, t, n, m):
        return {"name": name,
                "argv": ["edges", "--input", path, "--p", str(p), "--s", str(s),
                         "--t", str(t)],
                "expect": {"kind": "edges", "s": s, "t": t, "n": n, "m": m}}

    files["ex_x.json"] = _open_set(rng, "x")
    files["ex_y.json"] = _open_set(rng, "y")
    files["q22.json"] = hyper_json(QQ, _bihom_form(rng, QQ, 2, 2, dense=True), (2, 2))
    n1c = 5**4
    return [
        grid("gridcheck-1a-53", "h1a_53.json", 53, 2, 2,
             {"theorem": "1a is K_{2,2}-free"}),
        edges("edges-1a-53", "h1a_53.json", 53, 2, 2, 2 * 53**2, 53**3 - 53),
        grid("gridcheck-1c-7-t7", "h1c_7_3.json", 7, 3, 7,
             {"theorem": "1c is K_{s,s!+1}-free"}),
        grid("gridcheck-1c-7-t3", "h1c_7_3.json", 7, 3, 3, {"witness": True}),
        grid("gridcheck-1d-7-t3", "h1d_7_3.json", 7, 3, 3,
             {"theorem": "1d is K_{s,(s-1)!+1}-free"}),
        # 1c counts p^s points x with N(x + y) = 1 for each y: (p^s - 1)/(p - 1)
        edges("edges-1c-5-4", "h1c_5_4.json", 5, 4, 25, 2 * n1c, n1c * (n1c - 1) // 4),
        grid("gridcheck-1d-31-projective", "h1d_31_2.json", 31, 2, 2,
             {"theorem": "1d is K_{s,(s-1)!+1}-free on the affine chart"}, "projective",
             ["--exclude-x", "ex_x.json", "--exclude-y", "ex_y.json"]),
        grid("gridcheck-q22-13", "q22.json", 13, 2, 4, {"brute_force": True},
             "projective"),
    ]


# -- entry points --------------------------------------------------------------------


def generate(workload: str, seed: int):
    """(files, constructions, jobs) for a workload; files maps a relative
    path to its JSON content, constructions lists the `construct` calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict = {}
    if workload == "graphs":
        return files, CONSTRUCTIONS, _graph_jobs(rng, files)
    if workload == "algebra":
        jobs: list = []
        _algebra_s1(rng, files, jobs)
        _algebra_curves(rng, files, jobs)
        _algebra_cremona(rng, files, jobs)
        return files, (), jobs
    job = {"name": "sweep", "argv": ["sweep", "--primes", SWEEP_PRIMES],
           "expect": {"kind": "sweep", "primes": [int(p) for p in SWEEP_PRIMES.split(",")]}}
    return files, (), [job]


def write_inputs(files: dict, workdir) -> None:
    for rel, content in sorted(files.items()):
        (workdir / rel).write_text(json.dumps(content, sort_keys=True) + "\n")


def construct_argv(family: str, p: int, s: int, path: str) -> list:
    return ["construct", "--family", family, "--p", str(p), "--s", str(s), "--out", path]

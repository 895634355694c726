"""Independent checks of every job's exit code and stdout.

Nothing here imports gridlab.  Graph answers are checked against closed
forms and the family theorems, witnesses by integer evaluation of the form
on the S x T points, and small graphs by brute force.  Algebra answers are
checked with sympy, against what `workloads.py` recorded when it built the
inputs.  `check` returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

TRACEBACK = "Traceback (most recent call last)"


def check(job: dict, rc, stdout: str, stderr: str, workdir: Path) -> str | None:
    if TRACEBACK in stderr:
        return "traceback on stderr"
    exp = job["expect"]
    try:
        return _CHECKS[exp["kind"]](exp, rc, stdout, Path(workdir))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def verdicts(job: dict, stdout: str) -> tuple:
    """(results with a verdict, results attempted) for one job's output; a
    sweep entry that was skipped has no verdict."""
    if job["expect"]["kind"] != "sweep":
        try:
            json.loads(stdout)
        except ValueError:
            return 0, 1
        return 1, 1
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return 0, 1
    return sum("skipped" not in r for r in results), len(results)


# -- shared helpers -----------------------------------------------------------------


def _load(workdir: Path, rel: str) -> dict:
    return json.loads((workdir / rel).read_text())


def _mod_coeff(text: str, p: int) -> int:
    c = Fraction(text)
    return c.numerator * pow(c.denominator, -1, p) % p


def _form_mod(hyper: dict, p: int) -> list:
    """The hypersurface's terms as (coefficient mod p, exponents)."""
    poly = hyper["poly"]
    return [(_mod_coeff(t["c"], p), tuple(t["e"])) for t in poly["terms"]]


def _eval_mod(terms: list, point: tuple, p: int) -> int:
    total = 0
    for c, e in terms:
        m = c
        for v, k in zip(point, e):
            if k:
                m = m * pow(v, k, p) % p
        total += m
    return total % p


def _points(p: int, s: int, chart: str) -> list:
    """Vertex order of one side: affine tails, or projective points with the
    first nonzero coordinate 1, lexicographic."""
    if chart == "affine":
        return [tuple(t) for t in product(range(p), repeat=s)]
    out = []
    for lead in range(s + 1):
        for tail in product(range(p), repeat=s - lead):
            out.append((0,) * lead + (1,) + tuple(tail))
    return out


def _full(point: tuple, chart: str) -> tuple:
    return (1,) + tuple(point) if chart == "affine" else tuple(point)


# -- graphs -------------------------------------------------------------------------


def _check_gridcheck(exp, rc, stdout, workdir):
    out = json.loads(stdout)
    p, s, t = exp["p"], exp["s"], exp["t"]
    if (out["s"], out["t"], out["p"]) != (s, t, p):
        return "echoed parameters differ"
    chart = exp["chart"]
    hyper = _load(workdir, exp["input"])
    terms = _form_mod(hyper, p)
    sx = hyper["sx"]
    if exp.get("brute_force"):
        return _brute_force_grid(out, rc, terms, p, sx, s, t)
    if out["grid_free"]:
        if "theorem" not in exp:
            return "reported grid-free, but a witness is expected"
        return None if rc == 0 and set(out) == {"grid_free", "s", "t", "p"} else "bad grid-free report"
    if "theorem" in exp:
        return f"witness reported against the theorem: {exp['theorem']}"
    if rc != 1:
        return f"witness with exit code {rc}"
    return _check_witness(out, terms, _points(p, sx, chart), p, s, t, chart)


def _check_witness(out, terms, points, p, s, t, chart):
    S, T = out["witness"]["S"], out["witness"]["T"]
    if len(set(S)) != s or len(set(T)) != t or S != sorted(S) or T != sorted(T):
        return "witness index sets have the wrong shape"
    if [list(points[i]) for i in S] != out["S_points"]:
        return "S_points do not match the S indices"
    if [list(points[j]) for j in T] != out["T_points"]:
        return "T_points do not match the T indices"
    for u in out["S_points"]:
        for v in out["T_points"]:
            if _eval_mod(terms, _full(u, chart) + _full(v, chart), p):
                return f"witness edge {u} -- {v} is not on the hypersurface"
    return None


def _brute_force_grid(out, rc, terms, p, sdim, s, t):
    """First (lexicographic) pair of left vertices with t common neighbours,
    by direct evaluation over all of P^sdim(F_p) on both sides."""
    if s != 2:
        return "brute force covers s = 2 only"
    pts = _points(p, sdim, "projective")
    nx = sdim + 1
    rows = []
    for u in pts:
        section: dict = {}
        for c, e in terms:
            m = c
            for v, k in zip(u, e[:nx]):
                if k:
                    m = m * pow(v, k, p) % p
            section[e[nx:]] = (section.get(e[nx:], 0) + m) % p
        row = 0
        for j, v in enumerate(pts):
            if _eval_mod([(c, ye) for ye, c in section.items()], v, p) == 0:
                row |= 1 << j
        rows.append(row)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            common = rows[i] & rows[j]
            if common.bit_count() >= t:
                T = [k for k in range(len(pts)) if common >> k & 1][:t]
                want = {"S": [i, j], "T": T}
                if out["grid_free"] or out["witness"] != want or rc != 1:
                    return f"expected witness {want}"
                return _check_witness(out, terms, pts, p, s, t, "projective")
    return None if out["grid_free"] and rc == 0 else "expected grid-free"


def _check_edges(exp, rc, stdout, workdir):
    out = json.loads(stdout)
    if rc != 0:
        return f"exit code {rc}"
    n, m, s, t = exp["n"], exp["m"], exp["s"], exp["t"]
    if (out["n"], out["m"], out["s"], out["t"]) != (n, m, s, t):
        return f"expected n={n} m={m}, got n={out['n']} m={out['m']}"
    n_power = n ** (2 - 1 / s)
    want = {
        "n_power": n_power,
        "furedi_leading": 0.5 * (t - s + 1) ** (1 / s) * n_power,
        "ratio": m / n_power,
    }
    for key, value in want.items():
        if abs(float(out[key]) - value) > 1e-9 * max(1.0, value):
            return f"{key} is {out[key]}, expected {value:.12f}"
    return None


def _check_sweep(exp, rc, stdout, workdir):
    out = json.loads(stdout)
    primes = exp["primes"]
    checks = ("family-1a", "family-1b", "family-1c", "family-1d", "norm-poly",
              "s1-agreement", "cremona-transport")
    got = [(r["check"], r["p"]) for r in out["results"]]
    if got != [(c, p) for p in primes for c in checks]:
        return "sweep results are not one per check and prime"
    for r in out["results"]:
        why = _sweep_entry(r)
        if why:
            return f"{r['check']} at p={r['p']}: {why}"
    if not out["all_pass"] or rc != 0:
        return "sweep did not pass"
    return None


def _sweep_entry(r: dict) -> str | None:
    p = r["p"]
    if r["pass"] is not True:
        return "did not pass"
    if "skipped" in r:
        if r["check"] != "family-1b":
            return "skipped"
        want = "sphere check" if p % 4 == 1 else "budget: "
        return None if r["skipped"].startswith(want) else "unexpected skip"
    check = r["check"]
    if check == "family-1a":
        ok = r["edges"] == r["expected_edges"] == p**3 - p and r["witness"] is None
    elif check == "family-1b":
        ok = p % 4 == 3 and r["max_common"] <= 2  # the sphere graph is K_{3,3}-free
    elif check == "family-1c":
        ok = r["degrees"] == [p + 1] and r["max_common"] <= 2
    elif check == "family-1d":
        ok = r["max_common"] <= 1
    elif check == "norm-poly":
        ok = r["mismatches"] == 0 and r["inputs"] == p * p
    elif check == "s1-agreement":
        ok = r["disagreements"] == []
    else:
        ok = r["report"]["consistent"] and r["report"]["adjacency_match"]
    return None if ok else "contradicts the family theorem"


# -- algebra (sympy) ----------------------------------------------------------------


def _sp():
    import sympy

    return sympy


def _domain(field: dict):
    sp = _sp()
    if field["kind"] == "rationals":
        return sp.QQ
    return sp.GF(field["p"])


def _poly(terms, vars, domain):
    """sympy Poly from [[exponents, coefficient text], ...]."""
    sp = _sp()
    data = {tuple(e): sp.Rational(str(Fraction(c))) for e, c in terms}
    return sp.Poly.from_dict(data, *sp.symbols(vars), domain=domain)


def _poly_json(data: dict, domain=None):
    terms = [(t["e"], t["c"]) for t in data["terms"]]
    return _poly(terms, data["vars"], domain or _domain(data["field"]))


def _proportional(a, b) -> bool:
    return not a.is_zero and (a * b.LC() - b * a.LC()).is_zero


def _group_degree(q, idx) -> int:
    return max(sum(e[i] for i in idx) for e in q.monoms())


def _coeff_value(c, p):
    return Fraction(int(c.p), int(c.q)) if p is None else int(c) % p


def _line_root(q, p, idx):
    """Normalised root (v0:v1) of a linear form a*v0 + b*v1."""
    coeffs = dict(q.terms())
    a = b = 0
    for e, c in coeffs.items():
        if e[idx[0]]:
            a = _coeff_value(c, p)
        else:
            b = _coeff_value(c, p)
    return _normalise((b, -a), p)


def _normalise(pt, p):
    """Scale a point of P^1 so its first nonzero coordinate is 1."""
    v0, v1 = pt
    if p is None:
        v0, v1 = Fraction(v0), Fraction(v1)
        return (Fraction(0), Fraction(1)) if v0 == 0 else (Fraction(1), v1 / v0)
    v0, v1 = v0 % p, v1 % p
    return (0, 1) if v0 == 0 else (1, v1 * pow(v0, -1, p) % p)


def _point_text(pt) -> str:
    return "(" + ":".join(str(c) for c in pt) + ")"


def _parse_point(text, p):
    a, b = (Fraction(x) for x in text.split(":"))
    if p is not None:
        a, b = _mod_coeff(str(a), p), _mod_coeff(str(b), p)
    return _normalise((a, b), p)


def _s1_factors(exp, workdir):
    """Distinct irreducible factors of the input form.  Over Q they come from
    sympy's factor_list.  sympy cannot factor multivariate forms over F_p,
    so there the recorded factors are used, after checking that their
    product is the input and that each is irreducible: a linear form always
    is, an (a,b) = (1,1) form iff its 2x2 matrix is invertible, a (1,2)
    form x0*q0 + x1*q1 iff the resultant of q0 and q1 is nonzero."""
    sp = _sp()
    data = _load(workdir, exp["poly"])
    dom = _domain(data["field"])
    F = _poly_json(data, dom)
    if exp["field"] == "QQ":
        return [q for q, _ in F.factor_list()[1]], None
    p = data["field"]["p"]
    prod = sp.Poly(1, *F.gens, domain=dom)
    factors = []
    for terms, mult in exp["factors"]:
        q = _poly(terms, data["vars"], dom)
        prod = prod * q**mult
        c = {tuple(e): Fraction(v) for e, v in terms}
        shape = (_group_degree(q, (0, 1)), _group_degree(q, (2, 3)))
        if shape == (1, 1):
            det = c.get((1, 0, 1, 0), 0) * c.get((0, 1, 0, 1), 0) - c.get(
                (1, 0, 0, 1), 0) * c.get((0, 1, 1, 0), 0)
            irreducible = det % p != 0
        elif shape == (1, 2):
            q0 = [c.get((1, 0, 2 - k, k), 0) for k in range(3)]
            q1 = [c.get((0, 1, 2 - k, k), 0) for k in range(3)]
            syl = sp.Matrix([q0 + [0], [0] + q0, q1 + [0], [0] + q1])
            irreducible = int(syl.det()) % p != 0
        else:
            irreducible = q.total_degree() == 1
        if not irreducible:
            return None, "recorded factor is not certified irreducible"
        factors.append(q)
    if prod != F:
        return None, "recorded factors do not multiply to the input"
    for i, a in enumerate(factors):
        if any(_proportional(a, b) for b in factors[:i]):
            return None, "recorded factors are not distinct"
    return factors, None


def _check_s1(exp, rc, stdout, workdir):
    factors, why = _s1_factors(exp, workdir)
    if why:
        return why
    p = None if exp["field"] == "QQ" else int(exp["field"][1:])
    excl_x = {_parse_point(t, p) for t in exp["exclude_x"]}
    excl_y = {_parse_point(t, p) for t in exp["exclude_y"]}
    f_meets, g_roots, closure, sum_di, kept = False, set(), 0, 0, []
    for q in factors:
        dx, dy = _group_degree(q, (0, 1)), _group_degree(q, (2, 3))
        if dx and dy:
            sum_di += dy
            kept.append(q)
        elif dx == 1:
            f_meets |= _line_root(q, p, (0, 1)) not in excl_x
        elif dx:
            f_meets |= p is None  # closure roots cannot be excluded
        elif dy == 1:
            root = _line_root(q, p, (2, 3))
            if root not in excl_y:
                g_roots.add(_point_text(root))
                kept.append(q)
        elif dy and p is None:
            closure += dy
    if exp["action"] == "reduce":
        if closure:
            return None if rc == 2 else "expected NonSplitForm and exit 2"
        out = json.loads(stdout)
        want = kept[0]
        for q in kept[1:]:
            want = want * q
        got = _poly_json(out["poly"])
        if rc != 0 or not _proportional(got, want):
            return "reduced form is not the product of the kept factors"
        bideg = [_group_degree(want, (0, 1)), _group_degree(want, (2, 3))]
        return None if out["bidegree"] == bideg else f"bidegree is not {bideg}"
    out = json.loads(stdout)
    M = len(g_roots) + closure + sum_di
    want = {"f_meets_X": f_meets, "closure_roots": closure, "m": len(g_roots) + closure,
            "sum_di": sum_di, "M": M, "t": exp["t"],
            "grid_free": not f_meets and M < exp["t"]}
    for key, value in want.items():
        if out.get(key) != value:
            return f"{key} is {out.get(key)}, expected {value}"
    if set(out["g_roots_in_Y"]) != g_roots or len(out["g_roots_in_Y"]) != len(g_roots):
        return f"g roots {out['g_roots_in_Y']}, expected {sorted(g_roots)}"
    return None if rc == 0 else f"exit code {rc}"


def _curve_data(exp, workdir, paths):
    """(A, B, domain) over the field the oracle computes in, after checking
    that the input forms are conic * A and conic * B.  F_{5^2} inputs have
    cofactors over F_5, so gcds and multiplicities are taken there (the
    product check needs F_{5^2} arithmetic and is skipped)."""
    sp = _sp()
    field = exp["field"]
    dom = {"QQ": sp.QQ, "F101": sp.GF(101), "F25": sp.GF(5)}[field]
    A, B = (_poly(q, ("y0", "y1", "y2"), dom) for q in exp["cofactors"])
    conic = None
    if field != "F25":
        conic = _poly(exp["conic"], ("y0", "y1", "y2"), dom)
        for path, q in zip(paths, (A, B)):
            if _poly_json(_load(workdir, path), dom) != conic * q:
                return None, "input form is not conic * cofactor"
    return (A, B, dom), None


def _local_multiplicity(A, B, point: int, dom) -> int:
    """Local intersection number of A and B at a coordinate point, finite
    by assumption (so at most 4 * 4 = 16), as the limit of
    d_N = dim k[a,b]/(A, B, (a,b)^N) in the point's chart.  The sequence
    rises by at least one per step until it is constant, so d_N < N means
    it has reached the limit."""
    sp = _sp()
    y = sp.symbols("y0 y1 y2")
    a, b = (y[i] for i in range(3) if i != point)
    exprs = [q.as_expr().subs(y[point], 1) for q in (A, B)]
    kw = {"modulus": dom.characteristic()} if dom.characteristic() else {}
    for cutoff in (4, 8, 17):
        gens = exprs + [a**i * b ** (cutoff - i) for i in range(cutoff + 1)]
        G = sp.groebner(gens, a, b, order="grevlex", **kw)
        leads = [sp.Poly(g, a, b).monoms(order="grevlex")[0] for g in G.exprs]
        d = sum(
            1
            for i in range(cutoff)
            for j in range(cutoff - i)
            if not any(i >= e[0] and j >= e[1] for e in leads)
        )
        if d < cutoff:
            return d
    return d


def _check_curves(exp, rc, stdout, workdir):
    sp = _sp()
    data, why = _curve_data(exp, workdir, exp["paths"])
    if why:
        return why
    A, B, dom = data
    D = sp.gcd(A, B)
    out = json.loads(stdout)
    if rc != 0:
        return f"exit code {rc}"
    if exp["kind"] == "common":
        c = 2 + D.total_degree()  # gcd(C*A, C*B) = C * gcd(A, B)
        N = 2 * comb(7, 2)
        want = {"d1": 6, "d2": 6, "M": comb(13, 2), "N": N, "rank": N - comb(c + 1, 2),
                "shares_component": True}
        return None if out == want else f"rank test {out}, expected {want}"
    point = exp["point"]
    if exp["on_conic"]:
        want = "inf"
    else:
        coords = [1 if i == point else 0 for i in range(3)]
        if D.total_degree() > 0 and D.eval(dict(zip(D.gens, coords))) == 0:
            want = "inf"
        else:
            want = _local_multiplicity(A, B, point, dom)
    return None if out["multiplicity"] == want else f"multiplicity {out['multiplicity']}, expected {want}"


def _pullback(F, sigma: str):
    """F(x, sigma(y)) with the x- and y-group contents removed."""
    sp = _sp()
    x0, x1, x2, y0, y1, y2 = F.gens
    if sigma == "quadratic":
        comps = (y1 * y2, y0 * y2, y0 * y1)
    else:
        d, *cs = (int(c) for c in sigma[len("line:"):].split(","))
        third = y0 ** (d - 1) * y2 + sum(c * y0 ** (d - k) * y1**k for k, c in enumerate(cs))
        comps = (y0**d, y0 ** (d - 1) * y1, third)
    expr = F.as_expr().subs(dict(zip((y0, y1, y2), comps)), simultaneous=True)
    G = sp.Poly(sp.expand(expr), *F.gens, domain=F.domain)
    for group in ((0, 1, 2), (3, 4, 5)):
        # the content in `group`: gcd of the coefficients of the other group
        buckets: dict = {}
        for e, c in G.terms():
            key = tuple(k for i, k in enumerate(e) if i not in group)
            inner = tuple(k if i in group else 0 for i, k in enumerate(e))
            buckets.setdefault(key, {})[inner] = c
        content = sp.Poly(0, *G.gens, domain=G.domain)
        for d in buckets.values():
            content = sp.gcd(content, sp.Poly.from_dict(d, *G.gens, domain=G.domain))
        if content.total_degree() > 0:
            G = G.exquo(content)
    return G


def _check_cremona(exp, rc, stdout, workdir):
    if rc != 0:
        return f"exit code {rc}"
    original = _poly_json(_load(workdir, exp["input"])["poly"])
    want = original
    for sigma in exp["maps"]:
        want = _pullback(want, sigma)
    out = json.loads(stdout)
    got = _poly_json(out["poly"])
    if not _proportional(got, want):
        return "pullback differs from the sympy pullback"
    if exp["maps"] == ["quadratic", "quadratic"] and not _proportional(got, original):
        return "the quadratic map applied twice is not the identity"
    bideg = [_group_degree(want, (0, 1, 2)), _group_degree(want, (3, 4, 5))]
    return None if out["bidegree"] == bideg else f"bidegree is not {bideg}"


_CHECKS = {
    "gridcheck": _check_gridcheck,
    "edges": _check_edges,
    "sweep": _check_sweep,
    "s1": _check_s1,
    "imult": _check_curves,
    "common": _check_curves,
    "cremona": _check_cremona,
}

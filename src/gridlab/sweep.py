"""The built-in multi-prime sweep (`run_sweep`): at each prime, the
constructions 1a-1d against their edge counts and common-neighborhood
bounds, `norm_poly` against the field norm, the P^1 x P^1 classifier
against its brute-force oracle, and the Cremona transport of a grid check.
Only `gridlab sweep` runs it; it sits between the modules whose answers
it checks and `cli`.
"""

from __future__ import annotations

from . import (classify_s1, cremona, extfields, fields, gridcheck, hypersurfaces, primefields,
               projective, rationals, ring)
from .errors import BudgetExceeded, GridlabError, UnsupportedParameters


def _family_graph(c):
    """The affine graph of a construction, with its candidate symmetries,
    verified on first use."""
    symmetries = hypersurfaces.family_symmetries(c.family, c.p, c.s)
    return gridcheck.build_graph(c.hypersurface, c.p, symmetries=symmetries)


def _check_1a(p: int) -> dict:
    c = hypersurfaces.construct("1a", p)
    G = _family_graph(c)
    expected = p**3 - p
    witness = gridcheck.find_grid(G, 2, 2)
    edges = G.edge_count()
    return {
        "pass": edges == expected and witness is None,
        "edges": edges,
        "expected_edges": expected,
        "witness": witness.to_json() if witness else None,
    }


def _check_1b(p: int) -> dict:
    if p % 4 == 1:
        return {"pass": True, "skipped": "sphere check restricted to p = 3 mod 4"}
    c = hypersurfaces.construct("1b", p)
    best, arg = gridcheck.max_common_neighborhood(_family_graph(c), 3)
    return {"pass": best <= 2, "max_common": best, "argmax": arg}


def _check_1c(p: int) -> dict:
    c = hypersurfaces.construct("1c", p, 2)
    G = _family_graph(c)
    degs = {G.rows[i].bit_count() for i in G.orbit_minima}
    best, _ = gridcheck.max_common_neighborhood(G, 2)
    ok = degs == {p + 1} and best <= 2
    return {"pass": ok, "degrees": sorted(degs), "max_common": best}


def _check_1d(p: int) -> dict:
    c = hypersurfaces.construct("1d", p, 2)
    G = _family_graph(c)
    best, _ = gridcheck.max_common_neighborhood(G, 2)
    return {"pass": best <= 1, "max_common": best}


def _check_norm_poly(p: int) -> dict:
    """norm_poly(p, 2), evaluated at every residue pair at once, against the
    field norm of pi_s of each pair.  The pairs are the affine chart of
    P^2(F_p), read as its x1 and x2 columns, so they are counted against
    the budget first."""
    K = fields.GF(p, 2)
    pairs = hypersurfaces.ChartPoints(p, 2, "affine").columns()[1:]
    want = gridcheck._values_mod(hypersurfaces.norm_poly(p, 2), pairs, p)
    bad = sum(extfields.norm(extfields.pi_s(K, a)).val != w for a, w in zip(zip(*pairs), want))
    return {"pass": bad == 0, "mismatches": bad, "inputs": p * p}


_S1_SWEEP_FORMS = (
    "y0*(x0*y1 - x1*y0)**2",
    "(x0*y1 - x1*y0)*(x0*y1 + x1*y0)",
    "x0*y0 + x1*y1",
    "y0*y1*(x0*y1 - x1*y0)",
    "x0*x1*(y0 - y1)",
)


def _check_s1(p: int, verdicts: list) -> dict:
    """verdicts: (text, F, s1_classify(F)) for each form of _S1_SWEEP_FORMS."""
    disagreements = []
    for text, F, verdict in verdicts:
        worst = classify_s1.s1_max_row(F, None, None, p)
        for t in range(1, 6):
            lhs = verdict.grid_free_for(t)
            rhs = worst < t
            if lhs != rhs:
                disagreements.append({"form": text, "t": t, "classifier": lhs, "oracle": rhs})
    return {"pass": not disagreements, "disagreements": disagreements}


def _check_transport(p: int, H0: projective.Hypersurface, sigma) -> dict:
    """The transport of x0*y0 + x1*y1 + x2*y2 by the standard quadratic map,
    pruned by the diagonal torus: sigma(D y) = det D * D^-1 sigma(y), so
    (D, D^-1) keeps the original form and (D, D) the pulled one, for
    D = diag(1, g, 1) and diag(1, 1, g) with g a primitive root."""

    def diag(k, a):
        """The 3 x 3 identity with a at (k, k)."""
        return tuple(tuple(a if i == j == k else int(i == j) for j in range(3)) for i in range(3))

    g = primefields.primitive_root(p)
    pairs = []
    for k in (1, 2):
        D = diag(k, g)
        pair = hypersurfaces.MatrixPair
        pairs.append((pair(D, diag(k, pow(g, -1, p))), pair(D, D)))
    rep = cremona.grid_transport_check(H0, sigma, p, 2, 2, symmetries=pairs)
    return {"pass": rep["consistent"], "report": rep}


def run_sweep(primes: list) -> dict:
    """Run the built-in checks over each prime; failures carry witnesses
    and per-check errors are recorded rather than raised.  A check that the
    enumeration budget refuses is recorded as skipped, not failed, and the
    summary counts the skipped checks apart from `all_pass`.  An empty list
    or a non-prime entry is refused (UnsupportedParameters) before any
    check runs, since a sweep of no check would claim `all_pass`.  The
    checks' prime-independent inputs, the s = 1 verdicts over Q and the
    transport's form and map, are built once per call."""
    if not primes:
        raise UnsupportedParameters("sweep needs at least one prime")
    bad = [p for p in primes if not primefields.is_prime(p)]
    if bad:
        raise UnsupportedParameters(f"sweep primes must be prime, got {bad}")
    QQ, verdicts = rationals.QQ, []
    for text in _S1_SWEEP_FORMS:
        form = ring.MultiPoly.parse(QQ, ("x0", "x1", "y0", "y1"), text)
        F = projective.Hypersurface(form, 1, 1)
        verdicts.append((text, F, classify_s1.s1_classify(F)))
    F0 = ring.MultiPoly.parse(QQ, ("x0", "x1", "x2", "y0", "y1", "y2"), "x0*y0 + x1*y1 + x2*y2")
    H0 = projective.Hypersurface(F0, 2, 2)
    sigma = cremona.standard_quadratic(QQ)
    checks = (
        ("family-1a", _check_1a),
        ("family-1b", _check_1b),
        ("family-1c", _check_1c),
        ("family-1d", _check_1d),
        ("norm-poly", _check_norm_poly),
        ("s1-agreement", lambda p: _check_s1(p, verdicts)),
        ("cremona-transport", lambda p: _check_transport(p, H0, sigma)),
    )
    results = []
    all_pass = True
    for p in primes:
        for name, fn in checks:
            try:
                res = fn(p)
            except BudgetExceeded as exc:
                res = {"pass": True, "skipped": f"budget: {exc}"}
            except GridlabError as exc:
                res = {"pass": False, "error": f"{type(exc).__name__}: {exc}"}
            res = {"check": name, "p": p, **res}
            all_pass = all_pass and res["pass"]
            results.append(res)
    return {
        "suite": "default",
        "primes": primes,
        "results": results,
        "all_pass": all_pass,
        "skipped": sum("skipped" in res for res in results),
    }

"""Command-line entry point: construction, grid checking, edge reports,
the P^1 x P^1 classifier, curve analysis, birational maps and the
multi-prime sweep harness.

Exit codes: 0 = success / grid-free, 1 = witness or failing sweep,
2 = usage or data error.  Data on stdout, diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify_s1, cremona, curves, fields, gridcheck, hypersurfaces, poly
from .errors import BudgetExceeded, DimensionMismatch, GridlabError, UnknownSuite, UnsupportedParameters


def __getattr__(name):
    # `cli.build_graph` is gridcheck's, as when cli imported the name;
    # resolved on access, so importing cli runs no gridcheck
    if name == "build_graph":
        return gridcheck.build_graph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit(obj, pretty: bool, out_path: str | None = None):
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_hypersurface(path: str) -> hypersurfaces.Hypersurface:
    return hypersurfaces.Hypersurface.from_json(_load_json(path))


def _load_section_source(path: str):
    """A hypersurface file (it has a "poly" key) or a plain polynomial file."""
    data = _load_json(path)
    if isinstance(data, dict) and "poly" in data:
        return hypersurfaces.Hypersurface.from_json(data)
    return poly.MultiPoly.from_json(data)


def _load_open_set(path: str | None, dim: int) -> hypersurfaces.OpenSet:
    if path is None:
        return hypersurfaces.OpenSet.full(dim)
    return hypersurfaces.OpenSet.from_json(_load_json(path))


def _points_open_set(spec: str | None, field, vars) -> hypersurfaces.OpenSet:
    """Comma-separated "a:b" point list -> complement open set in P^1."""
    if not spec:
        return hypersurfaces.OpenSet.full(1)
    pts = []
    for part in spec.split(","):
        pt = hypersurfaces.ProjPoint.parse(field, part)
        if len(pt.coords) != 2:
            raise DimensionMismatch(f"point {part!r} of P^1 needs 2 coordinates, not {len(pt.coords)}")
        pts.append(pt)
    return hypersurfaces.OpenSet.complement_of_points(pts, vars[:2])


# -- subcommands --------------------------------------------------------------------


def cmd_construct(args) -> int:
    c = hypersurfaces.construct(args.family, args.p, args.s)
    payload = c.hypersurface.to_json()
    payload["family"] = c.family
    payload["p"] = c.p
    payload["s"] = c.s
    payload["affine"] = c.affine.to_json()
    _emit(payload, args.pretty, args.out)
    return 0


def _input_graph(args, exclude_x=None, exclude_y=None):
    """The graph of the hypersurface file `args.input` at `args.p` on
    `args.chart`, between the open sets in the files `exclude_x` and
    `exclude_y`.  A `construct` output names its family: its symmetries are
    candidates that build_graph verifies on the form, so they speed the scan
    and the edge count up only."""
    data = _load_json(args.input)
    H = hypersurfaces.Hypersurface.from_json(data)
    X = _load_open_set(exclude_x, H.s)
    Y = _load_open_set(exclude_y, H.s)
    symmetries = hypersurfaces.family_symmetries(data.get("family"), args.p, H.s)
    return gridcheck.build_graph(H, args.p, X, Y, chart=args.chart, symmetries=symmetries)


def cmd_gridcheck(args) -> int:
    G = _input_graph(args, args.exclude_x, args.exclude_y)
    witness = gridcheck.find_grid(G, args.s, args.t)
    if witness is None:
        _emit({"grid_free": True, "s": args.s, "t": args.t, "p": args.p}, args.pretty)
        return 0
    _emit(
        {
            "grid_free": False,
            "s": args.s,
            "t": args.t,
            "p": args.p,
            "witness": witness.to_json(),
            "S_points": [list(G.left[i]) for i in witness.S],
            "T_points": [list(G.right[j]) for j in witness.T],
        },
        args.pretty,
    )
    return 1


def cmd_edges(args) -> int:
    G = _input_graph(args)
    _emit(gridcheck.edge_report(G, args.s, args.t), args.pretty)
    return 0


def cmd_s1(args) -> int:
    data = _load_json(args.poly)
    form = poly.MultiPoly.from_json(data)
    xvars, yvars = classify_s1.XVARS, classify_s1.YVARS
    F = poly.BiHomPoly(form.with_vars(classify_s1.P1_VARS), xvars, yvars)
    field = form.field
    X = _points_open_set(args.exclude_x, field, xvars)
    Y = _points_open_set(args.exclude_y, field, yvars)
    if args.action == "classify":
        verdict = classify_s1.s1_classify(F, X, Y)
        payload = verdict.to_json()
        if args.t is not None:
            payload["t"] = args.t
            payload["grid_free"] = verdict.grid_free_for(args.t)
        _emit(payload, args.pretty)
        return 0
    reduced = classify_s1.s1_reduce(F, Y)
    _emit(
        {
            "poly": reduced.poly.to_json(),
            "bidegree": list(reduced.bidegree),
        },
        args.pretty,
    )
    return 0


def cmd_curves(args) -> int:
    if args.action == "moura":
        _emit({"max": curves.moura_max(args.d1, args.d2)}, args.pretty)
        return 0
    if args.action == "imult":
        f = curves.PlaneCurve(poly.MultiPoly.from_json(_load_json(args.f)))
        g = curves.PlaneCurve(poly.MultiPoly.from_json(_load_json(args.g)))
        v = hypersurfaces.ProjPoint.parse(f.form.field, args.point)
        m = curves.intersection_multiplicity(f, g, v)
        _emit(
            {"point": args.point, "multiplicity": "inf" if m == curves.INFINITE else m},
            args.pretty,
        )
        return 0
    if args.action == "common":
        h1, h2 = (_load_section_source(path) for path in (args.h1, args.h2))
        u = hypersurfaces.ProjPoint.parse(h1.field, args.u)
        report = curves.common_component_rank_test(h1, h2, u)
        _emit(report.to_json(), args.pretty)
        return 0
    # conic: the parser accepts no other action
    c = curves.PlaneCurve(poly.MultiPoly.from_json(_load_json(args.f)))
    _emit(curves.conic_classify(c).to_json(), args.pretty)
    return 0


def _parse_sigma(spec: str, field):
    if spec == "quadratic":
        return cremona.standard_quadratic(field)
    if spec.startswith("line:"):
        parts = spec[len("line:") :].split(",")
        d = int(parts[0])
        coeffs = [field.coeff_from_str(c) for c in parts[1:]]
        return cremona.example_line_map(field, d, coeffs)
    if spec.startswith("file:"):
        return cremona.RationalMap.from_json(_load_json(spec[len("file:") :]))
    raise UnknownSuite(f"unknown map spec {spec!r}")


def cmd_cremona(args) -> int:
    if args.sigma == "nagata":
        # affine automorphism acting on a plain polynomial in x1,x2,x3
        form = poly.MultiPoly.from_json(_load_json(args.input))
        na = cremona.nagata(form.field)
        moved = form.with_vars(na.vars)
        _emit(na.apply_poly(moved).to_json(), args.pretty)
        return 0
    H = _load_hypersurface(args.input)
    sigma = _parse_sigma(args.sigma, H.field)
    H2 = cremona.apply_map(sigma, H)
    _emit(H2.to_json(), args.pretty)
    return 0


# -- sweep harness ------------------------------------------------------------------


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
    bad = sum(fields.norm(fields.pi_s(K, a)).val != w for a, w in zip(zip(*pairs), want))
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


def _check_transport(p: int, H0: hypersurfaces.Hypersurface, sigma) -> dict:
    """The transport of x0*y0 + x1*y1 + x2*y2 by the standard quadratic map,
    pruned by the diagonal torus: sigma(D y) = det D * D^-1 sigma(y), so
    (D, D^-1) keeps the original form and (D, D) the pulled one, for
    D = diag(1, g, 1) and diag(1, 1, g) with g a primitive root."""

    def diag(k, a):
        """The 3 x 3 identity with a at (k, k)."""
        return tuple(tuple(a if i == j == k else int(i == j) for j in range(3)) for i in range(3))

    g = fields.primitive_root(p)
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
    bad = [p for p in primes if not fields.is_prime(p)]
    if bad:
        raise UnsupportedParameters(f"sweep primes must be prime, got {bad}")
    QQ, verdicts = fields.QQ, []
    for text in _S1_SWEEP_FORMS:
        form = poly.MultiPoly.parse(QQ, classify_s1.P1_VARS, text)
        F = poly.BiHomPoly(form, classify_s1.XVARS, classify_s1.YVARS)
        verdicts.append((text, F, classify_s1.s1_classify(F)))
    vars = ("x0", "x1", "x2", "y0", "y1", "y2")
    F0 = poly.MultiPoly.parse(QQ, vars, "x0*y0 + x1*y1 + x2*y2")
    H0 = hypersurfaces.Hypersurface(poly.BiHomPoly(F0, vars[:3], vars[3:]))
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


def cmd_sweep(args) -> int:
    try:
        primes = [int(x) for x in args.primes.split(",")]
    except ValueError:
        raise UnsupportedParameters(
            f"--primes takes comma-separated integers, got {args.primes!r}"
        ) from None
    report = run_sweep(primes)
    _emit(report, args.pretty)
    return 0 if report["all_pass"] else 1


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gridlab")
    ap.add_argument("--pretty", action="store_true", help="indented JSON output")
    # the copy every subcommand (and curves action) accepts after its
    # name; SUPPRESS keeps it from resetting a value given before it
    late = argparse.ArgumentParser(add_help=False)
    late.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS, help="indented JSON output"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[late])

    c = add_parser("construct")
    c.add_argument("--family", required=True, choices=["1a", "1b", "1c", "1d"])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--s", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_construct)

    g = add_parser("gridcheck")
    g.add_argument("--input", required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--chart", choices=["affine", "projective"], default="affine")
    g.add_argument("--exclude-x", default=None)
    g.add_argument("--exclude-y", default=None)
    g.set_defaults(fn=cmd_gridcheck)

    e = add_parser("edges")
    e.add_argument("--input", required=True)
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--s", type=int, required=True)
    e.add_argument("--t", type=int, required=True)
    e.add_argument("--chart", choices=["affine", "projective"], default="affine")
    e.set_defaults(fn=cmd_edges)

    s1 = add_parser("s1")
    s1.add_argument("action", choices=["classify", "reduce"])
    s1.add_argument("--poly", required=True)
    s1.add_argument("--t", type=int, default=None)
    s1.add_argument("--exclude-x", default=None, help='points "a:b,c:d"')
    s1.add_argument("--exclude-y", default=None)
    s1.set_defaults(fn=cmd_s1)

    cv = add_parser("curves")
    cv.set_defaults(fn=cmd_curves)
    actions = cv.add_subparsers(dest="action", required=True)
    for action, flags, kind in (
        ("imult", ("--f", "--g", "--point"), str),
        ("common", ("--h1", "--h2", "--u"), str),
        ("moura", ("--d1", "--d2"), int),
        ("conic", ("--f",), str),
    ):
        a = actions.add_parser(action, parents=[late])
        for flag in flags:
            a.add_argument(flag, required=True, type=kind)

    cr = add_parser("cremona")
    cr.add_argument("action", choices=["apply"])
    cr.add_argument("--sigma", required=True)
    cr.add_argument("--input", required=True)
    cr.set_defaults(fn=cmd_cremona)

    sw = add_parser("sweep")
    sw.add_argument("--primes", default="5,7,11,13")
    sw.set_defaults(fn=cmd_sweep)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except GridlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

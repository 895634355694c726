"""Command-line entry point: construction, grid checking, edge reports,
the P^1 x P^1 classifier, curve analysis, birational maps and the
multi-prime sweep (`gridlab.sweep`).  A command compiles and runs only the
modules it calls: `construct`, `gridcheck` and `edges` run no gcd
(`gridlab.poly`) and no sweep; `s1`, `curves` and `cremona apply` run no
graph code, no chart enumeration or construction (`gridlab.hypersurfaces`)
and, over Q or F_p, no extension field (`gridlab.extfields`); a command
over a finite field runs no rational arithmetic (`gridlab.rationals`).  A
process builds the argument parser of its own command only
(`build_parser`).

Exit codes: 0 = success / grid-free, 1 = witness or failing sweep,
2 = usage or data error.  Data on stdout, diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify_s1, cremona, curves, gridcheck, hypersurfaces, projective, ring, sweep
from .errors import (
    DimensionMismatch,
    FileAccessError,
    GridlabError,
    MalformedExpression,
    MalformedJSON,
    ParameterOutOfRange,
    UnknownSuite,
    UnsupportedParameters,
)


def __getattr__(name):
    # `cli.build_graph` is gridcheck's, as when cli imported the name;
    # resolved on access, so importing cli runs no gridcheck
    if name == "build_graph":
        return gridcheck.build_graph
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _emit(obj, pretty: bool, out_path: str | None = None):
    text = json.dumps(obj, indent=2 if pretty else None, sort_keys=False)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise FileAccessError(f"cannot write {out_path!r}: {exc.strerror or exc}") from None
    try:
        print(text)
    except OSError as exc:  # a closed pipe, say
        raise FileAccessError(f"cannot write to stdout: {exc.strerror or exc}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    try:
        return json.loads(data)
    except ValueError as exc:  # not UTF-8, -16 or -32 text, or not JSON
        raise MalformedJSON(f"{path!r} is not JSON: {exc}") from None


def _load_hypersurface(path: str) -> projective.Hypersurface:
    return projective.Hypersurface.from_json(_load_json(path))


def _load_section_source(path: str):
    """A hypersurface file (it has a "poly" key) or a plain polynomial file."""
    data = _load_json(path)
    if isinstance(data, dict) and "poly" in data:
        return projective.Hypersurface.from_json(data)
    return ring.MultiPoly.from_json(data)


def _load_open_set(path: str | None, dim: int) -> projective.OpenSet:
    if path is None:
        return projective.OpenSet.full(dim)
    return projective.OpenSet.from_json(_load_json(path))


def _points_open_set(spec: str | None, field, vars) -> projective.OpenSet:
    """Comma-separated "a:b" point list -> complement open set in P^1."""
    if not spec:
        return projective.OpenSet.full(1)
    pts = []
    for part in spec.split(","):
        pt = projective.ProjPoint.parse(field, part)
        if len(pt.coords) != 2:
            raise DimensionMismatch(f"point {part!r} of P^1 needs 2 coordinates, not {len(pt.coords)}")
        pts.append(pt)
    return projective.OpenSet.complement_of_points(pts, vars[:2])


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
    H = projective.Hypersurface.from_json(data)
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
    if args.t is not None and args.t < 1:
        raise ParameterOutOfRange(f"t={args.t}: must be at least 1")
    data = _load_json(args.poly)
    form = ring.MultiPoly.from_json(data)
    xvars, yvars = classify_s1.XVARS, classify_s1.YVARS
    F = ring.BiHomPoly(form.with_vars(classify_s1.P1_VARS), xvars, yvars)
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
        f = curves.PlaneCurve(ring.MultiPoly.from_json(_load_json(args.f)))
        g = curves.PlaneCurve(ring.MultiPoly.from_json(_load_json(args.g)))
        v = projective.ProjPoint.parse(f.form.field, args.point)
        m = curves.intersection_multiplicity(f, g, v)
        _emit(
            {"point": args.point, "multiplicity": "inf" if m == curves.INFINITE else m},
            args.pretty,
        )
        return 0
    if args.action == "common":
        h1, h2 = (_load_section_source(path) for path in (args.h1, args.h2))
        u = projective.ProjPoint.parse(h1.field, args.u)
        report = curves.common_component_rank_test(h1, h2, u)
        _emit(report.to_json(), args.pretty)
        return 0
    # conic: the parser accepts no other action
    c = curves.PlaneCurve(ring.MultiPoly.from_json(_load_json(args.f)))
    _emit(curves.conic_classify(c).to_json(), args.pretty)
    return 0


def _parse_sigma(spec: str, field):
    if spec == "quadratic":
        return cremona.standard_quadratic(field)
    if spec.startswith("line:"):
        parts = spec[len("line:") :].split(",")
        try:
            d = int(parts[0])
        except ValueError:
            raise MalformedExpression(
                f"--sigma line: needs an integer degree first, got {parts[0]!r}"
            ) from None
        coeffs = [field.coeff_from_str(c) for c in parts[1:]]
        return cremona.example_line_map(field, d, coeffs)
    if spec.startswith("file:"):
        return cremona.RationalMap.from_json(_load_json(spec[len("file:") :]))
    raise UnknownSuite(f"unknown map spec {spec!r}")


def cmd_cremona(args) -> int:
    if args.sigma == "nagata":
        # affine automorphism acting on a plain polynomial in x1,x2,x3
        form = ring.MultiPoly.from_json(_load_json(args.input))
        na = cremona.nagata(form.field)
        moved = form.with_vars(na.vars)
        _emit(na.apply_poly(moved).to_json(), args.pretty)
        return 0
    H = _load_hypersurface(args.input)
    sigma = _parse_sigma(args.sigma, H.field)
    H2 = cremona.apply_map(sigma, H)
    _emit(H2.to_json(), args.pretty)
    return 0


def cmd_sweep(args) -> int:
    try:
        primes = [int(x) for x in args.primes.split(",")]
    except ValueError:
        raise UnsupportedParameters(
            f"--primes takes comma-separated integers, got {args.primes!r}"
        ) from None
    report = sweep.run_sweep(primes)
    _emit(report, args.pretty)
    return 0 if report["all_pass"] else 1


# -- argument parsing ---------------------------------------------------------------


def _construct_args(c, late):
    c.add_argument("--family", required=True, choices=["1a", "1b", "1c", "1d"])
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--s", type=int, default=None)
    c.add_argument("--out", default=None)


def _graph_args(g, late):
    g.add_argument("--input", required=True)
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--s", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--chart", choices=["affine", "projective"], default="affine")


def _gridcheck_args(g, late):
    _graph_args(g, late)
    g.add_argument("--exclude-x", default=None)
    g.add_argument("--exclude-y", default=None)


def _s1_args(s1, late):
    s1.add_argument("action", choices=["classify", "reduce"])
    s1.add_argument("--poly", required=True)
    s1.add_argument("--t", type=int, default=None)
    s1.add_argument("--exclude-x", default=None, help='points "a:b,c:d"')
    s1.add_argument("--exclude-y", default=None)


def _curves_args(cv, late):
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


def _cremona_args(cr, late):
    cr.add_argument("action", choices=["apply"])
    cr.add_argument("--sigma", required=True)
    cr.add_argument("--input", required=True)


def _sweep_args(sw, late):
    sw.add_argument("--primes", default="5,7,11,13")


# each command's entry point and the function that adds its arguments, in
# the order that usage and help list the commands
COMMANDS = {
    "construct": (cmd_construct, _construct_args),
    "gridcheck": (cmd_gridcheck, _gridcheck_args),
    "edges": (cmd_edges, _graph_args),
    "s1": (cmd_s1, _s1_args),
    "curves": (cmd_curves, _curves_args),
    "cremona": (cmd_cremona, _cremona_args),
    "sweep": (cmd_sweep, _sweep_args),
}


def build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser of `gridlab argv`.  When the first argument other than
    `--pretty` names a command, it holds that command's parser alone, and
    lists every command in its usage as the full parser does; otherwise
    (no command, an unknown one, `-h`) it holds all of them.  Either way
    help, usage errors and exit codes are the full parser's."""
    ap = argparse.ArgumentParser(prog="gridlab")
    ap.add_argument("--pretty", action="store_true", help="indented JSON output")
    # the copy every subcommand (and curves action) accepts after its
    # name; SUPPRESS keeps it from resetting a value given before it
    late = argparse.ArgumentParser(add_help=False)
    late.add_argument(
        "--pretty", action="store_true", default=argparse.SUPPRESS, help="indented JSON output"
    )
    command = next((arg for arg in argv if arg != "--pretty"), None)
    names = [command] if command in COMMANDS else list(COMMANDS)
    # one subparser alone would list only its own name in the usage that
    # an "unrecognized arguments" error prints
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        fn, add_arguments = COMMANDS[name]
        parser = sub.add_parser(name, parents=[late])
        add_arguments(parser, late)
        parser.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except GridlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

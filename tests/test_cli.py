import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlab import cli, hypersurfaces, sweep
from gridlab.cli import main
from gridlab.sweep import run_sweep
from gridlab.errors import BudgetExceeded, UnsupportedParameters
from gridlab.extfields import pi_s
from gridlab.fields import GF
from gridlab.hypersurfaces import norm_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def h1a(tmp_path, capsys):
    path = tmp_path / "h.json"
    code, _ = run(capsys, "construct", "--family", "1a", "--p", "5", "--out", str(path))
    assert code == 0
    return str(path)


def test_construct_output(capsys, tmp_path):
    code, data = run_json(capsys, "construct", "--family", "1a", "--p", "3")
    assert code == 0
    assert data["family"] == "1a"
    assert data["sx"] == 2 and data["sy"] == 2
    assert data["bidegree"] == [1, 1]
    assert data["poly"]["field"] == {"kind": "prime", "p": 3}


def test_gridcheck_grid_free(capsys, h1a):
    code, data = run_json(
        capsys, "gridcheck", "--input", h1a, "--p", "5", "--s", "2", "--t", "2"
    )
    assert code == 0
    assert data["grid_free"] is True


@pytest.mark.parametrize("side", ["--exclude-x", "--exclude-y"])
@pytest.mark.parametrize("chart", ["affine", "projective"])
@pytest.mark.parametrize("nvars", [2, 4])
def test_gridcheck_open_set_with_wrong_variable_count_exit_2(
    capsys, tmp_path, h1a, side, chart, nvars
):
    # family 1a has s = 2: its points have 3 coordinates
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    vars = tuple(f"z{i}" for i in range(nvars))
    form = MultiPoly.parse(QQ, vars, " + ".join(vars))
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"dim": 2, "excluded": [form.to_json()]}))
    argv = ["gridcheck", "--input", h1a, "--p", "5", "--s", "2", "--t", "2"]
    assert run(capsys, *argv, "--chart", chart, side, str(path)) == (2, "")


def test_gridcheck_witness_exit_1(capsys, tmp_path):
    # a rank-2 bilinear form on P^2 x P^2 has (2,2)-grids
    from gridlab.fields import QQ
    from gridlab.ring import BiHomPoly, MultiPoly
    from gridlab.projective import Hypersurface

    vars = ("x0", "x1", "x2", "y0", "y1", "y2")
    H = Hypersurface(
        BiHomPoly(MultiPoly.parse(QQ, vars, "x0*y0 + x1*y1"), vars[:3], vars[3:])
    )
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(H.to_json()))
    code, data = run_json(
        capsys, "gridcheck", "--input", str(path), "--p", "5", "--s", "2", "--t", "2"
    )
    assert code == 1
    assert data["grid_free"] is False
    assert len(data["witness"]["S"]) == 2
    assert len(data["witness"]["T"]) == 2


@pytest.mark.parametrize("s,t", [(0, 2), (-1, 2), (2, 0), (2, -3)])
def test_edges_parameters_below_one_exit_2(capsys, h1a, s, t):
    code = main(["edges", "--input", h1a, "--p", "5", "--s", str(s), "--t", str(t)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ParameterOutOfRange:")


@pytest.mark.parametrize("s,t", [(99, 2), (4, 2)])
def test_edges_negative_leading_base_exit_2(capsys, h1a, s, t):
    # t - s + 1 < 0 has no real s-th root in the Füredi term: refused up
    # front, with a message that names (s, t)
    code = main(["edges", "--input", h1a, "--p", "5", "--s", str(s), "--t", str(t)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: ParameterOutOfRange: (s,t)=({s},{t}): the leading term needs t >= s - 1\n"
    )


def test_edges_zero_leading_base(capsys, h1a):
    # t = s - 1 is still reported, with a leading term of 0
    code, data = run_json(capsys, "edges", "--input", h1a, "--p", "5", "--s", "3", "--t", "2")
    assert code == 0
    assert data["furedi_leading"] == "0.000000000000"
    assert data["m"] == 120


def test_edges_report(capsys, h1a):
    code, data = run_json(
        capsys, "edges", "--input", h1a, "--p", "5", "--s", "2", "--t", "2"
    )
    assert code == 0
    assert data["m"] == 120
    assert data["n"] == 50


def test_curves_moura_golden(capsys):
    code, out = run(capsys, "curves", "moura", "--d1", "3", "--d2", "2")
    assert code == 0
    assert out == '{"max": 5}\n'


def test_curves_imult(capsys, tmp_path):
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    Y3 = ("y0", "y1", "y2")
    conic = tmp_path / "conic.json"
    line = tmp_path / "line.json"
    conic.write_text(json.dumps(MultiPoly.parse(QQ, Y3, "y1**2 - y0*y2").to_json()))
    line.write_text(json.dumps(MultiPoly.parse(QQ, Y3, "y2").to_json()))
    code, data = run_json(
        capsys,
        "curves", "imult", "--f", str(conic), "--g", str(line), "--point", "1:0:0",
    )
    assert code == 0
    assert data["multiplicity"] == 2


def test_curves_common(capsys, tmp_path):
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    Y3 = ("y0", "y1", "y2")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(
        json.dumps(MultiPoly.parse(QQ, Y3, "(y0 + y1)*(y1 - y2)").to_json())
    )
    b.write_text(
        json.dumps(MultiPoly.parse(QQ, Y3, "(y0 + y1)*(y0 + 2*y2)").to_json())
    )
    code, data = run_json(
        capsys, "curves", "common", "--h1", str(a), "--h2", str(b), "--u", "1:0:0"
    )
    assert code == 0
    assert data["shares_component"] is True
    assert data["M"] == 10 and data["N"] == 6


def test_curves_common_on_hypersurfaces(capsys, tmp_path):
    from gridlab.fields import QQ
    from gridlab.ring import BiHomPoly, MultiPoly
    from gridlab.projective import Hypersurface

    vars = ("x0", "x1", "x2", "y0", "y1", "y2")
    paths = []
    for name, expr in (("a", "x0*y0 + x1*y1 + x2*y2"), ("b", "x0*y0*y1 + x1*y2**2")):
        H = Hypersurface(BiHomPoly(MultiPoly.parse(QQ, vars, expr), vars[:3], vars[3:]))
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(H.to_json()))
    # at u = (1:0:0) the sections are y0 and y0*y1
    code, data = run_json(
        capsys, "curves", "common", "--h1", str(paths[0]), "--h2", str(paths[1]),
        "--u", "1:0:0",
    )
    assert code == 0
    assert data["shares_component"] is True
    assert (data["d1"], data["d2"]) == (1, 2)


@pytest.mark.parametrize("vars", [("y0", "y1"), ("y0", "y1", "y2", "y3")])
@pytest.mark.parametrize("action", ["conic", "imult", "common"])
def test_curves_off_the_plane_exit_2(capsys, tmp_path, action, vars):
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    f = tmp_path / "f.json"
    f.write_text(json.dumps(MultiPoly.parse(QQ, vars, "y0*y1").to_json()))
    flags = {
        "conic": ["--f", str(f)],
        "imult": ["--f", str(f), "--g", str(f), "--point", "1:0:0"],
        "common": ["--h1", str(f), "--h2", str(f), "--u", "1:0:0"],
    }[action]
    assert main(["curves", action, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: WrongDimension: ") and "Traceback" not in err


CURVES_FLAGS = {
    "imult": {"--f": "f.json", "--g": "g.json", "--point": "1:0:0"},
    "common": {"--h1": "a.json", "--h2": "b.json", "--u": "1:0:0"},
    "moura": {"--d1": "3", "--d2": "2"},
    "conic": {"--f": "f.json"},
}


@pytest.mark.parametrize("action", CURVES_FLAGS)
def test_curves_missing_flag_is_usage_error(capsys, action):
    flags = CURVES_FLAGS[action]
    for missing in flags:
        argv = ["curves", action]
        for flag, value in flags.items():
            if flag != missing:
                argv += [flag, value]
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert f"required: {missing}" in err


def test_s1_classify_and_reduce(capsys, tmp_path):
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    V4 = ("x0", "x1", "y0", "y1")
    f = tmp_path / "F.json"
    f.write_text(
        json.dumps(MultiPoly.parse(QQ, V4, "y0*(x0*y1 - x1*y0)**2").to_json())
    )
    code, data = run_json(capsys, "s1", "classify", "--poly", str(f), "--t", "3")
    assert code == 0
    assert data["M"] == 2 and data["grid_free"] is True

    code, data = run_json(capsys, "s1", "reduce", "--poly", str(f))
    assert code == 0
    assert data["bidegree"] == [1, 2]

    code, data = run_json(
        capsys, "s1", "classify", "--poly", str(f), "--t", "2", "--exclude-y", "0:1"
    )
    assert code == 0
    assert data["M"] == 1 and data["grid_free"] is True


def test_cremona_apply_golden(capsys, h1a, tmp_path):
    from gridlab.fields import QQ
    from gridlab.ring import BiHomPoly, MultiPoly
    from gridlab.projective import Hypersurface

    vars = ("x0", "x1", "x2", "y0", "y1", "y2")
    H0 = Hypersurface(
        BiHomPoly(
            MultiPoly.parse(QQ, vars, "x0*y0 + x1*y1 + x2*y2"), vars[:3], vars[3:]
        )
    )
    path = tmp_path / "h0.json"
    path.write_text(json.dumps(H0.to_json()))
    code, data = run_json(
        capsys, "cremona", "apply", "--sigma", "quadratic", "--input", str(path)
    )
    assert code == 0
    got = Hypersurface.from_json(data)
    expected = MultiPoly.parse(
        QQ, vars, "x0*y1*y2 + x1*y0*y2 + x2*y0*y1"
    ).monic()
    assert got.form.poly == expected
    assert data["bidegree"] == [1, 2]


def test_cremona_nagata(capsys, tmp_path):
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    vars = ("x1", "x2", "x3")
    delta = tmp_path / "delta.json"
    delta.write_text(
        json.dumps(MultiPoly.parse(QQ, vars, "x1**2 - x2*x3").to_json())
    )
    code, data = run_json(
        capsys, "cremona", "apply", "--sigma", "nagata", "--input", str(delta)
    )
    assert code == 0
    got = MultiPoly.from_json(data)
    assert got == MultiPoly.parse(QQ, tuple(got.vars), "x1**2 - x2*x3")


def test_sweep_empty_primes(capsys):
    # a sweep of no check used to exit 0 with "all_pass": true
    assert run(capsys, "sweep", "--primes", "") == (2, "")
    with pytest.raises(UnsupportedParameters, match="at least one prime"):
        run_sweep([])


@pytest.mark.parametrize(
    "argv",
    [
        ["--pretty", "construct", "--family", "1a", "--p", "3"],
        ["construct", "--family", "1a", "--p", "3", "--pretty"],
        ["--pretty", "curves", "moura", "--d1", "3", "--d2", "2"],
        ["curves", "--pretty", "moura", "--d1", "3", "--d2", "2"],
        ["curves", "moura", "--d1", "3", "--d2", "2", "--pretty"],
    ],
)
def test_pretty_before_or_after_subcommand(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "5", "sweep", "--primes", ""],
        ["sweep", "--primes", "", "--seed", "6"],
    ],
)
def test_seed_is_a_usage_error(capsys, argv):
    # --seed had no effect and is gone, with the sweep's "seed" key
    assert run(capsys, *argv) == (2, "")
    code, data = run_json(capsys, "sweep", "--primes", "5")
    assert code == 0
    assert "seed" not in data


def test_sweep_records_bad_characteristic():
    report = run_sweep([2])
    by_name = {r["check"]: r for r in report["results"]}
    assert "BadCharacteristic" in by_name["family-1b"].get("error", "")
    assert not report["all_pass"]


@pytest.mark.parametrize("primes", ["0", "1", "4", "-5", "5,9"])
def test_sweep_refuses_non_prime_exit_2(capsys, primes):
    # a non-prime is a usage error, refused before any check runs; exit 1
    # would claim a failing sweep
    code, out = run(capsys, "sweep", "--primes", primes)
    assert (code, out) == (2, "")
    with pytest.raises(UnsupportedParameters):
        run_sweep([int(x) for x in primes.split(",")])


@pytest.mark.parametrize("primes", ["", ",", "5,,7", "5,", "5,x", "5.0"])
def test_sweep_primes_parse_strictly(capsys, primes):
    # an empty or non-integer entry escaped as an untyped ValueError
    assert main(["sweep", "--primes", primes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: UnsupportedParameters: ")


def test_sweep_unknown_suite_exit_2(capsys):
    code, _ = run(capsys, "sweep", "--suite", "nope", "--primes", "5")
    assert code == 2


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(
        capsys, "gridcheck", "--input", str(bad), "--p", "5", "--s", "2", "--t", "2"
    )
    assert code == 2


def _gridcheck_file(capsys, path):
    code = main(["gridcheck", "--input", str(path), "--p", "5", "--s", "2", "--t", "2"])
    return code, capsys.readouterr().err


def test_terms_not_a_list_exit_2(capsys, h1a, tmp_path):
    data = json.loads(open(h1a).read())
    data["poly"]["terms"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, err = _gridcheck_file(capsys, bad)
    assert code == 2
    assert err.startswith("error: MalformedJSON:")


def test_top_level_list_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, err = _gridcheck_file(capsys, bad)
    assert code == 2
    assert err.startswith("error: MalformedJSON:")
    for argv in (
        ["curves", "common", "--h1", str(bad), "--h2", str(bad), "--u", "1:0:0"],
        ["s1", "classify", "--poly", str(bad)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: MalformedJSON:")


def _with_coefficient(data: dict, literal: str) -> dict:
    """`data`, polynomial or hypersurface JSON, with its first coefficient
    written `literal`."""
    poly = data.get("poly", data)
    poly["terms"][0]["c"] = literal
    return data


@pytest.mark.parametrize("literal", ["1/0", "x", "", "1/"])
def test_bad_coefficient_exit_2(capsys, tmp_path, literal):
    # a coefficient that is no field element is a typed error, not a
    # traceback: exit 1 would read as "witness found"
    from gridlab.fields import QQ
    from gridlab.projective import Hypersurface
    from gridlab.ring import BiHomPoly, MultiPoly

    V4 = ("x0", "x1", "y0", "y1")
    form = MultiPoly.parse(QQ, V4, "x0*y1 - x1*y0")
    s1 = tmp_path / "F.json"
    s1.write_text(json.dumps(_with_coefficient(form.to_json(), literal)))
    H = Hypersurface(BiHomPoly(form, V4[:2], V4[2:]))
    h = tmp_path / "H.json"
    h.write_text(json.dumps(_with_coefficient(H.to_json(), literal)))
    for argv in (
        ["s1", "classify", "--poly", str(s1)],
        ["gridcheck", "--input", str(h), "--p", "5", "--s", "1", "--t", "2"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: MalformedExpression: ")


@pytest.mark.parametrize("field", ["prime", "extension"])
def test_bad_finite_field_coefficient_exit_2(capsys, h1a, tmp_path, field):
    data = json.loads(open(h1a).read())
    if field == "extension":
        data["poly"]["field"] = {"kind": "extension", "p": 5, "s": 2, "modulus": [2, 0, 1]}
        for t in data["poly"]["terms"]:
            t["c"] = t["c"] + ",0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_coefficient(data, "1/0" if field == "prime" else "1,x")))
    code, err = _gridcheck_file(capsys, bad)
    assert code == 2
    assert err.startswith("error: MalformedExpression: ")


@pytest.mark.parametrize(
    "flag,points,error",
    [
        ("--exclude-x", "1:x", "MalformedExpression"),
        ("--exclude-y", "1:", "MalformedExpression"),
        ("--exclude-x", "1/0:1", "MalformedExpression"),
        ("--exclude-x", "1:2:3", "DimensionMismatch"),
        ("--exclude-y", "0:1,4", "DimensionMismatch"),
    ],
)
def test_s1_bad_point_list_exit_2(capsys, tmp_path, flag, points, error):
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    V4 = ("x0", "x1", "y0", "y1")
    f = tmp_path / "F.json"
    f.write_text(json.dumps(MultiPoly.parse(QQ, V4, "x0*y1 - x1*y0").to_json()))
    assert main(["s1", "classify", "--poly", str(f), flag, points]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {error}: ")
    if error == "DimensionMismatch":
        assert "needs 2 coordinates" in err


def test_repeated_variable_names_exit_2(capsys, tmp_path):
    # x0 y1 - x0' y1 + x0' y0 with both x-columns named x0: merging the
    # columns kept one of the colliding terms, and `s1 reduce` printed
    # y1 - y0 with exit 0
    data = {"field": {"kind": "rationals"}, "vars": ["x0", "x0", "y0", "y1"],
            "terms": [{"e": [1, 0, 0, 1], "c": "1"}, {"e": [0, 1, 0, 1], "c": "-1"},
                      {"e": [0, 1, 1, 0], "c": "1"}]}
    f = tmp_path / "F.json"
    f.write_text(json.dumps(data))
    for action in ("reduce", "classify"):
        assert main(["s1", action, "--poly", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: MalformedJSON: poly.vars names x0 more than once\n"


def test_repeated_exponent_exit_2(capsys, tmp_path):
    # two terms x0*y1: the second replaced the first, and `s1 reduce`
    # printed x0*y1 - x1*y0 with exit 0
    data = {"field": {"kind": "rationals"}, "vars": ["x0", "x1", "y0", "y1"],
            "terms": [{"e": [1, 0, 0, 1], "c": "1"}, {"e": [1, 0, 0, 1], "c": "1"},
                      {"e": [0, 1, 1, 0], "c": "-1"}]}
    f = tmp_path / "F.json"
    f.write_text(json.dumps(data))
    assert main(["s1", "reduce", "--poly", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: MalformedJSON: poly.terms exponent [1, 0, 0, 1] appears more than once\n"


@pytest.mark.parametrize("spec", ["line:", "line:x,1"])
def test_cremona_line_degree_not_an_integer_exit_2(capsys, h1a, tmp_path, spec):
    degree = spec[len("line:"):].split(",")[0]
    assert main(["cremona", "apply", "--sigma", spec, "--input", h1a]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: MalformedExpression: --sigma line: needs an integer degree first,"
                   f" got {degree!r}\n")


@pytest.mark.parametrize("command", ["gridcheck", "edges"])
@pytest.mark.parametrize("chart", ["affine", "projective"])
@pytest.mark.parametrize("p", [-5, 0, 1, 4])
def test_graph_commands_refuse_a_p_that_is_not_prime(capsys, tmp_path, command, chart, p):
    # on P^3, -5 failed in counting the chart with a built-in ValueError,
    # and 0 on the affine chart with EmptySide
    for family in ("1a", "1b"):
        path = tmp_path / f"{family}.json"
        assert main(["construct", "--family", family, "--p", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = [command, "--input", str(path), "--p", str(p), "--s", "1", "--t", "1", "--chart", chart]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: UnsupportedParameters: {p} is not prime\n"


@pytest.mark.parametrize("t", [0, -3])
def test_s1_classify_t_below_one_exit_2(capsys, tmp_path, t):
    # as gridcheck refuses t < 1; the verdict read "grid_free": false
    from gridlab.fields import QQ
    from gridlab.ring import MultiPoly

    f = tmp_path / "F.json"
    form = MultiPoly.parse(QQ, ("x0", "x1", "y0", "y1"), "x0*y1 - x1*y0")
    f.write_text(json.dumps(form.to_json()))
    assert main(["s1", "classify", "--poly", str(f), "--t", str(t)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ParameterOutOfRange: ")
    assert main(["s1", "classify", "--poly", str(f), "--t", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["t"] == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "e", "c", "kind"]), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mangled_hypersurface_never_crashes(data):
    # one subtree of a valid file replaced by arbitrary JSON: the CLI
    # answers (exit 0 or 1) or refuses with exit 2 and an error line
    doc = {
        "poly": {
            "field": {"kind": "prime", "p": 5},
            "vars": ["x0", "x1", "y0", "y1"],
            "terms": [{"e": [1, 0, 0, 1], "c": "1"}, {"e": [0, 1, 1, 0], "c": "4"}],
        },
        "sx": 1,
        "sy": 1,
        "bidegree": [1, 1],
    }
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_JSON)
    if path:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc = value
    fd, name = tempfile.mkstemp(suffix=".json")
    err = io.StringIO()
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        argv = ["gridcheck", "--input", name, "--p", "5", "--s", "1", "--t", "2"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.unlink(name)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")


def test_usage_error_exit_2(capsys):
    assert main(["gridcheck"]) == 2
    assert main(["construct", "--family", "9z", "--p", "5"]) == 2


# -- one parser per command -----------------------------------------------------------

GRIDCHECK = ["gridcheck", "--input", "h.json", "--p", "5", "--s", "2", "--t", "2"]
MOURA = ["curves", "moura", "--d1", "3", "--d2", "2"]

PARSER_ARGV = [
    ["-h"], ["--help"], [], ["nope"], ["nope", "--p", "5"], ["--pretty"], ["--pretty", "-h"],
    ["--pretty", *GRIDCHECK], [*GRIDCHECK, "--pretty"], ["--pretty", "--pretty", *GRIDCHECK],
    ["--pretty=1", *GRIDCHECK], [*GRIDCHECK, "--pretty=1"], ["--", *GRIDCHECK], [*GRIDCHECK, "--"],
    ["curves", "--pretty", *MOURA[1:]], [*MOURA, "--pretty"], ["--pre", *MOURA],
    *([command, "-h"] for command in cli.COMMANDS),
    *(["curves", action, "-h"] for action in ("imult", "common", "moura", "conic")),
    ["curves"], ["curves", "nope"], ["s1", "nope", "--poly", "f.json"],
    ["gridcheck", "--input", "h.json"], ["curves", "moura", "--d1", "3"],
    ["construct", "--family", "9z", "--p", "5"], ["construct", "--family", "1a", "--p", "x"],
    ["gridcheck", "--inp", "h.json", "--p", "5", "--s", "2", "--t", "2"],
    [*GRIDCHECK, "--bogus"], [*GRIDCHECK, "gridcheck"], ["sweep", "--seed", "5"],
    ["cremona", "apply", "--sigma", "quadratic", "--input", "h.json"],
]


def _parse(parser, argv):
    """(exit code, stdout, stderr, parsed arguments or None) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = vars(parser.parse_args(argv)), 0
        except SystemExit as exc:
            parsed, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), parsed


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_a_command_parser_reads_as_the_full_parser(monkeypatch, argv):
    # the same interpreter builds both, so argparse's wording, which differs
    # between Python versions, is the same on both sides
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser([]), argv)


def _commands(parser) -> list:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_a_command_builds_only_its_own_parser():
    everything = ["construct", "gridcheck", "edges", "s1", "curves", "cremona", "sweep"]
    assert _commands(cli.build_parser([])) == everything
    assert _commands(cli.build_parser(["--pretty", "-h"])) == everything
    assert _commands(cli.build_parser(["nope", "gridcheck"])) == everything
    for command in everything:
        assert _commands(cli.build_parser(["--pretty", command, "--pretty"])) == [command]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["gridcheck", "--input", "{d}/nope.json", "--p", "5", "--s", "2", "--t", "2"],
         "FileAccessError: cannot read '{d}/nope.json': No such file or directory"),
        (["gridcheck", "--input", "{d}", "--p", "5", "--s", "2", "--t", "2"],
         "FileAccessError: cannot read '{d}': Is a directory"),
        (["cremona", "apply", "--sigma", "file:{d}/nope.json", "--input", "{d}/h.json"],
         "FileAccessError: cannot read '{d}/nope.json': No such file or directory"),
        (["construct", "--family", "1a", "--p", "5", "--out", "{d}/nope/h.json"],
         "FileAccessError: cannot write '{d}/nope/h.json': No such file or directory"),
        (["gridcheck", "--input", "{d}/bad.json", "--p", "5", "--s", "2", "--t", "2"],
         "MalformedJSON: '{d}/bad.json' is not JSON: Expecting property name"),
        (["s1", "classify", "--poly", "{d}/latin1.json"],
         "MalformedJSON: '{d}/latin1.json' is not JSON: 'utf-8' codec can't decode"),
    ],
    ids=["missing", "directory", "missing-map", "unwritable-out", "not-json", "not-utf-8"],
)
def test_unreadable_input_is_a_typed_error(capsys, h1a, tmp_path, argv, error):
    # these printed "error: FileNotFoundError: [Errno 2] ..." or
    # "error: JSONDecodeError: ..."
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "latin1.json").write_bytes(b'{"c": "\xe9"}')
    d = str(tmp_path)
    assert main([arg.format(d=d) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + error.format(d=d))


def test_closed_stdout_is_a_typed_error(capsys, monkeypatch):
    # `gridlab sweep | head -c 1` must not end in a traceback and exit 1
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["curves", "moura", "--d1", "3", "--d2", "2"]) == 2
    assert capsys.readouterr().err == "error: FileAccessError: cannot write to stdout: Broken pipe\n"


def test_byte_identical_output(capsys, h1a):
    _, out1 = run(capsys, "edges", "--input", h1a, "--p", "5", "--s", "2", "--t", "2")
    _, out2 = run(
        capsys, "edges", "--input", h1a, "--p", "5", "--s", "2", "--t", "2"
    )
    assert out1 == out2


def test_default_sweep_golden(capsys):
    # the recorded stdout of the default sweep: any change to an answer,
    # a witness or the output format shows here
    golden = Path(__file__).parent / "data" / "sweep_default.json"
    code, out = run(capsys, "sweep", "--primes", "5,7,11,13")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_benchmark_sweep_golden(capsys):
    # the recorded stdout of the sweep at the benchmark's primes, where the
    # transport and norm checks cost most
    golden = Path(__file__).parent / "data" / "sweep_bench.json"
    code, out = run(capsys, "sweep", "--primes", "5,7,11,13,17,19")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def reference_check_norm_poly(p: int) -> dict:
    """The sweep's norm-poly check one pair at a time: norm_poly(p, 2)
    evaluated with FieldElems, against the power formula a^(p+1)."""
    np2 = norm_poly(p, 2)
    K = GF(p, 2)
    bad = 0
    for a0 in range(p):
        for a1 in range(p):
            if (pi_s(K, (a0, a1)) ** (p + 1)).val[0] != np2.evaluate([a0, a1]).val:
                bad += 1
    return {"pass": bad == 0, "mismatches": bad, "inputs": p * p}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_check_norm_poly_matches_element_loop(p, monkeypatch):
    assert sweep._check_norm_poly(p) == reference_check_norm_poly(p)
    # a wrong polynomial is caught at every pair with a nonzero norm
    monkeypatch.setattr(hypersurfaces, "norm_poly", lambda p, s: norm_poly(p, s) * 2)
    got = sweep._check_norm_poly(p)
    assert got["mismatches"] == p * p - 1 and got["inputs"] == p * p


def test_norm_poly_check_counts_its_pairs(monkeypatch):
    # 101^2 pairs are over budget 1000: refused before norm_poly is built
    def unreachable(p, s):
        raise AssertionError("norm_poly called")

    monkeypatch.setenv("GRIDLAB_BUDGET", "1000")
    (res,) = [r for r in run_sweep([101])["results"] if r["check"] == "norm-poly"]
    assert res["pass"] and res["skipped"].startswith("budget: the affine chart of P^2(F_101)")
    monkeypatch.setattr(hypersurfaces, "norm_poly", unreachable)
    with pytest.raises(BudgetExceeded):
        sweep._check_norm_poly(101)


def test_budget_refusals_are_counted_skips(capsys, monkeypatch):
    # a check that the budget refuses did not fail: it is skipped, with the
    # refusal's message, and the summary counts it apart from all_pass
    monkeypatch.setenv("GRIDLAB_BUDGET", "1000")
    code, report = run_json(capsys, "sweep", "--primes", "101")
    assert code == 0 and report["all_pass"] is True
    skipped = {r["check"]: r["skipped"] for r in report["results"] if "skipped" in r}
    assert report["skipped"] == len(skipped) == 6
    assert skipped.pop("family-1b") == "sphere check restricted to p = 3 mod 4"
    assert sorted(skipped) == ["cremona-transport", "family-1a", "family-1c", "family-1d",
                               "norm-poly"]
    assert all(why.startswith("budget: the ") and why.endswith("over budget 1000")
               for why in skipped.values())
    assert all(r["pass"] is True and "error" not in r for r in report["results"])


def _construct_outputs():
    """(family, p, s) of `construct` outputs at p <= 11, s = 2, 3 for 1c/1d."""
    out = []
    for p in (2, 3, 5, 7, 11):
        out.append(("1a", p, None))
        if p > 2:
            out.append(("1b", p, None))
        out += [(family, p, s) for family in ("1c", "1d") for s in (2, 3)]
    return out


@pytest.mark.parametrize("family,p,s", _construct_outputs())
def test_gridcheck_same_with_and_without_family(capsys, tmp_path, monkeypatch, family, p, s):
    # the "family" key only adds candidate symmetries; unverified ones are
    # dropped, so every answer is the plain scan's, byte for byte.  The
    # budget counts the subsets the pruned scan visits, so at p = 11 with
    # s = 3 the family's scan answers where the plain one is refused: it is
    # compared with the plain scan under a raised budget
    from math import comb

    from gridlab.gridcheck import build_graph
    from gridlab.hypersurfaces import family_symmetries
    from gridlab.projective import Hypersurface

    path = tmp_path / "h.json"
    argv = ["construct", "--family", family, "--p", str(p), "--out", str(path)]
    if s is not None:
        argv += ["--s", str(s)]
    assert run(capsys, *argv)[0] == 0
    data = json.loads(path.read_text())
    # 1a's maps are no symmetry of any other family; the other families'
    # maps include some genuine symmetries of x.y - 1 (1b's swap, say)
    wrong = "1c" if family == "1a" else "1a"
    variants = {"family": data, "plain": {k: v for k, v in data.items() if k != "family"},
                "wrong": {**data, "family": wrong}}
    if family != "1a":
        H = Hypersurface.from_json(data)
        G = build_graph(H, p, symmetries=family_symmetries(wrong, p, H.s))
        assert G.symmetries == []
    for scan_s, t in ((2, 2), (3, 3)):
        seen = {}
        for name, doc in variants.items():
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(doc))
            seen[name] = run(capsys, "gridcheck", "--input", str(f), "--p", str(p),
                             "--s", str(scan_s), "--t", str(t))
        assert seen["plain"] == seen["wrong"]
        if seen["plain"][0] == 2 and seen["family"][0] != 2:
            assert (family, p, scan_s) in (("1b", 11, 3), ("1c", 11, 3), ("1d", 11, 3))
            monkeypatch.setenv("GRIDLAB_BUDGET", str(comb(p**3, 3)))
            seen["plain"] = run(capsys, "gridcheck", "--input", str(tmp_path / "plain.json"),
                                "--p", str(p), "--s", str(scan_s), "--t", str(t))
            monkeypatch.delenv("GRIDLAB_BUDGET")
        assert seen["family"] == seen["plain"]


# -- recorded algebra outputs ---------------------------------------------------------

ALGEBRA = Path(__file__).resolve().parent / "data" / "algebra_golden.json"


def golden_algebra_mismatches() -> list:
    """Names of the cases of `data/algebra_golden.json` (`s1`, `curves
    common` and `cremona apply` calls) whose stdout or exit code differs
    from the recorded one, run in-process.  A case's input documents are
    written to files, and an argument equal to a document's name becomes
    that file's path."""
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in json.loads(ALGEBRA.read_text()):
            for name, doc in case["files"].items():
                with open(os.path.join(tmp, name), "w") as fh:
                    json.dump(doc, fh)
            argv = [os.path.join(tmp, a) if a in case["files"] else a for a in case["argv"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            if (out.getvalue(), code) != (case["stdout"], case["exit"]):
                bad.append(case["name"])
    return bad


def test_algebra_commands_match_recorded_outputs():
    assert golden_algebra_mismatches() == []


if __name__ == "__main__":
    # PYTHONPATH=src python -O tests/test_cli.py: the recorded algebra
    # outputs, checked with asserts stripped from gridlab
    mismatches = golden_algebra_mismatches()
    for name in mismatches:
        print(f"output differs from tests/data/algebra_golden.json: {name}", file=sys.stderr)
    sys.exit(1 if mismatches else 0)


# -- inputs that exhausted memory, under an address-space cap ----------------------


def _capped_cli(*argv):
    """gridlab's CLI in a subprocess whose address space is capped at 1 GB,
    so an input that would exhaust memory fails fast there."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "gridlab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=60,
    )


def _write_poly(path, field, vars, terms):
    path.write_text(json.dumps({
        "field": field,
        "vars": vars,
        "terms": [{"e": e, "c": c} for e, c in terms],
    }))
    return str(path)


def test_extension_fields_of_a_large_prime_enumerate_lazily(tmp_path):
    # F_p^2 at p = 99999971: the modulus search and the element listing fed
    # range(p) to itertools.product, which holds it as a tuple of p ints
    res = _capped_cli("construct", "--family", "1c", "--p", "99999971", "--s", "2")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["poly"]["field"] == {"kind": "prime", "p": 99999971}
    field = {"kind": "extension", "p": 99999971, "s": 2, "modulus": [1, 0, 1]}
    ys = ["y0", "y1", "y2"]
    f = _write_poly(tmp_path / "f.json", field, ys, [([1, 1, 0], "1,0"), ([0, 0, 2], "1,0")])
    g = _write_poly(tmp_path / "g.json", field, ys, [([1, 0, 1], "1,0"), ([0, 2, 0], "1,0")])
    res = _capped_cli("curves", "imult", "--f", f, "--g", g, "--point", "1,0:0,0:0,0")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["multiplicity"] == 1


def test_huge_extension_degree_is_refused_before_its_tables(tmp_path):
    # F_(2^2000) from a JSON descriptor: its tables and one irreducibility
    # test take about 7 * 10^10 coefficient multiplications, refused before
    # the field is built; a count of Rabin's products alone admitted it
    field = {"kind": "extension", "p": 2, "s": 2000}
    form = _write_poly(tmp_path / "form.json", field, ["x0", "x1", "y0", "y1"], [([1, 0, 1, 0], "1")])
    start = time.monotonic()
    res = _capped_cli("s1", "classify", "--poly", form)
    assert time.monotonic() - start < 20
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (
        "error: BudgetExceeded: F_2^2000 needs 72024000000 coefficient multiplications for its"
        " tables and one irreducibility test, over budget 100000000\n"
    )


def test_huge_degree_is_refused_before_the_dense_gcd_allocates(tmp_path):
    # x0^N*y0 + x1^N*y1 with N = 10^12: the dense gcd would list N + 1
    # coefficients of x0
    N = 10**12
    form = _write_poly(tmp_path / "form.json", {"kind": "prime", "p": 7}, ["x0", "x1", "y0", "y1"],
                       [([N, 0, 1, 0], "1"), ([0, N, 0, 1], "1")])
    res = _capped_cli("s1", "classify", "--poly", form)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: BudgetExceeded: degree 1000000000000 in x0")


@pytest.mark.parametrize("N", [10**6, 99999999])
def test_degree_pair_is_refused_by_its_dense_grid(tmp_path, N):
    # each of x0^N and x1^N alone fits the budget, but together they span a
    # dense grid of (N + 1)^2 coefficients: refused at once, where N = 10^6
    # took seconds and N = 99999999 ran past 20 s
    form = _write_poly(tmp_path / "form.json", {"kind": "prime", "p": 7}, ["x0", "x1", "y0", "y1"],
                       [([N, 0, 1, 0], "1"), ([0, N, 0, 1], "1")])
    start = time.monotonic()
    res = _capped_cli("s1", "classify", "--poly", form)
    assert time.monotonic() - start < 20
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (
        f"error: BudgetExceeded: degree {N} in x0, {N} in x1: a dense grid of {(N + 1) ** 2}"
        " coefficients, over budget 100000000\n"
    )

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridlab.errors import BudgetExceeded, EmptySide, ParameterOutOfRange
from gridlab.fields import GF, QQ
from gridlab.gridcheck import (
    BipartiteGraph,
    _terms_int,
    build_graph,
    edge_report,
    find_grid,
    max_common_neighborhood,
)
from gridlab.hypersurfaces import construct, family_symmetries, reduce_hypersurface_mod
from gridlab.primefields import check_budget, enumeration_budget
from gridlab.projective import Hypersurface, OpenSet
from gridlab.ring import MultiPoly
from test_adjacency import (
    xy_vars,
    bihomogeneous_forms,
    chart_coords,
    open_sets,
    proj_points,
    reference_rows,
    transpose,
)


def _common(rows, n_right, S):
    common = (1 << n_right) - 1
    for i in S:
        common &= rows[i]
    return common


def naive_has_grid(rows, n_right, s, t):
    return any(
        _common(rows, n_right, S).bit_count() >= t
        for S in combinations(range(len(rows)), s)
    )


def naive_max_common(rows, n_right, s):
    best, arg = -1, None
    for S in combinations(range(len(rows)), s):
        c = _common(rows, n_right, S).bit_count()
        if c > best:
            best, arg = c, list(S)
    return best, arg


def reference_scan(G, s, floor, first):
    """The per-candidate subset scan that the column-counting last level of
    `gridcheck._scan` replaced: every depth, the last included, tries each
    candidate vertex in turn.  Same contract as `_scan`."""
    n = len(G.rows)
    check_budget(comb(n, s), f"the reference scan visits C({n},{s}) subsets")
    rows = G.rows
    hit = None

    def rec(start, depth, inter, chosen):
        nonlocal floor, hit
        for i in range(start, n - (s - depth) + 1):
            ni = inter & rows[i]
            if ni.bit_count() <= floor:
                continue
            if depth + 1 == s:
                hit = chosen + [i], ni
                if first:
                    return True
                floor = ni.bit_count()
            elif rec(i + 1, depth + 1, ni, chosen + [i]):
                return True
        return False

    rec(0, 0, (1 << len(G.right)) - 1, [])
    return hit


def reference_find_grid(G, s, t):
    """(S, T) as `find_grid` reports them, from `reference_scan`."""
    hit = reference_scan(G, s, t - 1, True)
    if hit is None:
        return None
    S, common = hit
    return S, [j for j in range(len(G.right)) if common >> j & 1][:t]


def reference_max_common(G, s):
    S, common = reference_scan(G, s, -1, False)
    return common.bit_count(), S


def assert_scans_agree(G, s, ts):
    nl = len(G.left)
    if 1 <= s <= nl:
        assert max_common_neighborhood(G, s) == reference_max_common(G, s)
        for t in ts:
            w = find_grid(G, s, t)
            got = None if w is None else (w.S, w.T)
            assert got == reference_find_grid(G, s, t)


def random_graph(rng, nl, nr, density=0.4):
    rows = []
    for _ in range(nl):
        mask = 0
        for j in range(nr):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask)
    left = [(i,) for i in range(nl)]
    right = [(j,) for j in range(nr)]
    return BipartiteGraph(left, right, rows, transpose(rows, nr))


@pytest.mark.parametrize("seed", range(12))
def test_find_grid_matches_oracle(seed):
    rng = random.Random(seed)
    nl, nr = rng.randint(3, 10), rng.randint(3, 10)
    G = random_graph(rng, nl, nr)
    for s in (1, 2, 3):
        if s > nl:
            continue
        for t in (1, 2, 3):
            witness = find_grid(G, s, t)
            expected = naive_has_grid(G.rows, nr, s, t)
            assert (witness is not None) == expected
            if witness:
                for i in witness.S:
                    for j in witness.T:
                        assert G.rows[i] >> j & 1
                # the first S in combinations order, and T its t smallest
                # common neighbours
                first, common = next(
                    (list(S), c)
                    for S in combinations(range(nl), s)
                    if (c := _common(G.rows, nr, S)).bit_count() >= t
                )
                assert witness.S == first
                assert witness.T == [j for j in range(nr) if common >> j & 1][:t]


@pytest.mark.parametrize("seed", range(12))
def test_max_common_matches_oracle(seed):
    rng = random.Random(seed + 50)
    nl, nr = rng.randint(3, 9), rng.randint(3, 9)
    G = random_graph(rng, nl, nr)
    for s in (1, 2, 3):
        if s > nl:
            continue
        best, arg = max_common_neighborhood(G, s)
        ebest, earg = naive_max_common(G.rows, nr, s)
        assert best == ebest
        assert arg == earg  # lexicographically first argmax


@st.composite
def scan_graphs(draw):
    """Small graphs rich in ties: rows drawn from a short pool (repeated rows
    tie), with the empty and the full row among the choices."""
    nl = draw(st.integers(1, 9))
    nr = draw(st.integers(1, 9))
    full = (1 << nr) - 1
    pool = draw(st.lists(st.integers(0, full), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool + [0, full]), min_size=nl, max_size=nl))
    return BipartiteGraph(
        [(i,) for i in range(nl)], [(j,) for j in range(nr)], rows, transpose(rows, nr)
    )


@settings(max_examples=300, deadline=None)
@given(scan_graphs(), st.data())
def test_scan_matches_reference(G, data):
    # s = 1 and s = |left| included; t up to |right| + 2 covers t > |right|
    nl, nr = len(G.left), len(G.right)
    s = data.draw(st.sampled_from(sorted({1, nl, min(2, nl), min(3, nl)})))
    assert_scans_agree(G, s, range(1, nr + 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 40), st.randoms(use_true_random=False))
def test_scan_matches_reference_wide(nl, nr, rng):
    # wide enough that the bit-sliced counter needs several planes
    G = random_graph(rng, nl, nr, density=rng.choice([0.2, 0.5, 0.9]))
    for s in (1, 2, 3):
        assert_scans_agree(G, s, (1, 2, 3, 5, nr, nr + 1))


def test_scan_one_right_vertex():
    rows = [0, 1, 1, 0, 1]
    G = BipartiteGraph([(i,) for i in range(5)], [(0,)], rows, transpose(rows, 1))
    for s in range(1, 6):
        assert_scans_agree(G, s, (1, 2))


@pytest.mark.parametrize(
    "family,p,dim,s,ts",
    [
        ("1a", 5, None, 2, (1, 2)),
        ("1a", 11, None, 2, (2,)),
        ("1b", 3, None, 3, (2, 3)),
        ("1b", 7, None, 2, (2, 3, 8)),
        ("1c", 5, 2, 2, (2, 3)),
        ("1c", 11, 2, 2, (3,)),
        ("1c", 5, 3, 3, (3, 7)),
        ("1d", 7, 2, 2, (1, 2)),
        ("1d", 11, 2, 2, (2,)),
        ("1d", 5, 3, 2, (3,)),
    ],
)
def test_scan_matches_reference_on_constructions(family, p, dim, s, ts):
    G = build_graph(construct(family, p, dim).hypersurface, p)
    assert_scans_agree(G, s, ts)


def test_max_common_1b_p11_with_raised_budget(monkeypatch):
    # C(1331, 3) subsets: refused by the default budget (criterion 02)
    G = build_graph(construct("1b", 11).hypersurface, 11)
    monkeypatch.setenv("GRIDLAB_BUDGET", str(comb(1331, 3)))
    assert max_common_neighborhood(G, 3) == (2, [0, 1, 13])


def test_find_grid_lex_first_witness():
    rows = [0b111, 0b111, 0b011]
    G = BipartiteGraph([(0,), (1,), (2,)], [(0,), (1,), (2,)], rows, transpose(rows, 3))
    w = find_grid(G, 2, 2)
    assert w.S == [0, 1]
    assert w.T == [0, 1]


def test_parameter_guards():
    G = random_graph(random.Random(0), 4, 4)
    with pytest.raises(ParameterOutOfRange):
        find_grid(G, 0, 1)
    with pytest.raises(ParameterOutOfRange):
        find_grid(G, 5, 1)
    with pytest.raises(ParameterOutOfRange):
        max_common_neighborhood(G, 0)


def test_budget_guard(monkeypatch):
    G = random_graph(random.Random(1), 12, 5)
    monkeypatch.setenv("GRIDLAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        find_grid(G, 4, 1)
    with pytest.raises(BudgetExceeded):
        max_common_neighborhood(G, 4)


def test_budget_env(monkeypatch):
    monkeypatch.setenv("GRIDLAB_BUDGET", "123")
    assert enumeration_budget() == 123
    monkeypatch.delenv("GRIDLAB_BUDGET")
    assert enumeration_budget() == 10**8


def test_empty_side():
    with pytest.raises(EmptySide):
        BipartiteGraph([], [(0,)], [], [0])


# -- graphs from hypersurfaces ------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_1a_edge_count(p):
    c = construct("1a", p)
    G = build_graph(c.hypersurface, p)
    assert len(G.left) == p**2
    assert len(G.right) == p**2
    assert G.edge_count() == p**3 - p


def test_family_1a_grid_free():
    c = construct("1a", 5)
    G = build_graph(c.hypersurface, 5)
    assert find_grid(G, 2, 2) is None


def test_projective_chart_sizes():
    c = construct("1a", 3)
    G = build_graph(c.hypersurface, 3, chart="projective")
    assert len(G.left) == 3**2 + 3 + 1
    assert len(G.right) == 13


HUGE_PRIME = 1000000000000000003


def test_chart_over_budget_is_refused_before_listing(monkeypatch):
    # the affine chart of P^2(F_5) has 25 points and P^2(F_5) has 31
    from gridlab import cremona, hypersurfaces, projective

    c = construct("1a", 5)
    monkeypatch.setenv("GRIDLAB_BUDGET", "31")
    assert len(build_graph(c.hypersurface, 5, chart="projective").left) == 31
    monkeypatch.setenv("GRIDLAB_BUDGET", "30")
    assert len(build_graph(c.hypersurface, 5).left) == 25

    def no_listing(*args, **kwargs):
        raise AssertionError("chart decoded after the budget refused it")

    monkeypatch.setattr(projective, "base_digits", no_listing)
    for name in ("chart_point", "chart_columns"):
        monkeypatch.setattr(hypersurfaces, name, no_listing)
    with pytest.raises(BudgetExceeded, match=r"P\^2\(F_5\) has 31 points, over budget 30"):
        build_graph(c.hypersurface, 5, chart="projective")
    monkeypatch.delenv("GRIDLAB_BUDGET")
    sizes = (("affine", HUGE_PRIME**2), ("projective", HUGE_PRIME**2 + HUGE_PRIME + 1))
    for chart, count in sizes:
        with pytest.raises(BudgetExceeded, match=f"the {chart} chart .* has {count} points"):
            build_graph(c.hypersurface, HUGE_PRIME, chart=chart)
    with pytest.raises(BudgetExceeded):
        hypersurfaces.ChartPoints(HUGE_PRIME, 1)
    vars = xy_vars(2)
    H0 = Hypersurface(MultiPoly.parse(QQ, vars, "x0*y0 + x1*y1 + x2*y2"), 2, 2)
    with pytest.raises(BudgetExceeded):
        cremona.grid_transport_check(H0, cremona.standard_quadratic(QQ), HUGE_PRIME, 2, 2)


def test_gridcheck_at_a_huge_prime_exits_2(tmp_path):
    # every chart point used to be listed first: MemoryError and exit 1
    from gridlab import cli

    path = tmp_path / "h1d5.json"
    assert cli.main(["construct", "--family", "1d", "--p", "5", "--s", "2", "--out", str(path)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("GRIDLAB_BUDGET", None)
    argv = ["gridcheck", "--input", str(path), "--p", str(HUGE_PRIME), "--s", "2", "--t", "2"]
    res = subprocess.run(
        [sys.executable, "-m", "gridlab.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: BudgetExceeded: the affine chart of P^2")
    assert "Traceback" not in res.stderr


def test_adjacency_agrees_with_direct_evaluation():
    vars = ("x0", "x1", "y0", "y1")
    F = MultiPoly.parse(QQ, vars, "x0*y1**2 - x1*y0**2 + x1*y0*y1")
    H = Hypersurface(F, 1, 1)
    p = 5
    G = build_graph(H, p, chart="projective")
    from gridlab.hypersurfaces import reduce_hypersurface_mod

    Hp = reduce_hypersurface_mod(H, p)
    pts = list(proj_points(GF(p), 1))
    for i, u in enumerate(pts):
        sec = Hp.section(u)
        for j, v in enumerate(pts):
            direct = sec.evaluate(list(v.coords)).is_zero()
            assert bool(G.rows[i] >> j & 1) == direct


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_affine_enumeration_matches_open_set_path(p, s):
    # x0 = y0 = 1 on the affine chart, so excluding x0 = 0 and y0 = 0 keeps
    # every point: the filtered graph is the graph without open sets
    vars = xy_vars(s)
    form = " + ".join(f"{k + 1}*x{k}*y{s - k}" for k in range(s + 1))
    F = MultiPoly.parse(QQ, vars, form)
    H = Hypersurface(F, s, s)
    X = OpenSet(s, [MultiPoly.parse(QQ, vars[: s + 1], "x0")])
    Y = OpenSet(s, [MultiPoly.parse(QQ, vars[s + 1 :], "y0")])
    fast, filtered = build_graph(H, p), build_graph(H, p, X, Y)
    assert list(fast.left) == list(filtered.left) == [u for u in product(range(p), repeat=s)]
    assert list(fast.right) == list(filtered.right) == list(fast.left)
    assert list(fast.rows) == list(filtered.rows)


def test_open_set_filtering():
    c = construct("1a", 3)
    # drop the hyperplane x1 = 0 from the left side (affine coords x1, x2)
    X = OpenSet(2, [MultiPoly.parse(QQ, ("x0", "x1", "x2"), "x1")])
    G = build_graph(c.hypersurface, 3, X=X)
    assert len(G.left) == 3 * 2  # x1 in {1, 2}
    assert len(G.right) == 9


def test_edge_report_fields():
    c = construct("1a", 5)
    G = build_graph(c.hypersurface, 5)
    rep = edge_report(G, 2, 2)
    assert rep["n"] == 50
    assert rep["m"] == 120
    n_pow = float(rep["n_power"])
    assert abs(n_pow - 50 ** 1.5) < 1e-6
    assert abs(float(rep["furedi_leading"]) - 0.5 * 50 ** 1.5) < 1e-6
    assert abs(float(rep["ratio"]) - 120 / 50 ** 1.5) < 1e-9


def test_edge_report_exact_power():
    rows = [1] * 2
    G = BipartiteGraph([(0,), (1,)], [(0,)], rows, transpose(rows, 1))
    rep = edge_report(G, 1, 2)  # n = 3, s = 1: n^(2-1/s) = n exactly
    assert rep["n_power_exact"] == "3"


def test_witness_check_survives_python_O():
    # the re-verification must not rely on assert, which -O strips
    code = (
        "from gridlab.errors import InvalidWitness\n"
        "from gridlab.gridcheck import GridWitness\n"
        "try:\n"
        "    GridWitness.checked([0, 1], [0, 1], [0b11, 0b01])\n"
        "except InvalidWitness:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert res.returncode == 0


def test_budget_refusal_comes_before_adjacency(monkeypatch, tmp_path, capsys):
    # 1b at p = 11 has 1331 left vertices.  The plain graph's C(1331, 3)
    # subsets exceed the default budget, and its scan refuses before it
    # sets up a kernel.  With its symmetries the pruned scan visits 62,930
    # and answers; 1c with s = 4 at p = 11 is refused by the pruned count
    # itself, after verifying its maps and before any kernel
    from gridlab import cli, gridcheck

    def never(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"{what} for a refused scan")

        return fail

    monkeypatch.setattr(gridcheck, "_lane_kernel", never("adjacency kernel set up"))
    monkeypatch.delenv("GRIDLAB_BUDGET", raising=False)
    c = construct("1b", 11)
    G = build_graph(c.hypersurface, 11)
    message = f"the scan visits all 3-subsets (C(1331,3) = {comb(1331, 3)}), over budget 100000000"
    with pytest.raises(BudgetExceeded) as refusal:
        max_common_neighborhood(G, 3)
    assert str(refusal.value) == message
    path = tmp_path / "h1b.json"
    construct_argv = ["construct", "--family", "1b", "--p", "11", "--out", str(path)]
    assert cli.main(construct_argv) == 0
    plain = tmp_path / "h1b_plain.json"
    data = json.loads(path.read_text())
    del data["family"]
    plain.write_text(json.dumps(data))
    argv = ["gridcheck", "--input", str(plain), "--p", "11", "--s", "3", "--t", "3"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: BudgetExceeded: {message}\n"
    n = 11**4
    c = construct("1c", 11, 4)
    G = build_graph(c.hypersurface, 11, symmetries=family_symmetries("1c", 11, 4))
    with pytest.raises(BudgetExceeded) as refusal:
        find_grid(G, 4, 25)
    assert str(refusal.value) == (
        f"the pruned scan visits 2127659305 4-subsets (C({n},4) = {comb(n, 4)}),"
        " over budget 100000000"
    )
    assert len(G.symmetries) == 5


def test_refused_scan_decodes_no_vertex(monkeypatch):
    # 1a at p = 1009 has 1009^2 vertices a side: the graph's sides are
    # chart indices, so building it and refusing its scan decode, list and
    # transpose no point.  The plain graph is refused by its C(n, 2)
    # subsets; with the family's maps, a budget below n times their number
    # refuses their verification before it starts
    from gridlab import gridcheck, hypersurfaces, projective

    def never(*args, **kwargs):
        raise AssertionError("a vertex was decoded for a refused scan")

    monkeypatch.setattr(projective, "base_digits", never)
    for name in ("chart_point", "chart_columns"):
        monkeypatch.setattr(hypersurfaces, name, never)
    monkeypatch.setattr(gridcheck, "symmetry_permutation", never)
    monkeypatch.delenv("GRIDLAB_BUDGET", raising=False)
    p = 1009
    n = p * p
    c = construct("1a", p)
    G = build_graph(c.hypersurface, p)
    assert len(G.left) == len(G.right) == n
    with pytest.raises(BudgetExceeded) as refusal:
        find_grid(G, 2, 2)
    assert str(refusal.value) == (
        f"the scan visits all 2-subsets (C({n},2) = {comb(n, 2)}), over budget 100000000"
    )
    monkeypatch.setenv("GRIDLAB_BUDGET", str(2 * n))  # the chart's n points pass
    G = build_graph(c.hypersurface, p, symmetries=family_symmetries("1a", p, 2))
    with pytest.raises(BudgetExceeded) as refusal:
        find_grid(G, 2, 2)
    assert str(refusal.value) == (
        f"6 candidate symmetries on {n} vertices = {6 * n} verification steps,"
        f" over budget {2 * n}"
    )


def test_reduction_follows_primitive_model():
    # stored monic, the form holds 1/3; its primitive model is x0*y0 mod 3
    vars = ("x0", "x1", "x2", "y0", "y1", "y2")

    def graph(field, text):
        poly = MultiPoly.parse(field, vars, text)
        return build_graph(Hypersurface(poly, 2, 2), 3)

    G = graph(QQ, "x0*y0 + 3*x1*y1")
    G3 = graph(GF(3), "x0*y0")
    assert list(G.rows) == list(G3.rows)
    assert (list(G.left), list(G.right)) == (list(G3.left), list(G3.right))


# -- recorded gridcheck and edges outputs -------------------------------------------

DATA = Path(__file__).resolve().parent / "data"
WITNESSES = DATA / "gridcheck_witnesses.json"
EDGES = DATA / "edges_golden.json"
PROJECTIVE = DATA / "projective_golden.json"


def recorded_mismatches(path: Path, command: str) -> list:
    """Cases of the file `path` with a `<command>` key whose `gridlab
    <command>` stdout or exit code differs from the recorded one, run
    in-process on the output of the recorded `gridlab construct` call.  A case's `"family"` key, when
    present, replaces the family that output names (null removes it); its
    optional `exclude_x`/`exclude_y` open sets are written to files and
    passed as `--exclude-x`/`--exclude-y`."""
    from gridlab import cli

    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        path_h = os.path.join(tmp, "h.json")
        for case in json.loads(path.read_text()):
            if command not in case:
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(case["construct"] + ["--out", path_h])
            if "family" in case:
                with open(path_h) as fh:
                    data = json.load(fh)
                data.pop("family")
                if case["family"] is not None:
                    data["family"] = case["family"]
                with open(path_h, "w") as fh:
                    json.dump(data, fh)
            argv = [command, "--input", path_h] + case[command]
            for key in ("exclude_x", "exclude_y"):
                if key in case:
                    open_set = os.path.join(tmp, key + ".json")
                    with open(open_set, "w") as fh:
                        json.dump(case[key], fh)
                    argv += ["--" + key.replace("_", "-"), open_set]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if (out.getvalue(), code) != (case["stdout"], case["exit"]):
                bad.append({**case, "got_stdout": out.getvalue(), "got_exit": code})
    return bad


def recorded_sweep_mismatches(path: Path) -> list:
    """Cases of the file `path` with a `"sweep"` key whose `"check"` entries
    of `gridlab sweep <args>`, each printed as one JSON line, differ from
    the recorded stdout."""
    from gridlab import cli

    bad = []
    for case in json.loads(path.read_text()):
        if "sweep" not in case:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["sweep"] + case["sweep"])
        results = json.loads(out.getvalue())["results"]
        got = "".join(json.dumps(r) + "\n" for r in results if r["check"] == case["check"])
        if got != case["stdout"]:
            bad.append({**case, "got_stdout": got})
    return bad


def projective_mismatches() -> list:
    """The cases of `data/projective_golden.json` that differ: gridcheck
    and edges on the projective chart, with and without open sets and
    family symmetries, and the sweep's transport report at p = 19."""
    return (recorded_mismatches(PROJECTIVE, "gridcheck") + recorded_mismatches(PROJECTIVE, "edges")
            + recorded_sweep_mismatches(PROJECTIVE))


def test_projective_outputs_match_recorded_outputs():
    assert projective_mismatches() == []


def test_gridcheck_matches_recorded_witnesses():
    assert recorded_mismatches(WITNESSES, "gridcheck") == []


def test_edges_match_recorded_outputs():
    # 1a-1d with and without their family named, and with a wrong one, in
    # both charts: the orbit-weighted count gives the full count's report
    assert recorded_mismatches(EDGES, "edges") == []


# -- on-demand adjacency ------------------------------------------------------------


def laziness_faults() -> list:
    """Where the on-demand graph computes more than it must, or the edge
    count less: build_graph computes no row or column and verifies no map,
    find_grid, edge_count() and orbit_minima verify each map exactly once
    between them, in either order, the pruned find_grid(G, 2, 2) on 1a at
    p = 53 computes at most 2 rows and 53 columns, and edge_count() at most
    2 rows with the symmetries (one per orbit) and every row without them.
    On 1c at p = 5, s = 2 edge_count() verifies the 2 translations alone,
    and a later find_grid the third map."""
    from gridlab import gridcheck

    def computed(bitsets):
        return sum(b is not None for b in bitsets._known)

    def counts(G):
        return f"{computed(G.rows)} rows and {computed(G.cols)} columns"

    verified = []  # every map verified, in order, one entry per verification
    original = gridcheck.symmetry_permutation

    def counting(form, m, *args):
        verified.append(m)
        return original(form, m, *args)

    p = 53
    c = construct("1a", p)
    symmetries = family_symmetries("1a", p, c.s)
    faults = []

    def scan(G, when):
        if find_grid(G, 2, 2) is not None:
            faults.append(f"find_grid(G, 2, 2) {when} found a grid in family 1a")
        if computed(G.rows) > 2 or computed(G.cols) > p:
            faults.append(f"the pruned find_grid(G, 2, 2) {when} computed {counts(G)}")

    def count(G, when):
        if G.edge_count() != p**3 - p or computed(G.rows) > 2:
            faults.append(f"the orbit-weighted edge_count() {when} computed {counts(G)}")

    gridcheck.symmetry_permutation = counting
    try:
        for order in ("find_grid", "edge_count"):
            verified.clear()
            G = build_graph(c.hypersurface, p, symmetries=symmetries)
            if verified:
                faults.append("build_graph verified a map")
            if computed(G.rows) or computed(G.cols):
                faults.append(f"build_graph computed {counts(G)}")
            if order == "find_grid":
                scan(G, "first")
                count(G, "after the scan")
            else:
                count(G, "first")
                scan(G, "after the edge count")
            if list(G.orbit_minima) != [0, 1] or computed(G.rows) > 2:
                faults.append(f"orbit_minima read {list(G.orbit_minima)[:3]} and computed {counts(G)}")
            if verified != symmetries:
                faults.append(
                    f"{order} first: find_grid, edge_count and orbit_minima did not verify"
                    " each map exactly once between them"
                )
        # 1c's translations act with one orbit: the count verifies them
        # alone, and a later scan the norm-one map, once
        verified.clear()
        norm = construct("1c", 5, 2)
        candidates = family_symmetries("1c", 5, 2)
        G = build_graph(norm.hypersurface, 5, symmetries=candidates)
        G.edge_count()
        if verified != candidates[:2]:
            faults.append(f"edge_count() on 1c verified {len(verified)} maps, not the 2 translations")
        find_grid(G, 2, 2)
        G.edge_count()
        if verified != candidates:
            faults.append("edge_count, then find_grid did not verify each 1c map exactly once")
    finally:
        gridcheck.symmetry_permutation = original
    plain = build_graph(c.hypersurface, p)
    if plain.edge_count() != p**3 - p or computed(plain.rows) != len(plain.rows):
        faults.append(f"edge_count() without symmetries computed {counts(plain)}")
    return faults


def test_adjacency_is_computed_on_demand():
    assert laziness_faults() == []


# -- columns from rows, orbits before the whole group ------------------------------


def _open_set_off(var: str, a: int, b: int, c: int) -> OpenSet:
    """P^2 minus {var0 = 0} and the line a var1 + b var2 + c var0 = 0."""
    vars = tuple(f"{var}{i}" for i in range(3))
    line = {(0, 1, 0): a, (0, 0, 1): b, (1, 0, 0): c}
    return OpenSet(2, [MultiPoly(QQ, vars, {(1, 0, 0): 1}), MultiPoly(QQ, vars, line)])


def recording_kernels(monkeypatch) -> list:
    """kernels[k] = the vertices the k-th `_lane_kernel` set up from now on
    computed, in order."""
    from gridlab import gridcheck

    kernels = []
    original = gridcheck._lane_kernel

    def recording(*args):
        row, calls = original(*args), []
        kernels.append(calls)

        def counted(u):
            calls.append(u)
            return row(u)

        return counted

    monkeypatch.setattr(gridcheck, "_lane_kernel", recording)
    return kernels


def recording_verifications(monkeypatch) -> list:
    """Every candidate map verified from now on, one entry per verification."""
    from gridlab import gridcheck

    verified = []
    original = gridcheck.symmetry_permutation

    def counting(form, m, *args):
        verified.append(m)
        return original(form, m, *args)

    monkeypatch.setattr(gridcheck, "symmetry_permutation", counting)
    return verified


def test_unpruned_scan_takes_its_columns_from_its_rows(monkeypatch):
    # the paper's (2,2) question for 1d on P^2 at p = 31 between open sets
    # that neither candidate symmetry keeps: every row is read, so after the
    # first count the columns come from the rows, not from their kernel
    p = 31
    c = construct("1d", p, 2)
    X, Y = _open_set_off("x", 1, 2, 3), _open_set_off("y", 2, 1, -4)
    G = build_graph(c.hypersurface, p, X, Y, chart="projective",
                    symmetries=family_symmetries("1d", p, 2))
    kernels = recording_kernels(monkeypatch)
    assert find_grid(G, 2, 2) is None
    assert G.symmetries == []
    rows, columns = kernels  # row 0 is read before any column
    assert sorted(rows) == list(range(len(G.left)))
    assert len(set(columns)) == len(columns) <= G.rows[0].bit_count()
    assert len(columns) < len(G.right) // 10
    assert list(G.cols) == transpose(list(G.rows), len(G.right))
    assert kernels == [rows, columns]


def test_witness_at_the_first_count_costs_no_transpose(monkeypatch):
    from gridlab import gridcheck

    def never(*args):
        raise AssertionError("the rows were transposed for a witness at the first count")

    c = construct("1c", 7, 3)
    G = build_graph(c.hypersurface, 7)
    monkeypatch.setattr(gridcheck, "_transpose", never)
    w = find_grid(G, 3, 3)
    assert (len(G.rows._known), len(G.cols._known)) == (3, 7)
    assert (w.S, w.T) == reference_find_grid(G, 3, 3)


def test_edge_count_verifies_until_one_orbit(monkeypatch):
    # 1c's four translations already act with one orbit on F_5^4, so the
    # count does not verify the norm-one map; a later scan does, once
    p, s = 5, 4
    c = construct("1c", p, s)
    symmetries = family_symmetries("1c", p, s)
    verified = recording_verifications(monkeypatch)
    G = build_graph(c.hypersurface, p, symmetries=symmetries)
    n = p**s
    assert G.edge_count() == n * (n - 1) // 4
    assert len(symmetries) == 5 and verified == symmetries[:4]
    for M, _ in verified:  # translations x -> x + a e_k of the affine chart
        assert [(i, j) for i, row in enumerate(M) for j, a in enumerate(row)
                if a % p != (i == j)] in ([(k, 0)] for k in range(1, s + 1))
    assert G.rows[0].bit_count() == (n - 1) // 4 and list(G.orbit_minima) == [0]
    assert verified == symmetries[:4]
    assert max_common_neighborhood(G, 2) == reference_max_common(G, 2)
    assert verified == symmetries and len(G.symmetries) == 5
    G.edge_count()
    find_grid(G, 2, 2)
    assert verified == symmetries


def test_pruned_scan_verifies_every_candidate_once(monkeypatch):
    p, s = 7, 3
    c = construct("1c", p, s)
    symmetries = family_symmetries("1c", p, s)
    verified = recording_verifications(monkeypatch)
    G = build_graph(c.hypersurface, p, symmetries=symmetries)
    assert find_grid(G, 3, 7) is None
    assert len(symmetries) == 4 and verified == symmetries
    G.edge_count()
    assert verified == symmetries


def test_translation_invariant_scan_computes_one_kernel_entry(monkeypatch):
    # 1b at p = 11 keeps a translation of x and y along every axis: the
    # kernel computes row 0 alone, column 0 is read off it, every other row
    # and column read is one of them moved, no map is applied to a vertex
    # list, and the signed permutations that fix vertex 0 give their minima
    # unwalked: every orbit question over vertices is answered by the
    # closed forms, which `_orbits` gives alone over no vertex
    from gridlab import gridcheck, sweep

    def never(*args):
        raise AssertionError("a permutation array was built")

    orbits = gridcheck._orbits

    def unwalked(maps, n):
        closed = orbits(maps, 0)
        assert closed or not n, "an orbit walk ran"
        return closed

    monkeypatch.setattr(gridcheck._ChartMap, "table", property(never))
    monkeypatch.setattr(gridcheck, "_orbits", unwalked)
    monkeypatch.delenv("GRIDLAB_BUDGET", raising=False)
    kernels = recording_kernels(monkeypatch)
    assert sweep._check_1b(11) == {"pass": True, "max_common": 2, "argmax": [0, 1, 13]}
    assert kernels == [[0]]


@pytest.mark.parametrize("family, p, s", [("1b", 7, 3), ("1b", 11, 3), ("1b", 19, 3),
                                          ("1c", 7, 2), ("1c", 5, 3)])
def test_column_0_under_translations_is_the_kernel_column(family, p, s):
    # right vertex 0 is adjacent to left u iff -step∘u is in row 0; the
    # column is that set, with no kernel set up for the columns
    c = construct(family, p, s)
    kernel_column = build_graph(c.hypersurface, p).cols[0]
    G = build_graph(c.hypersurface, p, symmetries=family_symmetries(family, p, s))
    assert G.symmetries and G.cols._moves is not None
    assert G.cols[0] == kernel_column
    assert G.cols._kernel is None


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    bihomogeneous_forms([2, 3, 5, 7]),
    st.sampled_from(["affine", "projective"]),
    st.integers(1, 3),
)
def test_transposed_columns_and_scans_match_reference(data, form, chart, s):
    # the columns a scan without symmetries takes from its rows, after some
    # from the kernel, are the reference rows transposed, and the scans
    # answer as the per-candidate reference scan does
    p, H = form
    X = data.draw(open_sets(p, H.sx, "x"))
    Y = data.draw(open_sets(p, H.sy, "y"))

    def graph():
        return build_graph(H, p, X, Y, chart=chart)

    try:
        G = graph()
    except EmptySide:  # the open sets removed a whole side
        return
    left, right = chart_coords(G, chart)
    rows = reference_rows(_terms_int(reduce_hypersurface_mod(H, p)), left, right, p)
    columns = transpose(rows, len(right))
    for j in data.draw(st.lists(st.integers(0, len(right) - 1), max_size=3)):
        assert G.cols[j] == columns[j]
    assert G.cols.fill() == columns
    assert list(G.cols) == columns and list(G.rows) == rows
    if s > len(left) or comb(len(left), s) > 10**5:
        return
    ref = BipartiteGraph(G.left, G.right, rows, columns)
    G = graph()
    assert max_common_neighborhood(G, s) == reference_max_common(ref, s)
    assert all(G.cols._known[j] == columns[j] for j in G.cols._known)
    for t in (1, 2, 3, len(right)):
        w = find_grid(G, s, t)
        assert (None if w is None else (w.S, w.T)) == reference_find_grid(ref, s, t)


if __name__ == "__main__":
    # PYTHONPATH=src python -O tests/test_gridcheck.py: the recorded outputs
    # and the on-demand adjacency, checked with asserts stripped from gridlab;
    # with the argument `projective`, data/projective_golden.json alone
    if sys.argv[1:] == ["projective"]:
        mismatches = projective_mismatches()
        for case in mismatches:
            print(json.dumps(case), file=sys.stderr)
        sys.exit(1 if mismatches else 0)
    mismatches = recorded_mismatches(WITNESSES, "gridcheck") + recorded_mismatches(EDGES, "edges")
    for case in mismatches:
        print(json.dumps(case), file=sys.stderr)
    faults = laziness_faults()
    for fault in faults:
        print(fault, file=sys.stderr)
    sys.exit(1 if mismatches or faults else 0)

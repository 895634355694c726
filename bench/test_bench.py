"""Tests of the benchmark itself: seeded inputs, the oracle, the traced run
and the contract of run.py.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import gridlab.cli  # noqa: E402


def _job(jobs, name):
    return next(j for j in jobs if j["name"] == name)


def _inputs(workload, seed, d: Path, monkeypatch, constructions=()):
    files, _, jobs = workloads.generate(workload, seed)
    workloads.write_inputs(files, d)
    monkeypatch.chdir(d)
    for family, p, s, path in constructions:
        with contextlib.redirect_stdout(io.StringIO()):
            assert gridlab.cli.main(workloads.construct_argv(family, p, s, path)) == 0
    return jobs


def _run(job, capsys):
    rc = gridlab.cli.main(list(job["argv"]))
    return rc, capsys.readouterr().out


# -- seeded inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    dirs = []
    for k, seed in enumerate((7, 7, 8)):
        d = tmp_path / f"d{k}"
        d.mkdir()
        files, constructions, jobs = workloads.generate(workload, seed)
        workloads.write_inputs(files, d)
        (d / "jobs.json").write_text(json.dumps(jobs, sort_keys=True))
        dirs.append({f.name: f.read_bytes() for f in d.iterdir()})
    assert dirs[0] == dirs[1]
    if workload != "sweep":
        assert dirs[0] != dirs[2]


# -- the oracle catches corrupted output --------------------------------------------


def test_oracle_flags_a_mutated_witness(tmp_path, monkeypatch, capsys):
    jobs = _inputs("graphs", 0, tmp_path, monkeypatch, [("1c", 7, 3, "h1c_7_3.json")])
    job = _job(jobs, "gridcheck-1c-7-t3")
    rc, out = _run(job, capsys)
    assert rc == 1
    assert oracle.check(job, rc, out, "", tmp_path) is None
    good = json.loads(out)

    moved = json.loads(out)
    moved["T_points"][0][0] = (moved["T_points"][0][0] + 1) % 7
    assert oracle.check(job, rc, json.dumps(moved), "", tmp_path)

    # index and point moved together: caught by evaluating the form
    pts = oracle._points(7, 3, "affine")
    terms = oracle._form_mod(json.loads((tmp_path / "h1c_7_3.json").read_text()), 7)
    u = (1,) + tuple(good["S_points"][0])
    j = next(j for j in range(len(pts)) if oracle._eval_mod(terms, u + (1,) + pts[j], 7))
    swapped = json.loads(out)
    swapped["witness"]["T"][0] = j
    swapped["witness"]["T"].sort()
    swapped["T_points"] = [list(pts[k]) for k in swapped["witness"]["T"]]
    assert "not on the hypersurface" in oracle.check(job, rc, json.dumps(swapped), "", tmp_path)


def test_oracle_flags_a_wrong_M(tmp_path, monkeypatch, capsys):
    jobs = _inputs("algebra", 0, tmp_path, monkeypatch)
    for name in ("s1-classify-QQ-y1", "s1-classify-F101-y0"):
        job = _job(jobs, name)
        rc, out = _run(job, capsys)
        assert oracle.check(job, rc, out, "", tmp_path) is None
        bad = json.loads(out)
        bad["M"] += 1
        assert "M is" in oracle.check(job, rc, json.dumps(bad), "", tmp_path)


def test_oracle_flags_an_edge_count_off_by_one(tmp_path, monkeypatch, capsys):
    _inputs("graphs", 0, tmp_path, monkeypatch, [("1a", 7, 2, "h1a_7.json")])
    job = {"name": "edges-1a-7",
           "argv": ["edges", "--input", "h1a_7.json", "--p", "7", "--s", "2", "--t", "2"],
           "expect": {"kind": "edges", "s": 2, "t": 2, "n": 2 * 49, "m": 7**3 - 7}}
    rc, out = _run(job, capsys)
    assert oracle.check(job, rc, out, "", tmp_path) is None
    bad = json.loads(out)
    bad["m"] -= 1
    assert oracle.check(job, rc, json.dumps(bad), "", tmp_path)


def test_oracle_flags_a_traceback_and_a_wrong_exit_code(tmp_path, monkeypatch, capsys):
    jobs = _inputs("algebra", 0, tmp_path, monkeypatch)
    job = _job(jobs, "curves-common-F101")
    rc, out = _run(job, capsys)
    assert oracle.check(job, rc, out, "", tmp_path) is None
    assert oracle.check(job, 2, out, "", tmp_path)
    assert oracle.check(job, rc, out, oracle.TRACEBACK + "\n", tmp_path)


# -- the traced run -----------------------------------------------------------------


def test_traced_stdout_is_byte_identical_to_the_cli(tmp_path, monkeypatch):
    jobs = _inputs("algebra", 0, tmp_path, monkeypatch)
    env = run.child_env()
    cli_out = []
    for i, job in enumerate(jobs):
        run.chain_input(job, [o.decode() for o in cli_out], tmp_path)
        rc, _, _ = run.run_cli(job["argv"], tmp_path, env, tmp_path / f"log{i}")
        cli_out.append(Path(f"{tmp_path}/log{i}.out").read_bytes())
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "gridlab"}
    tracer = tracing.Tracer(modules)
    plain, spanned = run.run_pairs(gridlab.cli.main, jobs, tmp_path, tracer)
    assert [r[1].encode() for r in plain] == cli_out
    assert [r[1].encode() for r in spanned] == cli_out
    assert not tracer.patches, "wrappers must be removed after each job"
    assert gridlab.cli.build_graph is gridlab.gridcheck.build_graph
    names = {rec[0] for rec in tracer.spans}
    assert {"poly.gcd", "classify_s1.classify", "curves.imult", "cremona.apply_map"} <= names
    for name, start, end, parent, job in tracer.spans:
        assert end >= start
        if parent is not None:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == job


def test_self_time_subtracts_children():
    t = tracing.Tracer({})
    t.spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0], ["b", 5.0, 6.0, 0, 0],
               ["c", 2.0, 3.0, 1, 0]]
    assert t.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert t.root_time() == 10.0


def test_speed_factor_uses_the_reps_of_the_stretch():
    probe = speed.Probe()
    probe.samples = [(1.0, 0.010), (2.0, 0.010), (3.0, 0.010), (11.0, 0.040), (12.0, 0.040),
                     (13.0, 0.040)]
    assert probe.factor(0.5, 3.5) == speed.REF_REP_S / 0.010
    assert probe.factor(10.5, 13.5) == speed.REF_REP_S / 0.040
    assert probe.factor() == speed.REF_REP_S / 0.025
    # no rep ended in the stretch: the three nearest (11, 3, 12) stand in
    assert probe.factor(4.0, 10.8) == pytest.approx(speed.REF_REP_S / 0.030)


def test_speed_probe_samples_while_running(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 0.01)
    with speed.Probe() as probe:
        time.sleep(0.3)
    n = len(probe.samples)
    assert n > speed.MIN_REPS
    time.sleep(0.05)
    assert len(probe.samples) == n
    assert all(s > 0 for _, s in probe.samples)


# -- BENCHMARK.json and the run.py contract -----------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in tracing.PER_LAYER]
    layer_names = set(tracing.layer_metrics(tracing.Tracer({}), 1.0, 1.0))
    layer_names |= {"cli.startup_s", "fields.mul_ns.qq", "fields.mul_ns.fp",
                    "fields.mul_ns.fq", "fields.inv_ns.fq"}
    assert layer_names == {row[0] for row in tracing.PER_LAYER}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout

#!/usr/bin/env python3
"""gridlab benchmark: one workload through the `gridlab` CLI, as users run it.

    python3 bench/run.py --workload graphs --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is taken from the
checkout's `src/`, and all files go to `bench/.work/`.

One client runs one CLI job at a time, each in a fresh interpreter (a
closed loop).  The job list is repeated while another pass fits in
`--seconds`; timings are medians over passes.  Set-up (input generation,
the `gridlab construct` calls and one import of the package) is repeated
`SETUP_REPEATS` times and reported as its median.  Every output is checked
by `oracle.py`, outside the timed region, and must be byte-identical across
passes.

The benchmark and its jobs share one CPU with the speed probe of
`speed.py`.  Each job's and each set-up's time is scaled by the speed
factor the probe measured while it ran, which removes the shared host's
drift; the raw times are printed beside them.

With `--trace 1` the job list instead runs in-process through
`gridlab.cli.main`, once untraced and once with the layer spans of
`tracing.py` installed, and the per-layer metrics are reported.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it give every metric by name and unit, and a
record of the run (Python version, CPU count, git revision, seed, samples).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
JOB_TIMEOUT_S = 150

# (metric, unit): what a --trace 0 run reports
END_TO_END = (
    ("wall_norm_s", "s"),
    ("slowest_job_norm_s", "s"),
    ("decided_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class SetupFailed(Exception):
    pass


@dataclass
class Report:
    metrics: dict  # name -> value, the metrics BENCHMARK.json lists
    units: dict  # name -> unit
    attempted: int
    failed: int
    jobs: list  # per-job detail for record.json
    samples: dict
    run_dir: Path
    extra: dict = field(default_factory=dict)  # name -> (value, unit), printed only


# -- child processes ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GRIDLAB_BUDGET", None)
    return env


def run_cli(argv: list, cwd: Path, env: dict, log: Path) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of one fresh `gridlab`
    process; its stdout and stderr go to `log`.out and `log`.err."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gridlab.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def read_log(log: Path) -> tuple:
    return (Path(f"{log}.out").read_text(errors="replace"),
            Path(f"{log}.err").read_text(errors="replace"))


def probe(cwd: Path, env: dict) -> None:
    """Import the package in a fresh interpreter and check that it is the
    checkout's own."""
    code = "import gridlab.cli; print(gridlab.cli.__file__)"
    res = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60)
    where = Path(res.stdout.strip() or ".").resolve()
    if res.returncode != 0 or SRC.resolve() not in where.parents:
        raise SetupFailed(f"gridlab does not import from {SRC}: {res.stderr.strip()}")


# -- set-up -------------------------------------------------------------------------


def setup(workload: str, seed: int, run_dir: Path, env: dict, repeats: int) -> tuple:
    """Generate the inputs `repeats` times into fresh directories; returns
    (jobs, input directory, (start, end) of each repeat).  Every repeat must
    produce byte-identical files."""
    windows, snapshots = [], []
    for k in range(repeats):
        d = run_dir / f"inputs{k}"
        d.mkdir()
        t0 = time.perf_counter()
        probe(d, env)
        files, constructions, jobs = workloads.generate(workload, seed)
        workloads.write_inputs(files, d)
        for family, p, s, path in constructions:
            argv = workloads.construct_argv(family, p, s, path)
            rc, _, _ = run_cli(argv, d, env, run_dir / f"construct{k}")
            if rc != 0:
                raise SetupFailed(f"gridlab {' '.join(argv)} exited {rc}")
        windows.append((t0, time.perf_counter()))
        snapshots.append({f.name: f.read_bytes() for f in sorted(d.iterdir())})
    if any(snap != snapshots[0] for snap in snapshots):
        raise SetupFailed("set-up repeats wrote different inputs")
    return jobs, run_dir / "inputs0", windows


def chain_input(job: dict, outputs: list, workdir: Path) -> None:
    """A job that reads an earlier job's stdout gets it written first."""
    src = job.get("input_from")
    if src:
        (workdir / src["path"]).write_text(outputs[src["job"]])


# -- end-to-end run -----------------------------------------------------------------


def measure(jobs, workdir: Path, run_dir: Path, env: dict, seconds: float) -> list:
    """Passes over the job list, each a list of per-job dicts; another pass
    starts only while it is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        results, outputs = [], []
        for i, job in enumerate(jobs):
            chain_input(job, outputs, workdir)
            log = run_dir / f"p{len(passes)}_{i}"
            t0 = time.perf_counter()
            rc, wall, rss = run_cli(job["argv"], workdir, env, log)
            out, err = read_log(log)
            outputs.append(out)
            results.append({"rc": rc, "wall": wall, "start": t0, "rss": rss, "stdout": out,
                            "stderr": err})
        passes.append(results)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def judge(jobs, passes, workdir: Path) -> list:
    """Failure reason (or None) per job and pass.  The oracle sees the first
    pass; later passes must repeat its exit codes and stdout exactly."""
    verdicts = []
    for k, results in enumerate(passes):
        row = []
        for job, res, first in zip(jobs, results, passes[0]):
            if k == 0:
                why = oracle.check(job, res["rc"], res["stdout"], res["stderr"], workdir)
            elif (res["rc"], res["stdout"]) != (first["rc"], first["stdout"]):
                why = "output differs from the first pass"
            elif oracle.TRACEBACK in res["stderr"]:
                why = "traceback on stderr"
            else:
                why = verdicts[0][len(row)]
            row.append(why)
        verdicts.append(row)
    return verdicts


def end_to_end(workload, seed, seconds, env) -> Report:
    run_dir = fresh_dir(f"{workload}-{seed}-e2e")
    speed.pin()
    with speed.Probe() as probe_speed:
        jobs, workdir, setup_windows = setup(workload, seed, run_dir, env, SETUP_REPEATS)
        passes = measure(jobs, workdir, run_dir, env, seconds)
    failures = judge(jobs, passes, workdir)
    attempted = sum(len(p) for p in passes)
    failed = sum(why is not None for row in failures for why in row)
    decided = results = 0
    for res_pass in passes:
        for job, res in zip(jobs, res_pass):
            d, n = oracle.verdicts(job, res["stdout"])
            decided, results = decided + d, results + n
    setup_times = [end - start for start, end in setup_windows]
    for r in (r for p in passes for r in p):
        r["norm"] = r["wall"] * probe_speed.factor(r["start"], r["start"] + r["wall"])
    raw = {
        "wall_s": statistics.median(sum(r["wall"] for r in p) for p in passes),
        "slowest_job_s": statistics.median(max(r["wall"] for r in p) for p in passes),
        "setup_s": statistics.median(setup_times),
    }
    metrics = {
        "wall_norm_s": statistics.median(sum(r["norm"] for r in p) for p in passes),
        "slowest_job_norm_s": statistics.median(max(r["norm"] for r in p) for p in passes),
        "decided_fraction": decided / results,
        "peak_rss_mb": max(r["rss"] for p in passes for r in p),
        "setup_s": statistics.median((end - start) * probe_speed.factor(start, end)
                                     for start, end in setup_windows),
    }
    per_job = [
        {"name": job["name"],
         "median_s": statistics.median(p[i]["wall"] for p in passes),
         "exit": passes[0][i]["rc"],
         "failure": next((row[i] for row in failures if row[i]), None)}
        for i, job in enumerate(jobs)
    ]
    samples = {"passes": len(passes), "jobs_per_pass": len(jobs), "setups": len(setup_times),
               "pass_s": [sum(r["wall"] for r in p) for p in passes], "setup_s": setup_times,
               "pass_norm_s": [sum(r["norm"] for r in p) for p in passes],
               "speed_reps": len(probe_speed.samples)}
    extra = {f"raw.{k}": (v, "s") for k, v in raw.items()}
    extra["speed.rep_s"] = (probe_speed.rep_s(), "s")
    extra["speed.factor"] = (probe_speed.factor(), "ratio")
    extra["failed_fraction"] = (failed / attempted, "fraction")
    return Report(metrics, dict(END_TO_END), attempted, failed, per_job, samples, run_dir, extra)


# -- traced run ---------------------------------------------------------------------


def run_in_process(main, job: dict) -> tuple:
    """One job through `main(argv)` in this process: (rc, stdout, stderr,
    wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(job["argv"]))
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def run_pairs(main, jobs, workdir: Path, tracer) -> tuple:
    """Each job untraced and traced, back to back, in alternating order so
    that drift and first-call costs fall on both sides alike."""
    plain, spanned, outputs = [], [], []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for i, job in enumerate(jobs):
            chain_input(job, outputs, workdir)
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.start_job(i)
                    tracer.install()
                try:
                    res = run_in_process(main, job)
                finally:
                    tracer.uninstall()
                (spanned if with_trace else plain).append(res)
            outputs.append(plain[-1][1])
    finally:
        os.chdir(here)
    return plain, spanned


def traced(workload, seed, seconds, env) -> Report:
    """One untraced and one traced in-process pass; `seconds` does not apply."""
    run_dir = fresh_dir(f"{workload}-{seed}-trace")
    jobs, workdir, _ = setup(workload, seed, run_dir, env, 1)
    startup = [run_cli(["curves", "moura", "--d1", "3", "--d2", "2"], workdir, env,
                       run_dir / f"startup{k}")[1] for k in range(STARTUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import gridlab.cli
    import gridlab.fields

    modules = {n: m for n, m in sys.modules.items() if n == "gridlab" or n.startswith("gridlab.")}
    metrics = {"cli.startup_s": statistics.median(startup)}
    metrics.update(tracing.field_metrics(gridlab.fields, seed))
    tracer = tracing.Tracer(modules)
    plain, spanned = run_pairs(gridlab.cli.main, jobs, workdir, tracer)
    tracer.write(run_dir / "spans.jsonl")
    traced_s = sum(r[3] for r in spanned)
    metrics.update(tracing.layer_metrics(tracer, traced_s, sum(r[3] for r in plain)))
    failed, per_job = 0, []
    for job, (rc, out, err, wall), ref in zip(jobs, spanned, plain):
        why = oracle.check(job, rc, out, err, workdir)
        if why is None and (rc, out) != ref[:2]:
            why = "traced stdout differs from untraced stdout"
        failed += why is not None
        per_job.append({"name": job["name"], "traced_s": wall, "untraced_s": ref[3],
                        "exit": rc, "failure": why})
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    samples = {"passes": 2, "jobs_per_pass": len(jobs), "startup_repeats": STARTUP_REPEATS,
               "spans": len(tracer.spans)}
    return Report(metrics, units, len(jobs), failed, per_job, samples, run_dir)


# -- reporting ----------------------------------------------------------------------


def fresh_dir(name: str) -> Path:
    d = WORK / name
    if d.exists():
        shutil.rmtree(d)
    d.mkdir(parents=True)
    return d


def git_rev() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gridlab" / "cli.py").is_file():
        print(f"error: no gridlab sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    run = traced if args.trace else end_to_end
    try:
        rep = run(args.workload, args.seed, args.seconds, env)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    metrics = {k: {"value": v, "unit": rep.units[k]} for k, v in rep.metrics.items()}
    also = {k: {"value": v, "unit": u} for k, (v, u) in rep.extra.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_rev": git_rev(), "samples": rep.samples,
        "metrics": metrics, "also": also, "jobs": rep.jobs,
    }
    (rep.run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in {**metrics, **also}.items():
        print(f"{name:34s} {m['value']:>16.6f} {m['unit']}")
    for job in rep.jobs:
        if job["failure"]:
            print(f"FAILED {job['name']}: {job['failure']}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "jobs"}))
    result = {"correct": rep.failed == 0, "attempted": rep.attempted, "failed": rep.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

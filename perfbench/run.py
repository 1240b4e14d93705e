"""End-to-end and per-layer benchmark of the dimerwave pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-f64 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                # every workload in turn, seed 0

Each op runs in a fresh interpreter, one at a time (a closed loop with one
client), so interpreter start, imports and output writing are billed as a
user pays them.  The package is imported from ``src/`` of this checkout;
nothing is installed.  Ops start while the next one is expected to end within
``--seconds`` (at least one op, or one plain and one traced op with
``--trace 1``).  The set-up before the timed ops (an import probe, plus the
solution archive the ring workloads start from) is repeated at least three
times, and up to nine while under two seconds in all, and its median is
reported as ``setup_s``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over plain ops.  ``--trace 1`` alternates plain and traced ops and reports the
per-layer metrics of the traced ones (see ``tracer.py``), with the tracing
overhead as the median traced minus the median plain wall time.  Every op's
outputs are checked (``workloads.py``); an op that exits non-zero, fails a
gate, misses a reference value or differs from the run's first op of the same
kind counts as failed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``correct`` is
false when an op's outputs were wrong without the program saying so (a
reference miss or a rerun mismatch).  A result set with the environment and
every op is written under ``.perfbench_work/results/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
SETUP_REPEATS = (3, 9)  # at least 3, and more while under SETUP_BUDGET_S
SETUP_BUDGET_S = 2.0
DEADLINE_S = 170.0  # the whole benchmark ends within 180 s

PROBE = """
import importlib.util, json, sys
import numpy
import dimerwave, dimerwave.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas, "numba": importlib.util.find_spec("numba") is not None,
                  "dimerwave_file": dimerwave.__file__}))
"""


class SetupError(RuntimeError):
    """The inputs of the timed ops could not be prepared."""


class Run:
    """State of one benchmark invocation for one workload."""

    def __init__(self, workload, seed, started):
        self.workload = workload
        self.seed = seed
        self.eps = workload.eps_values(seed)
        self.documented = self.eps == list(workload.base_eps)
        self.work = WORK / workload.name
        self.python = sys.executable
        self.child = str(Path("perfbench") / "child.py")
        self.started = started
        self.archive = None
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, argv, stdout_path):
        """Run ``argv`` to completion: ``(exit code, wall s, cpu s, peak RSS MB)``."""
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        with open(stdout_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6

    def call(self, argv):
        """Run a set-up step; returns ``(exit code, output text)``."""
        log = self.work / "setup.log"
        code = self.spawn(argv, log)[0]
        return code, log.read_text(errors="replace")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def src_lines():
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def setup(run):
    """Probe the import and prepare the inputs: ``(seconds, environment, outputs)``."""
    fresh_dir(run.work)
    t0 = time.perf_counter()
    code, text = run.call([run.python, "-c", PROBE])
    if code != 0:
        raise SetupError(f"import probe exited {code}:\n{text}")
    env = json.loads(text.strip().splitlines()[-1])
    imported = Path(env.pop("dimerwave_file")).resolve()
    if imported.parent.parent != ROOT / "src":
        raise SetupError(f"imported {imported}, not this checkout's src/")
    fresh_dir(run.work / "setup")
    outcome = run.workload.prepare(run)
    seconds = time.perf_counter() - t0
    if outcome is not None and outcome.failures:
        raise SetupError("set-up outputs failed their checks: " + "; ".join(outcome.failures))
    return seconds, env, outcome.outputs if outcome is not None else {}


def run_op(run, index, traced):
    out = fresh_dir(run.work / "out")
    trace_file = run.work / "trace.json" if traced else None
    argv = run.workload.argv(run, out, trace_file)
    stdout_path = run.work / "stdout.txt"
    code, wall, cpu, rss = run.spawn(argv, stdout_path)
    stdout = stdout_path.read_text(errors="replace")
    outcome = run.workload.check(run, out, code, stdout)
    op = {"index": index, "traced": traced, "exit_code": code, "wall_s": wall,
          "cpu_s": cpu, "peak_rss_mb": rss, "failures": outcome.failures,
          "outputs": outcome.outputs, "fingerprint": outcome.fingerprint,
          "wrong": outcome.wrong}
    if traced:
        if trace_file.is_file():
            op["layers"] = json.loads(trace_file.read_text())
            op["layers"]["cli.bytes_written"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
        else:
            op["failures"].append("traced op wrote no layer metrics")
    return op


def closed_loop(run, seconds, trace):
    """Ops one after another while the next is expected to fit in ``seconds``."""
    ops, longest = [], 0.0
    t0 = time.perf_counter()
    kinds = [False, True] if trace else [False]
    while len(ops) < len(kinds) or (
            time.perf_counter() - t0 + longest <= seconds
            and time.perf_counter() - run.started + longest <= DEADLINE_S):
        op = run_op(run, len(ops), kinds[len(ops) % len(kinds)])
        longest = max(longest, op["wall_s"])
        ops.append(op)
    for op in ops[1:]:
        if op["fingerprint"] != ops[0]["fingerprint"]:
            op["failures"].append("outputs differ from the first op of the run")
            op["wrong"] = True
    return ops


def percentile_note(values):
    """Highest of p90/p99 that has at least ten samples beyond it, if any."""
    for q in (0.99, 0.9):
        if len(values) * (1 - q) >= 10:
            ranked = sorted(values)
            return f"p{round(q * 100)} {ranked[int(q * len(values))]:.4f}"
    return f"no percentile (n = {len(values)} < 100)"


def summarize(spec, setup_s, ops, trace):
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    failed = [op for op in ops if op["failures"]]
    if trace:
        values = {}
        for name in traced[0].get("layers", {}) if traced else ():
            values[name] = statistics.median(op["layers"][name] for op in traced
                                             if "layers" in op)
        values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                      - statistics.median(op["wall_s"] for op in plain))
        wanted = spec["per_layer"]
    else:
        values = {name: statistics.median(op[name] for op in plain)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = setup_s
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SetupError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def report(run, why, env, setup_times, setup_outputs, ops, result):
    print(f"== {run.workload.name}  seed {run.seed}  eps {','.join(run.eps)}")
    print(f"   why: {why}")
    print("   env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("   set-up: " + ", ".join(f"{t:.3f}" for t in setup_times) + " s")
    for name, value in setup_outputs.items():
        print(f"   set-up {name:<27} {value!r}")
    for op in ops:
        kind = "traced" if op["traced"] else "plain "
        status = "ok" if not op["failures"] else "FAILED"
        print(f"   op {op['index']:2d} {kind} wall {op['wall_s']:8.3f} s  cpu {op['cpu_s']:8.3f} s"
              f"  rss {op['peak_rss_mb']:7.1f} MB  exit {op['exit_code']}  {status}")
        for failure in op["failures"]:
            print(f"        - {failure}")
    plain_walls = [op["wall_s"] for op in ops if not op["traced"]]
    print(f"   wall_s over {len(plain_walls)} plain ops: {percentile_note(plain_walls)}")
    for name, m in result["metrics"].items():
        print(f"   {name:<34} {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_ops':<34} {result['failed']}/{result['attempted']} ({share:.3f})")
    if ops and ops[0]["outputs"]:
        for name, value in ops[0]["outputs"].items():
            print(f"   {name:<34} {value!r}")


def bench(spec, name, seed, seconds, trace, started, save):
    run = Run(WORKLOADS[name], seed, started)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS[0] or (
            len(setup_times) < SETUP_REPEATS[1] and sum(setup_times) < SETUP_BUDGET_S):
        seconds_taken, env, setup_outputs = setup(run)
        setup_times.append(seconds_taken)
    env.update(cpus=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               machine=platform.machine(), src_lines=src_lines())
    ops = closed_loop(run, seconds, trace)
    result = summarize(spec, statistics.median(setup_times), ops, trace)
    report(run, why, env, setup_times, setup_outputs, ops, result)
    result_set = {"workload": name, "why": why, "seed": seed, "eps": run.eps,
                  "seconds": seconds, "trace": trace, "environment": env,
                  "setup_s": setup_times, "setup_outputs": setup_outputs,
                  "ops": ops, "result": result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result_set, indent=1))
    if save is not None:
        saved = json.loads(save.read_text()) if save.is_file() else {"claim": None, "runs": {}}
        saved["runs"][f"{name}/trace{int(trace)}"] = result_set
        save.write_text(json.dumps(saved, indent=1) + "\n")
    return result


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, help="merge the result set into this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dimerwave" / "cli.py").is_file():
        print(f"error: no dimerwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    save = args.save.resolve() if args.save else None
    results = {}
    try:
        for name in names:
            results[name] = bench(spec, name, args.seed, seconds, bool(args.trace),
                                  started if len(names) == 1 else time.perf_counter(), save)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the gutgraph command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
as it stands, nothing is installed. The benchmark drives the CLI the way a
user does: one process per command, one command at a time (a closed loop
with one client), ``--jobs 1``, and BLAS pinned to one thread in every
child. Set-up commands generate the workload's inputs from ``--seed``;
then the workload's timed commands run as iterations until ``--seconds``
have passed. The set-up is repeated ``SETUP_REPEATS`` times in all, spread
evenly over the run between iterations, and each repeat must reproduce
the first one's bytes. Every iteration's artifacts are checked and
compared byte for byte with the first clean iteration's; an iteration
that exits non-zero or fails a check counts as a failed operation.

With ``--trace 0`` the result holds the end-to-end metrics:
``wall_s`` (median iteration wall time, interpreter start included),
``setup_s`` (median set-up wall time) and ``peak_rss_mb`` (the largest
``ru_maxrss`` of any timed command). With ``--trace 1`` untraced and
traced iterations alternate; traced commands run through ``worker.py``,
which records spans around gutgraph's layers, and the result holds the
per-layer metrics of ``tracing.per_layer_metrics``.

The last line of standard output is the JSON result. All files go to
``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import os

# Pinned before anything can load numpy; children inherit the environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import SETUP_REPEATS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# what the installed `gutgraph` console script runs
CLI = "import sys; from gutgraph.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 170


class SetupError(RuntimeError):
    """The workload's inputs could not be generated."""


class Runner:
    """Runs gutgraph commands one at a time in child processes."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("GUTGRAPH_OUTDIR", None)
        env["TMPDIR"] = workdir
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, cli_args: list[str], traced: bool = False) -> dict:
        """Run one command; returns its wall time (spawn to exit), exit code,
        peak RSS in KiB and, when traced, its spans and start-up time."""
        log = os.path.join(self.workdir, "command.log")
        spans_path = os.path.join(self.workdir, "spans.json")
        with open(log, "wb") as out:
            start = time.perf_counter()
            spawned = time.monotonic()
            argv = ([sys.executable, str(HERE / "worker.py"), spans_path,
                     repr(spawned)] if traced else [sys.executable, "-c", CLI])
            proc = subprocess.Popen(argv + cli_args, env=self.env, cwd=self.workdir,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {"wall_s": wall, "code": proc.returncode,
                  "rss_kib": usage.ru_maxrss}
        if proc.returncode != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"perfbench: `gutgraph {' '.join(cli_args)}` exited "
                  f"{proc.returncode}:\n{tail}", file=sys.stderr)
        elif traced:
            with open(spans_path, encoding="utf-8") as fh:
                result.update(json.load(fh))
        return result


def run_setup(runner: Runner, workload, seed: int, out: str) -> float:
    """Run the workload's set-up commands once, writing into ``out``;
    returns their summed wall time."""
    total = 0.0
    for args in workload.setup(out, seed):
        result = runner.run(args)
        if result["code"] != 0:
            raise SetupError(f"set-up command `gutgraph {' '.join(args)}` "
                             f"exited {result['code']}")
        total += result["wall_s"]
    return total


def repeat_setup(runner: Runner, workload, seed: int, data: str) -> float:
    """Run the set-up once more into a scratch copy, which must hold the
    same bytes as ``data``; returns its wall time."""
    copy = data + "-repeat"
    wall = run_setup(runner, workload, seed, copy)
    problems = checks.diff_outputs(data, copy)
    shutil.rmtree(copy)
    if problems:
        raise SetupError(f"set-up is not reproducible: {problems[:3]}")
    return wall


def run_commands(runner: Runner, commands: list[list[str]], traced: bool
                 ) -> tuple[list[dict], list[str]]:
    """Run commands in order, stopping at the first that fails; returns
    their records and the failure, if any."""
    records = []
    for args in commands:
        result = runner.run(args, traced)
        records.append(result)
        if result["code"] != 0:
            return records, [f"`gutgraph {args[0]}` exited {result['code']}"]
    return records, []


def machine_context() -> dict:
    import numpy

    ctx = {"nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
           "python": platform.python_version(),
           "numpy": numpy.__version__,
           "loadavg": os.getloadavg()}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        ctx["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy older than 1.26
        ctx["blas"] = "unknown"
    ctx["openblas_threads_in_effect"] = _openblas_threads()
    return ctx


def _openblas_threads() -> int | None:
    """Thread count the OpenBLAS loaded by numpy in this process reports;
    children inherit the same pinning environment. None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def benchmark(workload, seed: int, seconds: float, trace: bool, workdir: str
              ) -> dict:
    runner = Runner(workdir)
    data = os.path.join(workdir, "setup")
    setup_times = [run_setup(runner, workload, seed, data)]
    walls: list[float] = []          # untraced iteration wall times
    traced: list[list[dict]] = []    # command records of traced iterations
    overheads: list[float] = []      # traced wall minus the untraced one before
    rss_kib, attempted, failed = 0, 0, 0
    reference, previous = None, None  # first clean output; last clean untraced wall
    start = time.perf_counter()
    while True:
        is_traced = trace and attempted % 2 == 1
        out = os.path.join(workdir, f"iter{attempted}")
        commands, problems = run_commands(runner, workload.timed(data, out),
                                          is_traced)
        wall = sum(c["wall_s"] for c in commands)
        attempted += 1
        if not problems:
            problems = workload.check(out)
        if not problems and reference is not None:
            problems = checks.diff_outputs(reference, out)
        if not problems and reference is None:
            reference = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        if problems:  # a failed iteration's timings are not measurements
            failed += 1
            print(f"perfbench: iteration {attempted} failed: {problems[:5]}",
                  file=sys.stderr)
        elif is_traced:
            traced.append(commands)
            if previous is not None:
                overheads.append(wall - previous)
        else:
            walls.append(wall)
            rss_kib = max([rss_kib] + [c["rss_kib"] for c in commands])
        previous = wall if not (problems or is_traced) else None
        elapsed = time.perf_counter() - start
        # the set-up repeats due by now, at evenly spaced times of the run
        due = 1 + int((SETUP_REPEATS - 1) * min(elapsed / seconds, 1.0))
        while len(setup_times) < due:
            setup_times.append(repeat_setup(runner, workload, seed, data))
        if elapsed >= seconds and (not trace or attempted >= 2):
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(repeat_setup(runner, workload, seed, data))

    print(f"iterations: {len(walls)} untraced, {len(traced)} traced; "
          f"untraced walls (s): {[round(w, 3) for w in walls]}; "
          f"set-up (s): {[round(t, 3) for t in setup_times]}")
    if trace:
        print(f"tracing overhead from {len(overheads)} traced/untraced pairs (s): "
              f"{[round(o, 3) for o in overheads]}")
        metrics = tracing.per_layer_metrics(traced, overheads) if traced else {}
        for p in workload.predictions:
            value = sum(metrics[m][0] for m in p.metrics) if metrics else float("nan")
            verdict = "ok" if p.lo <= value <= p.hi else "OUTSIDE PREDICTION"
            print(f"prediction {p.label}: measured {value:.4f}, "
                  f"predicted [{p.lo}, {p.hi}] {verdict}")
    else:
        metrics = {
            "wall_s": (tracing.percentile(walls, 50), "s"),
            "setup_s": (tracing.percentile(setup_times, 50), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gutgraph" / "cli.py").is_file():
        print(f"perfbench: no gutgraph sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    # a terminated run still stops its child process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work)
    print("context before: " + json.dumps(machine_context()))
    try:
        # synth needs a non-negative seed; any integer maps to one
        result = benchmark(WORKLOADS[args.workload], args.seed % 2**32,
                           args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:  # another run's files are still there
            pass
    print("context after: loadavg " + json.dumps(os.getloadavg()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

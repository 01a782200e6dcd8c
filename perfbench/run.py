"""Benchmark of the weaklab command-line interface.

    python3 perfbench/run.py --workload sweep_exact --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Each run starts worker processes (perfbench/worker.py) with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1; the workers import weaklab
from ``src/`` and call ``weaklab.cli.main(argv)`` in-process.

``--trace 0`` prints the end-to-end metrics of a timed run; ``--trace 1``
prints the per-layer metrics of a traced run. ``--workload all`` runs
every workload both ways. Every metric is printed as ``name value
unit``, then a ``detail`` line (environment, seed, digests, counts), and
last one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
README.md beside this file says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402

#: Set-up is sampled in this many processes that stop once ready, plus
#: the measured one; setup_s is the median.
SETUP_SAMPLES = 7
#: A worker that has not finished by then is killed.
WORKER_TIMEOUT_S = 170
#: The workload that also gets an informational traced run with two
#: BLAS threads.
BLAS2_WORKLOAD = "sweep_fock"

END_TO_END = {
    "cmd_p90_ms": "ms",
    "cmd_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "computed_mb": "MB"}
PER_ROW_UNIT = "count/row"


class WorkerError(RuntimeError):
    """A worker process failed or broke the protocol."""


def spawn(workload: str, seed: int, mode: str, seconds: float, run_dir: Path,
          threads: int = 1) -> tuple[float, dict | None]:
    """Start one worker; return (set-up seconds, result or None)."""
    workdir = Path(tempfile.mkdtemp(dir=run_dir))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
            "--workdir", str(workdir)]
    with open(workdir / "stderr.txt", "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if code != 0 or ready.strip() != '{"ready": true}':
        raise WorkerError(f"{workload} {mode} worker exited {code}:\n{stderr[-2000:]}")
    shutil.rmtree(workdir)
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_row"):
        return PER_ROW_UNIT
    if name == "trace.overhead_pct":
        return "%"
    if name == "error_rate":
        return "ratio"
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path):
    setups = [spawn(workload, seed, "setup", 0, run_dir)[0] for _ in range(SETUP_SAMPLES)]
    setup_s, result = spawn(workload, seed, "timed", seconds, run_dir)
    setups.append(setup_s)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return {name: (result.pop(name), unit) for name, unit in END_TO_END.items()}, result


def traced_run(workload: str, seed: int, run_dir: Path):
    _, result = spawn(workload, seed, "traced", 0, run_dir)
    layers = result.pop("layers")
    layers["error_rate"] = result["error_rate"]
    if workload == BLAS2_WORKLOAD and (os.cpu_count() or 1) >= 2:
        _, blas2 = spawn(workload, seed, "traced", 0, run_dir, threads=2)
        result["blas_threads_2"] = {
            "untraced_s": blas2["untraced_s"],
            "layers": blas2["layers"],
            "outputs_match_1_thread": blas2["pass_sha256"] == result["pass_sha256"],
        }
    return {name: (value, per_layer_unit(name)) for name, value in layers.items()}, result


def report(workload: str, seed: int, trace: int, seconds: float, run_dir: Path):
    """Run one workload, print its metrics and detail lines, and return
    (metrics, correct, attempted, failed)."""
    if trace:
        metrics, detail = traced_run(workload, seed, run_dir)
    else:
        metrics, detail = timed_run(workload, seed, seconds, run_dir)
    print(f"# workload {workload}  seed {seed}  trace {trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print("detail " + json.dumps({"workload": workload, "trace": trace, **detail}))
    correct = detail["failed"] == 0 and not detail.get("trace_problems")
    return metrics, correct, detail["attempted"], detail["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weaklab" / "cli.py").is_file():
        print(f"perfbench: no weaklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        print("perfbench: --seconds must be in (0, 120]", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    metrics, correct, attempted, failed = {}, True, 0, 0
    try:
        for workload, trace in runs:
            values, ok, n_attempted, n_failed = report(
                workload, args.seed, trace, args.seconds, run_dir)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            correct &= ok
            attempted += n_attempted
            failed += n_failed
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: import weaklab, generate the inputs, then drive
``weaklab.cli.main(argv)`` in-process as a closed loop with one client.

run.py starts this file with the BLAS thread variables pinned and reads
two JSON lines from its standard output: ``{"ready": true}`` once
weaklab is imported and the inputs are written (the end of set-up), and
the result. Modes:

* ``setup``  -- stop after the ready line.
* ``timed``  -- one warm-up command, then repeat the command cycle for
  ``--seconds`` (and at least one whole cycle), timing each command.
* ``traced`` -- one warm-up command, then a fixed number of commands
  four times: untraced, traced, untraced, traced.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import check_output
from inputs import inputs_digest, make_inputs
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Commands per traced pass: one to three seconds untraced on one core.
TRACE_COMMANDS = {"sweep_exact": 24, "sweep_fock": 18, "run_mix": 800, "validate": 20}
#: Candidate tail percentiles; the highest with at least TAIL_BEYOND
#: commands slower than it is reported.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 5


class Client:
    """Issues the workload's commands one after another and checks each
    output. Identical commands must give byte-identical output, so only
    the first run of each distinct command is checked in full and later
    runs are compared with its sha256."""

    def __init__(self, cli, cmds, workdir: Path):
        self._cli = cli  # main is looked up per call, so a traced pass sees the wrapper
        self.cmds = cmds
        self._out = workdir / "out.txt"
        self._err = io.StringIO()
        self._first: dict[int, tuple[int, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, n: int) -> tuple[float, int, str]:
        """Run command n of the cycle: (seconds, rows, output sha256).
        A failed command reports 0 rows."""
        index = n % len(self.cmds)
        cmd = self.cmds[index]
        argv = list(cmd.argv)
        if cmd.kind != "validate":
            argv += ["--out", str(self._out)]
        self._err.seek(0)
        self._err.truncate()
        problem = None
        t0 = perf_counter()
        try:
            with redirect_stderr(self._err):
                if cmd.kind == "validate":
                    with open(self._out, "w") as fh, redirect_stdout(fh):
                        rc = self._cli.main(argv)
                else:
                    rc = self._cli.main(argv)
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            rc, problem = None, f"raised {exc!r}"
        seconds = perf_counter() - t0
        rows, digest = 0, ""
        if problem is None and rc != 0:
            problem = f"exit {rc}: {self._err.getvalue().strip()[-300:]}"
        if problem is None:
            try:
                data = self._out.read_bytes()
            except OSError as exc:
                problem = f"no output: {exc}"
        if problem is None:
            digest = hashlib.sha256(data).hexdigest()
            if index in self._first:
                rows, first_digest = self._first[index]
                if digest != first_digest:
                    problem = "output differs from the first run of the same command"
            else:
                rows, problem = check_output(cmd, data)
                if problem is None:
                    self._first[index] = (rows, digest)
        self._out.unlink(missing_ok=True)
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{' '.join(cmd.argv)}: {problem}")
            rows = 0
        return seconds, rows, digest

    def outputs_digest(self) -> str:
        """sha256 over the first output of every distinct command, in
        cycle order; comparable across commits for identical inputs."""
        h = hashlib.sha256()
        for index in range(len(self.cmds)):
            h.update(self._first.get(index, (0, "missing"))[1].encode())
        return h.hexdigest()

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(self.attempted, 1),
            "failures": self.failures[:MAX_FAILURES_SHOWN],
            "outputs_sha256": self.outputs_digest(),
        }


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest TAIL_PERCENTILES entry with at
    least TAIL_BEYOND samples above its nearest-rank position."""
    ordered = sorted(times)
    n = len(ordered)
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    return best, percentile(ordered, best)


def timed(client: Client, seconds: float) -> dict:
    """Closed loop for ``seconds``. The gated latencies are p90 and the
    tail. A shared virtual machine can alternate between speed phases up
    to 1.8x apart that last tens of seconds; the median of a run then
    falls between the two and moves with the share of each phase, while
    p90 and above stay in the slow phase in nearly every run. The median
    and the throughput are reported for information only."""
    times, rows = [], 0
    t_begin = perf_counter()
    n = 0
    while n < len(client.cmds) or perf_counter() - t_begin < seconds:
        dt, r, _ = client.execute(n)
        times.append(dt)
        rows += r
        n += 1
    elapsed = perf_counter() - t_begin
    ordered = sorted(times)
    tail_percentile, tail_s = tail(times)
    return {
        "commands": n,
        "rows": rows,
        "elapsed_s": elapsed,
        "cmd_p90_ms": 1e3 * percentile(ordered, 90.0),
        "cmd_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_percentile,
        "cmd_p50_ms": 1e3 * statistics.median(ordered),
        "rows_per_s": rows / elapsed,
    }


def traced(client: Client, count: int) -> dict:
    def one_pass(tracer):
        t0 = perf_counter()
        h = hashlib.sha256()
        rows = 0
        if tracer is not None:
            tracer.install()
        try:
            for n in range(count):
                _, r, digest = client.execute(n)
                rows += r
                h.update(digest.encode())
        finally:
            if tracer is not None:
                tracer.restore()
        return perf_counter() - t0, rows, h.hexdigest()

    # untraced and traced passes alternate and each side keeps its
    # fastest pass, so one stall on a shared machine does not set the overhead
    tracers = [Tracer(), Tracer()]
    untraced, traced_passes = [], []
    for tracer in tracers:
        untraced.append(one_pass(None))
        traced_passes.append(one_pass(tracer))
    wall_u = min(wall for wall, _, _ in untraced)
    _, rows, digest_u = untraced[0]
    first, second = tracers
    problems = []
    if any(digest != digest_u for _, _, digest in untraced + traced_passes):
        problems.append("traced output digest differs from the untraced digest")
    if first.calls() != second.calls() or first.computed_bytes != second.computed_bytes:
        problems.append("calls differ between two traced passes")
    layers = layer_metrics(first, max(rows, 1))
    wall_t = min(wall for wall, _, _ in traced_passes)
    layers["trace.overhead_pct"] = 100.0 * (wall_t - wall_u) / wall_u
    return {
        "commands": count,
        "rows": rows,
        "untraced_s": wall_u,
        "traced_s": wall_t,
        "pass_sha256": digest_u,
        "layers": layers,
        "spans": first.by_parent(),
        "trace_problems": problems,
    }


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    channel = sys.stdout

    sys.path.insert(0, str(SRC))
    import weaklab.cli

    if not Path(weaklab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported weaklab from {weaklab.cli.__file__}, not {SRC}")

    cmds = make_inputs(args.workload, args.seed, args.workdir)
    print(json.dumps({"ready": True}), file=channel, flush=True)
    if args.mode == "setup":
        return 0

    client = Client(weaklab.cli, cmds, args.workdir)
    client.execute(0)  # warm-up: lazy imports and first-call costs
    if args.mode == "timed":
        result = timed(client, args.seconds)
    else:
        result = traced(client, TRACE_COMMANDS[args.workload])
    result.update(client.summary())
    result["inputs_sha256"] = inputs_digest(cmds, args.workdir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment(args.seed)
    print(json.dumps(result), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

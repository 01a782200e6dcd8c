"""Smoke test of the benchmark itself (not collected by the package's
test suite): python3 -m pytest perfbench/test_smoke.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from inputs import OVERLAP_FLOOR, WORKLOADS, inputs_digest, make_inputs  # noqa: E402
from spans import SPANS, Tracer, _get, _namespaces, _resolve  # noqa: E402
from worker import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_workloads_match_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert f"\n{name} " in "\n" + proc.stdout
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = result_line(bench("--workload", "validate", "--seed", "3",
                               "--seconds", "1", "--trace", "1"))
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["engines.heisenberg_moment.calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    digests = [
        inputs_digest(make_inputs(workload, seed, d), d)
        for seed, d in zip((5, 5, 6), dirs)
    ]
    assert digests[0] == digests[1]
    if workload != "validate":  # validate takes no inputs
        assert digests[0] != digests[2]


def test_random_scenarios_keep_the_overlap_floor(tmp_path):
    for seed in range(5):
        for cmd in make_inputs("sweep_fock", seed, tmp_path):
            doc = json.loads(Path(cmd.argv[2]).read_text())
            i = [complex(*z) for z in doc["i"]]
            f = [complex(*z) for z in doc["f"]]
            assert abs(sum(x.conjugate() * y for x, y in zip(f, i))) >= OVERLAP_FLOOR


def test_tracer_restores_every_wrapped_name():
    originals = {
        (path, attr): _get(_resolve(path), attr)
        for targets in SPANS.values() for path, attr in targets
    }
    with Tracer():
        wrapped = [v for _, ns in _namespaces() for v in ns.values()
                   if hasattr(v, "_perfbench_span")]
        assert len(wrapped) == len(originals)
    for (path, attr), original in originals.items():
        assert _get(_resolve(path), attr) is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail([float(n) for n in range(1, 20)]) == (50.0, 10.0)
    assert tail([float(n) for n in range(1, 101)]) == (90.0, 90.0)
    assert tail([float(n) for n in range(1, 301)]) == (95.0, 285.0)
    assert tail([float(n) for n in range(1, 1001)]) == (99.0, 990.0)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "run_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""Golden outputs: the CLI's JSON reports, a sweep's CSV and ``validate``
stdout, pinned to files under ``tests/golden/``.

Keys, column headers and every non-numeric token must match the file
byte for byte; each number must match within 1e-12, absolute or relative,
whichever is larger, since BLAS rounding differs across hosts. To
regenerate the files after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest

from weaklab.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: The noncommuting sigma_x / sigma_z qubit of the CI workflow.
NONCOMMUTING_JSON = """\
{"name": "noncommuting", "dim": 2,
 "i": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
 "f": [[0.955336489125606, 0.0], [0.29552020666133955, 0.0]],
 "observables": {"sx": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
                 "sz": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}}
"""

#: Stands for the path of a file holding NONCOMMUTING_JSON.
NONCOMMUTING_FILE = "<noncommuting scenario file>"

#: Golden file name -> CLI arguments whose stdout it holds.
COMMANDS = {
    "run_three_box_p1_exact.json": [
        "run", "--scenario", "three-box", "--observable", "P1", "--engine", "exact",
        "--kx", "0.05", "--sigma-x", "1", "--format", "json",
    ],
    "run_hardy_joint_exact.json": [
        "run", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp",
        "--engine", "exact", "--kx", "0.05", "--sigma-x", "1", "--format", "json",
    ],
    "run_hardy_joint_fock.json": [
        "run", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp",
        "--engine", "fock", "--n-max", "40", "--kx", "0.05", "--sigma-x", "1",
        "--format", "json",
    ],
    "run_noncommuting_fock.json": [
        "run", "--scenario", NONCOMMUTING_FILE, "--observable", "sx", "--observable-b", "sz",
        "--engine", "fock", "--n-max", "30", "--kx", "0.1", "--sigma-x", "1",
        "--format", "json",
    ],
    "sweep_hardy_exact.csv": [
        "sweep", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp",
        "--engine", "exact", "--k-min", "1e-2", "--k-max", "1e-1", "--points", "9",
        "--log", "--sigma-x", "1",
    ],
    "validate.txt": ["validate"],
}

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def run_command(name: str, scenario_file: Path) -> str:
    """The stdout of the command that writes golden file ``name``."""
    argv = [str(scenario_file) if a == NONCOMMUTING_FILE else a for a in COMMANDS[name]]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def assert_same_output(got: str, want: str):
    """Equal text between numbers, and numbers within 1e-12 absolute or
    relative."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "different token structure"
    for n, (g, w) in enumerate(zip(got_parts, want_parts)):
        if n % 2 == 0:
            assert g == w, f"text {g!r} != {w!r}"
            continue
        a, b = float(g), float(w)
        if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
            assert g == w, f"{g} != {w}"
        else:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)), f"{g} != {w}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_file(name, tmp_path):
    scenario_file = tmp_path / "noncommuting.json"
    scenario_file.write_text(NONCOMMUTING_JSON)
    assert_same_output(run_command(name, scenario_file), (GOLDEN / name).read_text())


def test_number_tokens_compare_within_tolerance():
    assert_same_output('{"a": 1.0000000000001}', '{"a": 1.0}')
    assert_same_output("x 1e-30 nan", "x 2e-30 nan")
    for got, want in (('{"a": 1.00001}', '{"a": 1.0}'), ('{"b": 1}', '{"a": 1}'),
                      ("1,2", "1,2,3"), ("inf", "nan")):
        with pytest.raises(AssertionError):
            assert_same_output(got, want)


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        scenario_file = Path(tmp) / "noncommuting.json"
        scenario_file.write_text(NONCOMMUTING_JSON)
        for name in COMMANDS:
            (GOLDEN / name).write_text(run_command(name, scenario_file))
            print(f"wrote {GOLDEN / name}")


if __name__ == "__main__":
    regenerate()

"""Command-line interface: flags, output contracts, exit codes."""

import json
import math
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from weaklab import cli, engines, errors, qcore, scenarios
from weaklab.cli import CSV_HEADER, _CSV_ROW, _execute, _fmt_float, _scenario, build_parser, main
from weaklab.engines import MOMENTS, _pointer_frame
from weaklab.scenarios import build_three_box, scenario_to_document
from weaklab.validation import run_all_checks


def run_cli(argv):
    return main(list(argv))


NONCOMMUTING_DOC = {
    "name": "noncommuting",
    "dim": 2,
    "i": [[1 / math.sqrt(2), 0.0], [1 / math.sqrt(2), 0.0]],
    "f": [[math.cos(0.3), 0.0], [math.sin(0.3), 0.0]],
    "observables": {
        "sx": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "sz": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    },
}


def parse_csv(text):
    lines = text.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header, rows = body[0], [l.split(",") for l in body[1:]]
    return comments, header, rows


# --- run ---------------------------------------------------------------------


def test_run_three_box_json(capsys):
    code = run_cli(
        [
            "run", "--scenario", "three-box", "--observable", "P3",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["extracted"]["re"] == pytest.approx(-1.0, abs=1e-3)
    assert report["direct"]["re"] == -1.0
    assert report["abs_err"] <= 1e-3
    assert report["record"]["engine_tag"] == "exact-single"
    assert report["n_max"] is None
    assert report["singles_mode"] is None and report["singles"] is None


def test_run_hardy_joint_json(capsys):
    code = run_cli(
        [
            "run", "--scenario", "hardy", "--observable", "N_Oe",
            "--observable-b", "N_Op", "--engine", "exact",
            "--kx", "0.01", "--ky", "0.01", "--sigma-x", "1", "--sigma-y", "1",
            "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extracted"]["re"] == pytest.approx(0.0, abs=1e-3)
    assert report["singles_mode"] == "extracted"
    assert report["singles"]["a"]["re"] == pytest.approx(1.0, abs=1e-3)


def test_run_fock_engine_json(capsys):
    code = run_cli(
        [
            "run", "--scenario", "imaginary", "--observable", "sigma_z",
            "--engine", "fock", "--kx", "0.01", "--sigma-x", "1",
            "--n-max", "40", "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_max"] == 40
    assert report["extracted"]["im"] == pytest.approx(1.0, abs=1e-3)
    assert report["record"]["truncation_warning"] is False


def test_run_csv_format(capsys):
    code = run_cli(
        [
            "run", "--scenario", "three-box", "--observable", "P3",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "csv",
        ]
    )
    assert code == 0
    comments, header, rows = parse_csv(capsys.readouterr().out)
    assert "# schema=1" in comments
    assert header == CSV_HEADER
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.01


def test_run_missing_required_flag(capsys):
    code = run_cli(["run", "--scenario", "spin", "--engine", "exact"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_run_unknown_scenario(capsys):
    code = run_cli(
        [
            "run", "--scenario", "no-such", "--observable", "X",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "json",
        ]
    )
    assert code == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_run_unknown_observable(capsys):
    code = run_cli(
        [
            "run", "--scenario", "three-box", "--observable", "P9",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "json",
        ]
    )
    assert code == 1
    assert "P9" in capsys.readouterr().err


def test_run_joint_flags_require_observable_b(capsys):
    code = run_cli(
        [
            "run", "--scenario", "three-box", "--observable", "P3",
            "--engine", "exact", "--kx", "0.01", "--ky", "0.02",
            "--sigma-x", "1", "--format", "json",
        ]
    )
    assert code == 1
    assert "--observable-b" in capsys.readouterr().err


def test_run_rejects_singles_flag(capsys):
    """A joint run always extracts its single weak values from pointer
    moments; there is no flag that substitutes the direct values."""
    code = run_cli(
        [
            "run", "--scenario", "hardy", "--observable", "N_Oe",
            "--observable-b", "N_Op", "--engine", "exact", "--kx", "0.01",
            "--sigma-x", "1", "--singles", "direct", "--format", "json",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--singles" in err


def test_run_orthogonal_postselection_exit_2(capsys):
    code = run_cli(
        [
            "run", "--scenario", "spin", "--observable", "sigma_z",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--alpha", str(3 * math.pi / 4), "--format", "json",
        ]
    )
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


#: The documented exit code of each WeaklabError raised inside a command:
#: 2 for numerical failures, 1 for the rest.
ERROR_EXIT_CODES = {
    errors.OrthogonalPostselection: 2,
    errors.NotCommuting: 2,
    errors.NumericalInconsistency: 2,
    errors.DimensionMismatch: 1,
    errors.NotHermitian: 1,
    errors.ZeroCoupling: 1,
    errors.InvalidTruncation: 1,
    errors.ZeroState: 1,
    errors.ParseError: 1,
}


@pytest.mark.parametrize("error, code", ERROR_EXIT_CODES.items(),
                         ids=[error.__name__ for error in ERROR_EXIT_CODES])
def test_each_weaklab_error_exits_with_its_documented_code(monkeypatch, capsys, error, code):
    assert set(ERROR_EXIT_CODES) == set(errors.WeaklabError.__subclasses__())

    def fail():
        raise error("raised inside a command")

    monkeypatch.setattr(cli, "run_all_checks", fail)
    assert run_cli(["validate"]) == code
    err = capsys.readouterr().err
    assert "raised inside a command" in err
    assert ("numerical failure" in err) == (code == 2)


def test_run_noncommuting_exact_joint_exit_2(tmp_path, capsys):
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(NONCOMMUTING_DOC))
    args = [
        "run", "--scenario", str(path), "--observable", "sx",
        "--observable-b", "sz", "--kx", "0.01", "--sigma-x", "1",
        "--format", "json",
    ]
    assert run_cli(args + ["--engine", "exact"]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # the Fock engine is the designated route for noncommuting pairs
    assert run_cli(args + ["--engine", "fock"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["abs_err"] <= 1e-3


def test_run_bad_scenario_file_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code = run_cli(
        [
            "run", "--scenario", str(path), "--observable", "X",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "json",
        ]
    )
    assert code == 1


@pytest.mark.parametrize(
    "where, value, field",
    [(("i", 0, 0), math.nan, "i[0]"), (("observables", "sx", 0, 0, 0), math.inf, "sx[0][0]")],
    ids=["nan-amplitude", "infinite-matrix-entry"],
)
def test_run_non_finite_scenario_value_exit_1(tmp_path, capsys, where, value, field):
    doc = json.loads(json.dumps(NONCOMMUTING_DOC))
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "non-finite.json"
    path.write_text(json.dumps(doc))  # json writes the NaN and Infinity tokens
    for engine in ("exact", "fock"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                [
                    "run", "--scenario", str(path), "--observable", "sx",
                    "--engine", engine, "--kx", "0.01", "--sigma-x", "1",
                    "--format", "json",
                ]
            )
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        assert field in err and "finite" in err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--sigma-x", "1e300", "sigma squared"),
        ("--sigma-x", "1e-300", "sigma squared"),
        ("--sigma-x", "inf", "sigma"),
        ("--sigma-y", "inf", "sigma"),
        ("--hbar", "inf", "hbar"),
    ],
)
def test_run_unusable_pointer_width_exit_1(capsys, flag, value, field):
    run = ["run", "--scenario", "hardy", "--observable", "N_Oe", "--kx", "0.01",
           "--sigma-x", "1", "--format", "json"]
    if flag == "--sigma-y":
        run += ["--observable-b", "N_Op", "--sigma-y", "1"]
    for engine in ("exact", "fock"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(run + ["--engine", engine, flag, value])
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        assert f"error: {field} must be finite" in err and "Traceback" not in err


#: Stands for a scenario file holding NONCOMMUTING_DOC in OVERFLOW_CASES.
NONCOMMUTING_FILE = "<noncommuting scenario file>"

OVERFLOW_CASES = {
    "run-exact": ["run", "--scenario", "three-box", "--observable", "P1", "--engine",
                  "exact", "--kx", "1e308", "--format", "csv"],
    # refused by name before the commuting test: exit 1, not NotCommuting's 2
    "run-exact-noncommuting": ["run", "--scenario", NONCOMMUTING_FILE, "--observable", "sx",
                               "--observable-b", "sz", "--engine", "exact", "--kx", "1e308",
                               "--format", "json"],
    "run-fock": ["run", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b",
                 "N_NOp", "--engine", "fock", "--kx", "0.01", "--ky", "1e200",
                 "--format", "json"],
    "sweep-exact": ["sweep", "--scenario", "three-box", "--observable", "P1", "--engine",
                    "exact", "--k-min", "1", "--k-max", "1e200", "--points", "3", "--log"],
    "sweep-fock": ["sweep", "--scenario", "hardy", "--observable", "N_Oe",
                   "--observable-b", "N_NOp", "--engine", "fock", "--k-min", "1",
                   "--k-max", "1e200", "--points", "3", "--log"],
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_overflowing_coupling_exit_1(case, tmp_path):
    """A coupling whose pointer displacements overflow once squared is
    refused by name before any pointer integral or Fock phase is formed,
    and on the exact engine before the commuting test: exit 1 with no
    numpy warning, even with RuntimeWarning an error."""
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(NONCOMMUTING_DOC))
    argv = [str(path) if arg == NONCOMMUTING_FILE else arg for arg in OVERFLOW_CASES[case]]
    flag = "ky" if "--ky" in argv else "kx"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "weaklab.cli", *argv,
         "--sigma-x", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"error: coupling |{flag}| = " in proc.stderr
    assert "too strong to represent" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


@pytest.mark.parametrize("engine", ["exact", "fock"])
@pytest.mark.parametrize("observables", [["P3"], ["N_Oe", "--observable-b", "N_NOp"]],
                         ids=["single", "joint"])
def test_linear_sweep_through_zero_coupling_exit_1(capsys, engine, observables):
    """A linearly spaced sweep from k = 0 has a row at K = 0, where no
    weak value can be extracted: exit 1 before anything is divided by
    it, so numpy never warns."""
    scenario = "three-box" if observables == ["P3"] else "hardy"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            ["sweep", "--scenario", scenario, "--observable", *observables,
             "--engine", engine, "--sigma-x", "1", "--k-min", "0", "--k-max", "0.1",
             "--points", "3"]
        )
    assert code == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cannot extract a weak value at K = 0" in captured.err


@pytest.mark.parametrize("observables, kx", [
    (["--scenario", "three-box", "--observable", "P3"], "1e-320"),
    (["--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp"], "1e-160"),
], ids=["single", "joint"])
def test_subnormal_coupling_exit_1(capsys, observables, kx):
    """A coupling whose moments fall below the normal float range (here
    K = 1e-320, and Kx*Ky = 1e-320 for the pair) would extract a wrong
    value: exit 1 naming the coupling, with no numpy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["run", *observables, "--engine", "exact", "--sigma-x", "1",
                        "--kx", kx, "--format", "json"])
    assert code == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "weak value at " in captured.err and "= 1e-320, below 2.23e-296" in captured.err


#: Pointer units whose momentum factor, 2 sigma^2/hbar (4 sigma_y^2/hbar
#: for the pair), is 0 or overflows. Each once exited 0: the first wrote
#: im_extracted 0 against im_direct 1, the others nan or inf.
UNUSABLE_UNITS = {
    "underflowing-factor": ["--scenario", "imaginary", "--observable", "sigma_z",
                            "--sigma-x", "1e-150", "--kx", "1e-151", "--hbar", "1e100"],
    "overflowing-factor": ["--scenario", "imaginary", "--observable", "sigma_z",
                           "--sigma-x", "1e154", "--kx", "0.1"],
    "subnormal-hbar": ["--scenario", "spin", "--alpha=-1e-3", "--observable", "sigma_z",
                       "--sigma-x", "1", "--kx", "0.5", "--hbar", "1e-310"],
    "overflowing-joint-factor": ["--scenario", "hardy", "--observable", "N_Oe",
                                 "--observable-b", "N_Op", "--sigma-x", "1",
                                 "--sigma-y", "8e153", "--kx", "0.01"],
}


# the Fock engine warns on --hbar 1e-310 before anything is extracted
@pytest.mark.parametrize("case, engine", [
    (case, engine) for case in sorted(UNUSABLE_UNITS) for engine in ("exact", "fock")
    if (case, engine) != ("subnormal-hbar", "fock")])
def test_unusable_pointer_units_exit_1(capsys, case, engine):
    """The extraction refuses, naming the pointer flags, before it
    multiplies by a momentum factor that is 0, subnormal or not finite:
    exit 1 with no numpy warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["run", *UNUSABLE_UNITS[case], "--engine", engine, "--format", "csv"])
    assert code == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "leaves the normal float range; rescale --sigma-x/--sigma-y and --hbar" in (
        captured.err)


@pytest.mark.parametrize("flag", ["--k-min", "--k-max"])
def test_sweep_non_finite_range_exit_1(capsys, flag):
    """Refused before the couplings are spaced, so numpy never warns
    (the suite turns a RuntimeWarning into an error)."""
    bounds = {"--k-min": "0.01", "--k-max": "0.1", flag: "inf"}
    code = run_cli(
        ["sweep", "--scenario", "three-box", "--observable", "P1", "--engine", "exact",
         "--sigma-x", "1", "--points", "3", "--log"]
        + [x for pair in bounds.items() for x in pair]
    )
    assert code == 1
    assert f"error: {flag} must be finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_run_non_finite_spin_angle_exit_1(capsys, alpha):
    code = run_cli(["run", "--scenario", "spin", "--alpha", alpha, "--observable",
                    "sigma_z", "--engine", "exact", "--sigma-x", "1", "--kx", "0.01",
                    "--format", "json"])
    assert code == 1
    assert f"error: spin angle alpha must be finite, got {alpha}" in capsys.readouterr().err


#: The sigma = hbar = 1 problem restated in other pointer units: each
#: command and the flags that undo the change of units. The imaginary
#: residue of a moment scales with its pointer operators' vacuum
#: spreads, so each of these once exited 2 on an absolute bound.
UNIT_CHANGES = {
    "fock-joint-sigma-1e6": (
        ["--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_Op",
         "--engine", "fock", "--kx", "1e4", "--sigma-x", "1e6"],
        ["--kx", "0.01", "--sigma-x", "1"],
    ),
    "fock-single-sigma-1e8": (
        ["--scenario", "three-box", "--observable", "P3", "--engine", "fock",
         "--kx", "1e6", "--sigma-x", "1e8"],
        ["--kx", "0.01", "--sigma-x", "1"],
    ),
    "exact-joint-hbar-1e12": (
        ["--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_Op",
         "--engine", "exact", "--kx", "0.01", "--sigma-x", "1", "--hbar", "1e12"],
        ["--hbar", "1"],
    ),
}


@pytest.mark.parametrize("case", sorted(UNIT_CHANGES))
def test_run_in_other_pointer_units_matches_unit_run(capsys, case):
    argv, unit_flags = UNIT_CHANGES[case]
    errs = []
    for flags in ([], unit_flags):
        assert run_cli(["run", *argv, *flags, "--format", "json"]) == 0
        errs.append(json.loads(capsys.readouterr().out)["abs_err"])
    assert errs[0] == pytest.approx(errs[1], rel=1e-6, abs=0)


def test_joint_run_decomposes_each_observable_once(monkeypatch):
    """A joint exact run and its two extracted singles share one eigh
    per observable, here on observables no earlier test has decomposed,
    and call no eigvalsh; a second run decomposes nothing."""
    calls = {"eigh": [], "eigvalsh": []}
    linalg = qcore.np.linalg
    for name, original in (("eigh", linalg.eigh), ("eigvalsh", linalg.eigvalsh)):
        def counted(m, _name=name, _original=original):
            calls[_name].append(m)
            return _original(m)
        monkeypatch.setattr(linalg, name, counted)
    args = build_parser().parse_args(
        ["run", "--scenario", "hardy", "--observable", "N_NOe", "--observable-b",
         "N_NOp", "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
         "--format", "json"]
    )
    fresh = scenarios.build_hardy.__wrapped__()
    assert fresh is not _scenario(args)
    a, b = fresh.observable("N_NOe"), fresh.observable("N_NOp")
    for _ in range(2):
        _execute(args, fresh, 0.01, 0.01, [1.0])
        assert [id(m) for m in calls["eigh"]] == [id(a.matrix), id(b.matrix)]
        assert calls["eigvalsh"] == []


def count_calls(monkeypatch, targets):
    """A dict that counts, from now until the test ends, the calls of
    each function that one of ``targets``, (module, name) pairs, names
    where its callers look it up."""
    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_joint_sweep_makes_one_engine_call(monkeypatch):
    """A joint exact sweep forms each axis's pointer integrals once, for
    the pair, and takes both single-coupling batches from them: two
    _moment_matrices calls (four when each single ran its own call), one
    engine call and no single-coupling engine call."""
    counts = count_calls(monkeypatch, [(engines, "_moment_matrices"), *(
        (cli, name) for name in ("run_single_exact", "run_joint_exact", "run_fock"))])
    args = build_parser().parse_args(
        ["sweep", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp",
         "--engine", "exact", "--k-min", "1e-3", "--k-max", "1e-1", "--points", "5",
         "--log", "--sigma-x", "1"]
    )
    _execute(args, _scenario(args), 1.0, 1.0, [1e-3, 1e-2, 1e-1])
    assert counts == {"_moment_matrices": 2, "run_single_exact": 0, "run_joint_exact": 1,
                      "run_fock": 0}


def test_every_traced_name_resolves():
    """Every (module, attribute) target of the benchmark tracer's SPANS
    table (perfbench/spans.py, executed from its source, not imported)
    still names a callable where the tracer looks it up."""
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"))
    targets = [target for group in spans["SPANS"].values() for target in group]
    assert targets
    for path, attr in targets:
        assert callable(spans["_get"](spans["_resolve"](path), attr)), f"{path}.{attr}"


def test_validate_builds_no_singles(monkeypatch):
    """validate's engine calls ask for no single-coupling batches, so one
    pass makes as many batches and pointer-integral stacks as separate
    calls make: 26 _records, 17 _moment_matrices, 17 _grid_matrices."""
    counts = count_calls(monkeypatch, [
        (engines, name) for name in ("_records", "_moment_matrices", "_grid_matrices")])
    run_all_checks()
    assert counts == {"_records": 26, "_moment_matrices": 17, "_grid_matrices": 17}


def test_joint_fock_run_warns_for_the_pair_then_each_single(tmp_path):
    """A truncating joint Fock run warns once per truncated batch in the
    order pair, A alone, B alone (N_NOp alone truncates as the pair
    does), each message naming its coupled axes, and every warning
    points at one line of the CLI."""
    argv = ["run", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp",
            "--engine", "fock", "--n-max", "6", "--kx", "2", "--sigma-x", "1",
            "--format", "json", "--out", str(tmp_path / "out.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(argv) == 0
    assert [str(w.message) for w in caught] == [
        f"coupling {axes}: top Fock levels hold population {p}; "
        "increase n_max for reliable moments"
        for axes, p in (("kx and ky", "2.417e-03"), ("kx alone", "1.209e-03"),
                        ("ky alone", "2.417e-03"))
    ]
    assert all(w.category is errors.TruncationWarning for w in caught)
    assert {(w.filename, w.lineno) for w in caught} == {(cli.__file__, caught[0].lineno)}


def _cold_caches():
    for build in (scenarios.build_three_box, scenarios.build_hardy, scenarios.build_imaginary,
                  scenarios._qubit_parts, scenarios._load_text):
        build.cache_clear()
    _pointer_frame.cache_clear()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "hardy", "--observable", "N_Oe", "--observable-b", "N_NOp",
         "--engine", "fock", "--kx", "0.02", "--sigma-x", "1", "--format", "json"],
        ["run", "--scenario", "three-box", "--observable", "P3", "--engine", "exact",
         "--kx", "0.01", "--sigma-x", "1", "--format", "json"],
        ["run", "--scenario", "spin", "--alpha", "0.3", "--observable", "sigma_z",
         "--engine", "exact", "--kx", "0.01", "--sigma-x", "1", "--format", "json"],
        ["validate"],
        ["sweep", "--scenario", NONCOMMUTING_FILE, "--observable", "sx", "--observable-b",
         "sz", "--engine", "fock", "--k-min", "1e-3", "--k-max", "1e-1", "--points", "4",
         "--log", "--sigma-x", "1"],
    ],
    ids=["joint-fock", "single-exact", "spin", "validate", "scenario-file"],
)
def test_output_identical_with_cold_and_warm_caches(capsys, tmp_path, argv):
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(NONCOMMUTING_DOC))
    argv = [str(path) if arg == NONCOMMUTING_FILE else arg for arg in argv]
    _cold_caches()
    assert main(list(argv)) == 0
    cold = capsys.readouterr().out
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == cold


def test_run_reads_negative_exponent_values(capsys):
    base = ["run", "--scenario", "spin", "--observable", "sigma_z",
            "--engine", "exact", "--sigma-x", "1", "--format", "json"]
    assert run_cli(base + ["--kx", "0.01", "--alpha", "-5e-06"]) == 0
    assert json.loads(capsys.readouterr().out)["abs_err"] <= 1e-3
    assert run_cli(base + ["--kx", "-1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["kx"] == -1e-3


def test_oversized_requests_exit_1_without_traceback(capsys):
    run = ["run", "--scenario", "three-box", "--observable", "P3",
           "--engine", "fock", "--kx", "0.01", "--sigma-x", "1", "--format", "json"]
    # (1e8 + 1)^2 x 3^2 complex values: about 1.4e18 bytes
    assert run_cli(run + ["--n-max", "100000000"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    sweep = ["sweep", "--scenario", "three-box", "--observable", "P3",
             "--engine", "exact", "--k-min", "1e-3", "--k-max", "1e-1",
             "--sigma-x", "1", "--log"]
    assert run_cli(sweep + ["--points", str(10**12)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    # within the points x d^2 bound, but the arrays live at the peak of
    # the Fock branch sum would take 2363 MiB
    fock_sweep = [*sweep, "--points", "200000", "--n-max", "40"]
    fock_sweep[fock_sweep.index("exact")] = "fock"
    assert run_cli(fock_sweep) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err


def test_sweep_budget_counts_every_operator_of_the_stack(monkeypatch, capsys):
    """A sweep's engines hold one (operators, points, d, d) stack per
    axis, so a budget that one (points, d, d) matrix set fits but the
    stack does not exits 1 before any engine runs."""
    calls = []
    for name in ("run_single_exact", "run_joint_exact", "run_fock"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
    points, d = 10, 3  # three-box
    monkeypatch.setattr("weaklab.engines.MAX_ARRAY_BYTES", 16 * 2 * points * d**2)
    assert run_cli(["sweep", "--scenario", "three-box", "--observable", "P3",
                    "--engine", "exact", "--k-min", "1e-3", "--k-max", "1e-1",
                    "--points", str(points), "--log", "--sigma-x", "1"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "Traceback" not in err
    assert calls == []


def test_run_byte_identical_outputs(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "run", "--scenario", "hardy", "--observable", "N_NOe",
        "--observable-b", "N_NOp", "--engine", "exact", "--kx", "0.01",
        "--sigma-x", "1", "--format", "json",
    ]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    # the joint call sets flags the single call leaves at their defaults
    joint = [
        "run", "--scenario", "hardy", "--observable", "N_Oe",
        "--observable-b", "N_NOp", "--engine", "fock", "--n-max", "20",
        "--kx", "0.02", "--ky", "0.03", "--sigma-x", "1", "--sigma-y", "0.7",
        "--hbar", "2", "--format", "json",
    ]
    single = [
        "run", "--scenario", "three-box", "--observable", "P3",
        "--engine", "exact", "--kx", "0.01", "--sigma-x", "1", "--format", "json",
    ]
    bad = ["run", "--scenario", "hardy", "--no-such-flag", "1"]

    def fresh(argv):
        build_parser.cache_clear()
        assert run_cli(argv) == 0
        return capsys.readouterr().out

    want = [fresh(joint), fresh(single)]
    parser = build_parser()
    assert run_cli(joint) == 0
    got = [capsys.readouterr().out]
    assert run_cli(bad) == 1
    assert "usage" in capsys.readouterr().err
    assert run_cli(single) == 0
    got.append(capsys.readouterr().out)
    assert build_parser() is parser
    assert got == want


def test_run_floats_serialized_with_17_digits(capsys):
    run_cli(
        [
            "run", "--scenario", "three-box", "--observable", "P3",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "json",
        ]
    )
    out = capsys.readouterr().out
    # ps_prob = 1/9 + O(K^2): a non-terminating decimal must carry the
    # full 17 significant digits
    import re

    literal = re.search(r'"ps_prob": ([0-9.e+-]+)', out).group(1)
    assert len(literal.replace(".", "").lstrip("0")) == 17
    assert float(literal) == pytest.approx(1 / 9, abs=1e-4)


# --- sweep ---------------------------------------------------------------------


def test_sweep_three_box_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        [
            "sweep", "--scenario", "three-box", "--observable", "P3",
            "--engine", "exact", "--k-min", "1e-3", "--k-max", "1e-1",
            "--points", "20", "--log", "--sigma-x", "1", "--format", "csv",
            "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = parse_csv(out.read_text())
    assert header == CSV_HEADER
    assert "# schema=1" in comments
    assert len(rows) == 20
    ks = [float(r[0]) for r in rows]
    assert ks == sorted(ks)
    fitted = [c for c in comments if c.startswith("# fitted_error_order=")]
    assert len(fitted) == 1
    order = float(fitted[0].split("=")[1])
    assert 1.7 <= order <= 2.3


def test_sweep_imaginary_im_column(tmp_path):
    out = tmp_path / "imag.csv"
    code = run_cli(
        [
            "sweep", "--scenario", "imaginary", "--observable", "sigma_z",
            "--engine", "exact", "--k-min", "1e-3", "--k-max", "3e-2",
            "--points", "8", "--log", "--sigma-x", "1", "--out", str(out),
        ]
    )
    assert code == 0
    _, _, rows = parse_csv(out.read_text())
    for row in rows:
        assert float(row[3]) == pytest.approx(1.0, abs=1e-3)  # im_extracted
        assert float(row[5]) == 1.0  # im_direct


def test_sweep_single_point(capsys):
    code = run_cli(
        [
            "sweep", "--scenario", "three-box", "--observable", "P1",
            "--engine", "exact", "--k-min", "0.01", "--k-max", "0.01",
            "--points", "1", "--sigma-x", "1",
        ]
    )
    assert code == 0
    comments, header, rows = parse_csv(capsys.readouterr().out)
    assert header == CSV_HEADER
    assert len(rows) == 1
    assert any(c.startswith("# fitted_error_order=") for c in comments)


def test_sweep_of_one_repeated_k_fits_no_order(capsys):
    """Rows that share one k hold no slope: the footer reads nan, as for
    a one-point sweep, and numpy's fit is never asked for one."""
    code = run_cli(
        [
            "sweep", "--scenario", "hardy", "--observable", "N_Oe",
            "--observable-b", "N_NOp", "--engine", "exact", "--sigma-x", "1",
            "--k-min", "1e-100", "--k-max", "1e-100", "--points", "3",
        ]
    )
    assert code == 0
    comments, _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 3 and {row[0] for row in rows} == {"1e-100"}
    assert comments[-1] == "# fitted_error_order=nan"
    assert math.isnan(cli.fit_error_order([0.1, 0.1], [1e-3, 2e-3]))
    assert cli.fit_error_order([0.1, 0.2], [1e-3, 4e-3]) == pytest.approx(2.0)


def test_sweep_joint_ties_couplings(tmp_path):
    out = tmp_path / "joint.csv"
    code = run_cli(
        [
            "sweep", "--scenario", "hardy", "--observable", "N_NOe",
            "--observable-b", "N_NOp", "--engine", "exact",
            "--k-min", "1e-3", "--k-max", "1e-1", "--points", "12", "--log",
            "--sigma-x", "1", "--out", str(out),
        ]
    )
    assert code == 0
    comments, _, rows = parse_csv(out.read_text())
    assert len(rows) == 12
    for row in rows:
        assert float(row[4]) == -1.0  # re_direct
    order = float(
        next(c for c in comments if c.startswith("# fitted_error_order=")).split("=")[1]
    )
    assert order >= 1.7


def test_sweep_flag_validation(capsys):
    base = [
        "sweep", "--scenario", "three-box", "--observable", "P3",
        "--engine", "exact", "--sigma-x", "1",
    ]
    assert run_cli(base + ["--k-min", "0.1", "--k-max", "0.01", "--points", "3"]) == 1
    assert run_cli(base + ["--k-min", "0", "--k-max", "0.01", "--points", "3", "--log"]) == 1
    assert run_cli(base + ["--k-min", "0.01", "--k-max", "0.1", "--points", "0"]) == 1
    capsys.readouterr()


BATCH_CASES = {
    "three-box-exact-single": ["--scenario", "three-box", "--observable", "P3",
                               "--engine", "exact"],
    "hardy-exact-joint": ["--scenario", "hardy", "--observable", "N_Oe",
                          "--observable-b", "N_Op", "--engine", "exact"],
    "noncommuting-fock": ["--scenario", "NONCOMMUTING", "--observable", "sx",
                          "--observable-b", "sz", "--engine", "fock", "--n-max", "30"],
    "hardy-exact-ky-ne-kx": ["--scenario", "hardy", "--observable", "N_NOe",
                             "--observable-b", "N_NOp", "--engine", "exact",
                             "--ky", "0.4"],
    "noncommuting-fock-ky-ne-kx": ["--scenario", "NONCOMMUTING", "--observable", "sx",
                                   "--observable-b", "sz", "--engine", "fock",
                                   "--n-max", "30", "--ky", "2.5"],
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_sweep_matches_single_runs(case, tmp_path):
    """Every row of a batch over the coupling scale matches a length-one
    run at the same couplings, column by column."""
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps(NONCOMMUTING_DOC))
    flags = [str(path) if a == "NONCOMMUTING" else a for a in BATCH_CASES[case]]
    args = build_parser().parse_args(
        ["run", *flags, "--kx", "1", "--sigma-x", "1", "--format", "json"]
    )
    scn = _scenario(args)
    kx, ky = args.kx, args.ky if args.ky is not None else args.kx
    scales = np.geomspace(1e-3, 1e-1, 7).tolist()

    batch, est, direct, _ = _execute(args, scn, kx, ky, scales)
    assert len(batch.scales) == len(est) == len(scales)
    for row, t in enumerate(scales):
        one, one_est, one_direct, _ = _execute(args, scn, t * kx, t * ky, [1.0])
        for name in (*MOMENTS, "weakness_ratio"):
            want = getattr(one, name)[0]
            assert getattr(batch, name)[row] == pytest.approx(want, rel=0, abs=1e-12), name
        assert batch.truncation_warning[row] == one.truncation_warning[0]
        assert batch.engine_tag == one.engine_tag
        assert one_direct == direct


def test_sweep_byte_identical(tmp_path):
    args = [
        "sweep", "--scenario", "imaginary", "--observable", "sigma_z",
        "--engine", "fock", "--k-min", "1e-3", "--k-max", "1e-2",
        "--points", "5", "--sigma-x", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- identities the columnar CSV path rests on -----------------------------------


def _bits(x) -> str:
    """A float's exact value, sign of zero included."""
    return float(x).hex()


def _reference_fmt(x: float) -> str:
    """The output float format spelled out case by case."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"
    return format(x, ".17g")


@given(x=st.floats())
@example(x=-0.0)
@example(x=0.0)
@example(x=math.inf)
@example(x=-math.inf)
@example(x=math.nan)
@example(x=5e-324)
@example(x=-5e-324)
@example(x=sys.float_info.max)
def test_row_format_matches_fmt_float(x):
    """"%.17g" of x + 0.0, which _fmt_float and the one-pass CSV row
    format print, is the case-by-case format: 17 significant digits,
    -0.0 as 0, and nan and +-inf as nan, inf and -inf. The CSV row gives
    the same text from a numpy row."""
    want = _reference_fmt(x)
    assert "%.17g" % (x + 0.0) == _fmt_float(x) == _fmt_float(np.float64(x)) == want
    row = (np.full(8, x) + 0.0).tolist()
    assert _CSV_ROW % tuple(row) == ",".join([want] * 8) + "\n"


finite = st.floats(min_value=-1e150, max_value=1e150)


@given(re=finite, im=finite, dre=finite, dim=finite)
@example(re=5e-324, im=-0.0, dre=0.0, dim=5e-324)
@example(re=1e150, im=-1e150, dre=-1e150, dim=1e150)
def test_part_hypot_matches_complex_abs(re, im, dre, dim):
    """abs_err as np.hypot of the part differences over columns equals
    Python's abs(extracted - direct) for each row, bit for bit."""
    got = np.hypot(np.array([re]) - dre, np.array([im]) - dim)[0]
    assert _bits(got) == _bits(abs(complex(re, im) - complex(dre, dim)))


@given(ar=finite, ai=finite, br=finite, bi=finite)
@example(ar=-0.0, ai=0.0, br=0.0, bi=-0.0)
@example(ar=5e-324, ai=-5e-324, br=1e150, bi=1e150)
def test_real_cross_term_matches_complex_product(ar, ai, br, bi):
    """conj(a) b expanded on real arrays, as extract_joint does, equals
    Python's complex product and numpy's complex scalar product bit for
    bit."""
    a, b = complex(ar, ai), complex(br, bi)
    r, i = (np.array([x]) for x in (ar, ai))
    re, im = (r * br + i * bi)[0], (r * bi - i * br)[0]
    for want in (a.conjugate() * b, np.conj(a) * b):
        assert (_bits(re), _bits(im)) == (_bits(want.real), _bits(want.imag))


# --- validate -------------------------------------------------------------------


def test_validate_passes_and_reports(capsys):
    assert run_cli(["validate"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines()]
    assert len(lines) >= 5
    assert all(l.startswith("PASS") for l in lines)
    assert any("pointer-integrals" in l for l in lines)
    assert any("order-3" in l for l in lines)


# --- custom scenario end to end ---------------------------------------------------


def test_custom_scenario_file_round_trip(tmp_path, capsys):
    doc = scenario_to_document(build_three_box())
    path = tmp_path / "boxes.json"
    path.write_text(json.dumps(doc))
    code = run_cli(
        [
            "run", "--scenario", str(path), "--observable", "P3",
            "--engine", "exact", "--kx", "0.01", "--sigma-x", "1",
            "--format", "json",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "three-box"
    assert report["extracted"]["re"] == pytest.approx(-1.0, abs=1e-3)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weaklab.cli", "validate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


IMPORTS_OF_CLI = """
import site, sys, sysconfig
before = set(sys.modules)
import weaklab.cli
roots = [sysconfig.get_paths()[key] for key in ("purelib", "platlib")]
roots += site.getsitepackages() + [site.getusersitepackages()]
for name in sorted({name.partition(".")[0] for name in set(sys.modules) - before}):
    path = getattr(sys.modules.get(name), "__file__", None) or ""
    if name != "weaklab" and path.startswith(tuple(roots)):
        print(name)
"""


def test_cli_import_loads_no_installed_package_but_numpy():
    """Every command pays for ``import weaklab.cli`` at start-up, so in a
    fresh interpreter it loads no installed top-level package besides
    numpy, the one dependency pyproject.toml declares."""
    proc = subprocess.run([sys.executable, "-c", IMPORTS_OF_CLI],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"numpy"}

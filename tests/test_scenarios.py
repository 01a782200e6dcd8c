"""Preset scenarios and the strict scenario-document interface."""

import json
import math
import warnings

import numpy as np
import pytest

from weaklab import cli, qcore
from weaklab.errors import NotHermitian, OrthogonalPostselection, ParseError, ZeroState
from weaklab.qcore import Observable, QuantumState, commutator_norm, hermitian_eig
from weaklab.scenarios import (
    PRESETS,
    Scenario,
    build_hardy,
    build_imaginary,
    build_spin_amplifier,
    build_three_box,
    load_scenario,
    scenario_to_document,
)
from weaklab.weakvalues import direct_weak_value

from test_cli import count_calls


def test_three_box_structure():
    scn = build_three_box()
    assert scn.dim == 3
    assert scn.f.inner(scn.i) == pytest.approx(1 / 3, abs=1e-15)
    assert scn.expected["P1"] == 1
    assert sum(scn.expected.values()) == pytest.approx(1.0, abs=1e-15)


def test_hardy_structure():
    scn = build_hardy()
    assert scn.dim == 4
    assert scn.f.inner(scn.i) == pytest.approx(-1 / (2 * math.sqrt(3)), abs=1e-15)
    assert scn.expected["N_NOe_N_NOp"] == -1
    labels = [k for k in scn.observables if k.count("N_") >= 2]
    for la in labels:
        for lb in labels:
            assert commutator_norm(scn.observable(la), scn.observable(lb)) <= 1e-14


def test_spin_amplifier_values():
    assert build_spin_amplifier(0.0).expected["sigma_z"] == pytest.approx(1.0)
    assert build_spin_amplifier(math.pi / 4).expected["sigma_z"] == pytest.approx(
        0.0, abs=1e-15
    )
    # near the orthogonality pole the value amplifies far beyond +-1
    big = build_spin_amplifier(3 * math.pi / 4 - 0.01).expected["sigma_z"]
    assert big.real == pytest.approx(-99.99666664444577, rel=1e-12)


def test_spin_amplifier_pole_raises():
    with pytest.raises(OrthogonalPostselection):
        build_spin_amplifier(3 * math.pi / 4)
    with pytest.raises(OrthogonalPostselection):
        build_spin_amplifier(3 * math.pi / 4 + math.pi)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_spin_amplifier_rejects_non_finite_angle(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        build_spin_amplifier(alpha)


def test_imaginary_structure():
    scn = build_imaginary()
    assert scn.expected["sigma_z"] == 1j
    assert abs(scn.f.inner(scn.i)) ** 2 == pytest.approx(0.5, abs=1e-15)
    got = direct_weak_value(scn.observable("sigma_z"), scn.i, scn.f)
    assert got == pytest.approx(1j, abs=1e-15)


def test_presets_self_consistent():
    presets = [
        build_three_box(),
        build_hardy(),
        build_imaginary(),
        build_spin_amplifier(0.3),
    ]
    for scn in presets:
        for label, want in scn.expected.items():
            got = direct_weak_value(scn.observable(label), scn.i, scn.f)
            assert got == pytest.approx(want, abs=1e-12), f"{scn.name}:{label}"


def test_presets_deterministic():
    for name, build in PRESETS.items():
        a = build(0.2) if name == "spin" else build()
        b = build(0.2) if name == "spin" else build()
        assert np.array_equal(a.i.amplitudes, b.i.amplitudes)
        assert np.array_equal(a.f.amplitudes, b.f.amplitudes)
        for label in a.observables:
            assert np.array_equal(a.observables[label].matrix, b.observables[label].matrix)


def test_fixed_presets_are_built_once():
    for build in (build_three_box, build_hardy, build_imaginary):
        assert build() is build()
    assert build_spin_amplifier(0.2) is not build_spin_amplifier(0.2)


def test_qubit_presets_share_their_fixed_parts():
    """Spin builds only its angle's post-selection per call: two angles,
    and the imaginary preset, share one sigma_z instance, so one
    EigenSystem, and one |+> pre-selection."""
    spin_a, spin_b = build_spin_amplifier(0.2), build_spin_amplifier(1.1)
    imaginary = build_imaginary()
    sigma_z = spin_a.observable("sigma_z")
    assert spin_b.observable("sigma_z") is sigma_z
    assert imaginary.observable("sigma_z") is sigma_z
    assert hermitian_eig(spin_b.observable("sigma_z")) is hermitian_eig(sigma_z)
    assert spin_b.i is spin_a.i and imaginary.i is spin_a.i
    assert spin_a.f.amplitudes.tolist() != spin_b.f.amplitudes.tolist()


@pytest.mark.parametrize(
    "scn", [build_hardy(), load_scenario(scenario_to_document(build_three_box()))],
    ids=["preset", "loaded"],
)
def test_scenario_maps_are_read_only(scn):
    with pytest.raises(TypeError):
        scn.observables["new"] = None
    with pytest.raises(TypeError):
        scn.expected["P1"] = 0j


def test_scenario_keeps_its_own_copy_of_the_maps():
    scn = build_three_box()
    observables, expected = dict(scn.observables), dict(scn.expected)
    copy = type(scn)(scn.name, scn.i, scn.f, observables, expected)
    observables.clear()
    expected.clear()
    assert sorted(copy.observables) == ["P1", "P2", "P3"]
    assert copy.expected == scn.expected


def test_unknown_observable_label():
    scn = build_three_box()
    with pytest.raises(KeyError):
        scn.observable("P9")


# --- document round trip -------------------------------------------------------


def test_round_trip_preserves_amplitudes():
    for scn in (build_three_box(), build_hardy(), build_imaginary()):
        loaded = load_scenario(json.dumps(scenario_to_document(scn)))
        assert np.max(np.abs(loaded.i.amplitudes - scn.i.amplitudes)) <= 1e-15
        assert np.max(np.abs(loaded.f.amplitudes - scn.f.amplitudes)) <= 1e-15
        assert loaded.name == scn.name
        assert set(loaded.observables) == set(scn.observables)
        for label in scn.observables:
            assert np.max(
                np.abs(loaded.observables[label].matrix - scn.observables[label].matrix)
            ) <= 1e-15
        assert loaded.expected == scn.expected


def _valid_doc():
    return scenario_to_document(build_three_box())


def test_load_rejects_unknown_fields():
    doc = _valid_doc()
    doc["extra"] = 1
    with pytest.raises(ParseError, match="unknown"):
        load_scenario(doc)


def test_load_rejects_missing_fields():
    doc = _valid_doc()
    del doc["observables"]
    with pytest.raises(ParseError, match="missing"):
        load_scenario(doc)


def test_load_rejects_bad_json_text():
    with pytest.raises(ParseError):
        load_scenario("{not json")


def test_load_rejects_bad_dim():
    doc = _valid_doc()
    doc["dim"] = -1
    with pytest.raises(ParseError):
        load_scenario(doc)
    doc["dim"] = "three"
    with pytest.raises(ParseError):
        load_scenario(doc)
    # a Scenario built directly checks its dims as a loaded one does
    scn = build_three_box()
    qubit = QuantumState.basis(2, 0)
    with pytest.raises(ParseError, match="pre/post states have dims 3 and 2"):
        Scenario(scn.name, scn.i, qubit, scn.observables)
    with pytest.raises(ParseError, match="observable 'Z' has dim 2, expected 3"):
        Scenario(scn.name, scn.i, scn.f, {"Z": Observable.identity(2)})


def test_load_rejects_malformed_pairs():
    doc = _valid_doc()
    doc["i"][0] = [1.0]
    with pytest.raises(ParseError):
        load_scenario(doc)
    # each shape check names its field
    for field, value, match in [
        ("i", [[1.0, 0.0]] * 2, "state 'i' must be a list of 3"),
        ("f", "up", "state 'f' must be a list of 3"),
        ("observables", {"P1": [[[1.0, 0.0]] * 3] * 2}, "observable 'P1' must be a 3x3"),
        ("observables", {"P1": [[[1.0, 0.0]] * 3] * 2 + [[[1.0, 0.0]] * 2]},
         "observable 'P1' row 2 must have 3 entries"),
        ("observables", {}, "observables must be a non-empty"),
        ("expected", [["P1", 1.0]], "expected must be a name -> "),
    ]:
        doc = _valid_doc()
        doc[field] = value
        with pytest.raises(ParseError, match=match):
            load_scenario(doc)
    with pytest.raises(ParseError, match="document must be an object, got list"):
        load_scenario([_valid_doc()])
    doc = _valid_doc()
    doc["i"][0] = [1.0, "zero"]
    with pytest.raises(ParseError):
        load_scenario(doc)
    # an integer too large for a float is as non-finite as Infinity
    doc = _valid_doc()
    doc["observables"]["P1"][1][1] = [0.0, 10**400]
    with pytest.raises(ParseError, match=r"P1\[1\]\[1\] must be finite"):
        load_scenario(doc)


def test_load_rejects_non_hermitian_with_indices():
    doc = _valid_doc()
    doc["observables"]["P1"][0][2] = [0.5, 0.0]
    with pytest.raises(NotHermitian, match=r"\(0, 2\)") as caught:
        load_scenario(doc)
    assert str(caught.value).startswith("observable 'P1': ")


def test_load_rejects_zero_state():
    doc = _valid_doc()
    doc["f"] = [[0.0, 0.0]] * 3
    with pytest.raises(ZeroState):
        load_scenario(doc)


def test_load_rejects_expected_without_observable():
    doc = _valid_doc()
    doc["expected"]["P9"] = [1.0, 0.0]
    with pytest.raises(ParseError):
        load_scenario(doc)
    scn = build_three_box()
    with pytest.raises(ParseError, match="expected value for unknown observable 'P9'"):
        Scenario(scn.name, scn.i, scn.f, scn.observables, {"P9": 1.0})


def test_load_warns_and_normalizes_off_norm_state():
    doc = _valid_doc()
    doc["i"] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.warns(UserWarning, match="norm"):
        scn = load_scenario(doc)
    assert np.linalg.norm(scn.i.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_load_accepts_json_text():
    text = json.dumps(_valid_doc())
    scn = load_scenario(text)
    assert scn.name == "three-box"
    assert scn.dim == 3


def test_load_rejects_text_that_is_not_utf8():
    with pytest.raises(ParseError, match="not valid JSON"):
        load_scenario(b"\xff{")


def test_load_rejects_a_name_that_is_not_a_string():
    doc = _valid_doc()
    doc["name"] = [1, 2]
    with pytest.raises(ParseError, match=r"name must be a string, got \[1, 2\]"):
        load_scenario(json.dumps(doc))


# --- document cache -------------------------------------------------------------


def test_same_text_returns_the_same_scenario():
    text = json.dumps(_valid_doc())
    scn = load_scenario(text)
    assert load_scenario(text) is scn
    assert load_scenario(text.encode()) is load_scenario(text.encode())


def test_edited_text_is_parsed_afresh():
    doc = _valid_doc()
    before = load_scenario(json.dumps(doc))
    doc["expected"]["P1"] = [2.0, 0.0]
    after = load_scenario(json.dumps(doc))
    assert after is not before
    assert after.expected["P1"] == 2 and before.expected["P1"] == 1


def _load(text):
    return load_scenario(text)


def test_off_norm_document_warns_on_every_load_at_the_callers_line():
    doc = _valid_doc()
    doc["i"] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    text = json.dumps(doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, second = _load(text), _load(text)
    assert first is second
    assert [str(w.message) for w in caught] == ["state 'i' has norm 2; normalizing"] * 2
    assert all(w.category is UserWarning for w in caught)
    assert {(w.filename, w.lineno) for w in caught} == {
        (__file__, _load.__code__.co_firstlineno + 1)}


@pytest.mark.parametrize("text, error", [
    ("{broken", ParseError),
    (json.dumps({**_valid_doc(), "f": [[0.0, 0.0]] * 3}), ZeroState),
], ids=["not-json", "zero-state"])
def test_failing_document_raises_on_every_load(text, error):
    messages = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            load_scenario(text)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_dict_document_is_built_on_every_call():
    doc = _valid_doc()
    assert load_scenario(doc) is not load_scenario(doc)


def test_cli_sweeps_over_one_file_decompose_each_observable_once(tmp_path, monkeypatch, capsys):
    """Three sweeps of one scenario file in one process read it three
    times but parse it once, so its two observables take one eigh each;
    the exact engine takes no other eigh. The document's name is unique
    to this test, so no earlier load of it is cached."""
    doc = scenario_to_document(build_hardy())
    doc["name"] = "decomposed-once"
    doc["observables"] = {k: doc["observables"][k] for k in ("N_Oe", "N_Op")}
    doc["expected"] = {}
    path = tmp_path / "hardy-pair.json"
    path.write_text(json.dumps(doc))
    counts = count_calls(monkeypatch, [(qcore.np.linalg, "eigh")])
    for _ in range(3):
        assert cli.main(["sweep", "--scenario", str(path), "--observable", "N_Oe",
                         "--observable-b", "N_Op", "--engine", "exact", "--sigma-x", "1",
                         "--k-min", "1e-3", "--k-max", "1e-1", "--points", "3",
                         "--log"]) == 0
    assert counts == {"eigh": 2}
    outputs = capsys.readouterr().out.split("# schema=1\n")
    assert outputs[0] == "" and outputs[1] == outputs[2] == outputs[3]

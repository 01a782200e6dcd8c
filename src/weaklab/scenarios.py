"""Canonical pre-/post-selected scenarios and scenario-file handling.

Each preset fixes a pre-selected state, a post-selected state, a set of
named observables, and the analytically expected weak values, so runs
can be checked against ground truth. User scenarios load from a strict
JSON document (schema below).

Document schema (all complex numbers are [re, im] pairs)::

    {
      "name": "optional label",
      "dim": 3,
      "i": [[re, im], ...],                  # dim entries
      "f": [[re, im], ...],                  # dim entries
      "observables": {"P1": [[[re, im], ...], ...], ...},   # dim x dim
      "expected": {"P1": [re, im], ...}      # optional
    }

Unknown fields are rejected; every number must be finite; matrices must
be Hermitian; states are normalized on load (with a warning when the
input norm deviates from 1 by more than 1e-6).

A text document is parsed once per process: ``load_scenario`` keeps the
Scenarios of the last 16 texts, keyed by the text itself, so a repeated
document returns the same read-only Scenario, whose observables keep
their eigendecompositions, as the presets do. An edited document is a
new key and is parsed afresh, and the normalization warnings of a
document are issued on every load.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .engines import EPS_PS
from .errors import NotHermitian, OrthogonalPostselection, ParseError, ZeroState
from .qcore import Observable, QuantumState

__all__ = [
    "Scenario",
    "build_three_box",
    "build_hardy",
    "build_spin_amplifier",
    "build_imaginary",
    "load_scenario",
    "scenario_to_document",
    "PRESETS",
]


@dataclass(frozen=True)
class Scenario:
    """A named pre/post-selection with observables and expected values.

    ``observables`` and ``expected`` are stored as read-only copies of
    the maps passed in, so a scenario shared between callers (the cached
    presets) cannot be changed by one of them."""

    name: str
    i: QuantumState
    f: QuantumState
    observables: Mapping[str, Observable]
    expected: Mapping[str, complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "observables", MappingProxyType(dict(self.observables)))
        object.__setattr__(self, "expected", MappingProxyType(dict(self.expected)))
        if self.i.dim != self.f.dim:
            raise ParseError(
                f"pre/post states have dims {self.i.dim} and {self.f.dim}"
            )
        for label, obs in self.observables.items():
            if obs.dim != self.i.dim:
                raise ParseError(
                    f"observable {label!r} has dim {obs.dim}, expected {self.i.dim}"
                )
        for label in self.expected:
            if label not in self.observables:
                raise ParseError(
                    f"expected value for unknown observable {label!r}"
                )

    @property
    def dim(self) -> int:
        return self.i.dim

    def observable(self, label: str) -> Observable:
        try:
            return self.observables[label]
        except KeyError:
            raise KeyError(
                f"scenario {self.name!r} has no observable {label!r}; "
                f"available: {sorted(self.observables)}"
            ) from None


def _projector(dim: int, index: int) -> Observable:
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return Observable(m)


@functools.cache
def build_three_box() -> Scenario:
    """Three-box problem: both of two box occupations have conditional
    value 1 while the third is -1, outside the projector's {0, 1} range."""
    i = QuantumState(np.array([1, 1, 1]) / math.sqrt(3))
    f = QuantumState(np.array([1, 1, -1]) / math.sqrt(3))
    observables = {f"P{k + 1}": _projector(3, k) for k in range(3)}
    expected = {"P1": 1 + 0j, "P2": 1 + 0j, "P3": -1 + 0j}
    return Scenario(
        name="three-box",
        i=i,
        f=f,
        observables=observables,
        expected=expected,
    )


@functools.cache
def build_hardy() -> Scenario:
    """Two-particle occupation scenario with joint conditional values
    (0, 1, 1, -1): each particle is in the overlapping arm, yet never
    both, and the non-overlapping joint occupation is -1."""
    # basis per particle: index 0 = overlapping arm (O), 1 = outside (NO);
    # particle order: electron x positron
    i = np.zeros(4, dtype=complex)
    i[0 * 2 + 1] = 1  # |O, NO>
    i[1 * 2 + 0] = 1  # |NO, O>
    i[1 * 2 + 1] = 1  # |NO, NO>
    minus = np.array([1, -1]) / math.sqrt(2)
    f = np.kron(minus, minus)

    occ_o = np.diag([1.0, 0.0]).astype(complex)
    occ_no = np.diag([0.0, 1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    singles = {
        "N_Oe": np.kron(occ_o, eye),
        "N_NOe": np.kron(occ_no, eye),
        "N_Op": np.kron(eye, occ_o),
        "N_NOp": np.kron(eye, occ_no),
    }
    joints = {
        "N_Oe_N_Op": np.kron(occ_o, occ_o),
        "N_Oe_N_NOp": np.kron(occ_o, occ_no),
        "N_NOe_N_Op": np.kron(occ_no, occ_o),
        "N_NOe_N_NOp": np.kron(occ_no, occ_no),
    }
    observables = {k: Observable(m) for k, m in {**singles, **joints}.items()}
    expected = {
        "N_Oe": 1 + 0j,
        "N_NOe": 0 + 0j,
        "N_Op": 1 + 0j,
        "N_NOp": 0 + 0j,
        "N_Oe_N_Op": 0 + 0j,
        "N_Oe_N_NOp": 1 + 0j,
        "N_NOe_N_Op": 1 + 0j,
        "N_NOe_N_NOp": -1 + 0j,
    }
    return Scenario(
        name="hardy",
        i=QuantumState(i),
        f=QuantumState(f),
        observables=observables,
        expected=expected,
    )


@functools.cache
def _qubit_parts() -> tuple[QuantumState, Observable]:
    """The |+> pre-selection and the sigma_z of both qubit presets, built
    once per process and shared, so sigma_z keeps its eigendecomposition
    (``qcore.hermitian_eig``) from one spin angle to the next."""
    plus = QuantumState(np.array([1, 1]) / math.sqrt(2))
    return plus, Observable(np.diag([1.0, -1.0]).astype(complex))


def build_spin_amplifier(alpha: float) -> Scenario:
    """Qubit scenario whose conditional spin value (1 - tan a)/(1 + tan a)
    grows without bound as the post-selection approaches orthogonality
    at a = 3 pi / 4 (mod pi). Only the post-selection and the expected
    value depend on a; the rest is ``_qubit_parts``."""
    if not math.isfinite(alpha):
        raise ValueError(f"spin angle alpha must be finite, got {alpha}")
    plus, sigma_z = _qubit_parts()
    fa = np.array([math.cos(alpha), math.sin(alpha)])
    denom = math.cos(alpha) + math.sin(alpha)
    if denom**2 / 2.0 < EPS_PS:
        raise OrthogonalPostselection(
            f"alpha = {alpha} post-selects orthogonally to the pre-selection"
        )
    expected = (math.cos(alpha) - math.sin(alpha)) / denom
    return Scenario(
        name="spin",
        i=plus,
        f=QuantumState(fa),
        observables={"sigma_z": sigma_z},
        expected={"sigma_z": complex(expected)},
    )


@functools.cache
def build_imaginary() -> Scenario:
    """Qubit scenario with a purely imaginary conditional spin value: the
    pointer shift appears in momentum, not position."""
    plus, sigma_z = _qubit_parts()
    return Scenario(
        name="imaginary",
        i=plus,
        f=QuantumState(np.array([1, 1j]) / math.sqrt(2)),
        observables={"sigma_z": sigma_z},
        expected={"sigma_z": 1j},
    )


#: Preset registry used by the CLI; spin takes its angle as an argument.
#: The other presets are built once per process and shared: every call
#: returns the same read-only Scenario, whose observables keep their
#: eigendecompositions (``qcore.hermitian_eig``) from call to call. Spin
#: builds only its post-selection per call and shares its pre-selection
#: and sigma_z with imaginary.
PRESETS = {
    "three-box": build_three_box,
    "hardy": build_hardy,
    "spin": build_spin_amplifier,
    "imaginary": build_imaginary,
}


# --- scenario document handling -------------------------------------------

_REQUIRED_FIELDS = {"dim", "i", "f", "observables"}
_ALLOWED_FIELDS = _REQUIRED_FIELDS | {"name", "expected"}


def _parse_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise ParseError(f"{where} must be a [re, im] pair, got {entry!r}")
    # json.loads reads the NaN and Infinity tokens, and integers of any size
    try:
        z = complex(entry[0], entry[1])
    except OverflowError:
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ParseError(f"{where} must be finite, got {entry!r}")
    return z


def _parse_state(raw, dim: int, label: str, warned: list[str]) -> QuantumState:
    """The state ``label``, normalized; appends the text of its
    normalization warning, if any, to warned."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"state {label!r} must be a list of {dim} [re, im] pairs")
    amps = np.array(
        [_parse_complex(v, f"{label}[{k}]") for k, v in enumerate(raw)]
    )
    norm = float(np.linalg.norm(amps))
    if norm < 1e-15:
        raise ZeroState(f"state {label!r} has zero norm")
    if abs(norm - 1.0) > 1e-6:
        warned.append(f"state {label!r} has norm {norm:.9g}; normalizing")
    return QuantumState(amps)


def _parse_matrix(raw, dim: int, label: str) -> Observable:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"observable {label!r} must be a {dim}x{dim} matrix")
    rows = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"observable {label!r} row {r} must have {dim} entries")
        rows.append([_parse_complex(v, f"{label}[{r}][{k}]") for k, v in enumerate(row)])
    try:
        return Observable(np.array(rows))
    except NotHermitian as exc:
        raise NotHermitian(f"observable {label!r}: {exc}") from None


def load_scenario(document) -> Scenario:
    """Build a Scenario from a JSON document (text or parsed dict).

    Parsing is strict: text that does not decode or is not JSON,
    unknown fields, a name that is not a string, wrong shapes, or
    malformed or non-finite complex pairs raise ParseError naming the
    field; non-Hermitian observables raise NotHermitian (with the
    offending entry); zero states raise ZeroState.

    Text (``str`` or ``bytes``) is parsed once per process: the last 16
    texts loaded map to their read-only Scenarios, so loading the same
    text again returns the same Scenario, whose observables keep their
    eigendecompositions. A parsed dict is built afresh on every call,
    and so is text that failed to load. Each load that succeeds, cached
    or not, issues the document's normalization warnings at the caller's
    line.
    """
    if isinstance(document, (str, bytes)):
        scn, warned = _load_text(document)
    else:
        warned = []
        scn = _build(document, warned)
    for message in warned:
        warnings.warn(message, stacklevel=2)
    return scn


# Bounded, since each entry holds its text and its Scenario. A loop over
# more files than the bound would miss on every load; 16 covers a handful
# of files without being sized to any one workload.
@functools.lru_cache(maxsize=16)
def _load_text(text: str | bytes) -> tuple[Scenario, tuple[str, ...]]:
    """The Scenario of a text document and the texts of its warnings."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also UnicodeDecodeError, for bytes
        raise ParseError(f"scenario document is not valid JSON: {exc}") from exc
    warned = []
    return _build(doc, warned), tuple(warned)


def _build(doc, warned: list[str]) -> Scenario:
    """The Scenario of a parsed document; appends the texts of its
    warnings to warned."""
    if not isinstance(doc, dict):
        raise ParseError(f"scenario document must be an object, got {type(doc).__name__}")

    unknown = set(doc) - _ALLOWED_FIELDS
    if unknown:
        raise ParseError(f"unknown scenario fields: {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(doc)
    if missing:
        raise ParseError(f"missing scenario fields: {sorted(missing)}")

    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")

    i = _parse_state(doc["i"], dim, "i", warned)
    f = _parse_state(doc["f"], dim, "f", warned)

    if not isinstance(doc["observables"], dict) or not doc["observables"]:
        raise ParseError("observables must be a non-empty name -> matrix map")
    observables = {
        str(label): _parse_matrix(raw, dim, str(label))
        for label, raw in doc["observables"].items()
    }

    expected = {}
    if "expected" in doc:
        if not isinstance(doc["expected"], dict):
            raise ParseError("expected must be a name -> [re, im] map")
        for label, raw in doc["expected"].items():
            if label not in observables:
                raise ParseError(f"expected value for unknown observable {label!r}")
            expected[str(label)] = _parse_complex(raw, f"expected[{label}]")

    return Scenario(
        name=name,
        i=i,
        f=f,
        observables=observables,
        expected=expected,
    )


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def scenario_to_document(s: Scenario) -> dict:
    """JSON-compatible dict for a scenario (inverse of load_scenario)."""
    return {
        "name": s.name,
        "dim": s.dim,
        "i": [_pair(z) for z in s.i.amplitudes],
        "f": [_pair(z) for z in s.f.amplitudes],
        "observables": {
            label: [[_pair(z) for z in row] for row in obs.matrix]
            for label, obs in s.observables.items()
        },
        "expected": {label: _pair(z) for label, z in s.expected.items()},
    }

"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the ``weaklab`` modules with
timing wrappers at the name where their caller looks them up (for
example ``weaklab.engines.hermitian_eig``, which is what the engines
call), and puts every original back afterwards. Spans are aggregated
per (span, parent span) into a call count, total time and self time
(total minus the time of child spans), so memory stays bounded however
many calls a run makes.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

#: Layer span -> the functions it covers, as (module, attribute) pairs
#: naming where the caller looks them up. "weaklab.cli.PRESETS" entries
#: are dict items: the CLI calls PRESETS[name]().
SPANS = {
    "cli.main": [("weaklab.cli", "main")],
    "cli.serialize": [("weaklab.cli", "serialize_report"), ("weaklab.cli", "fit_error_order")],
    "validation.run_all_checks": [("weaklab.cli", "run_all_checks")],
    "scenarios.resolve": [
        ("weaklab.cli", "load_scenario"),
        ("weaklab.cli", "build_spin_amplifier"),
        *(("weaklab.cli.PRESETS", name) for name in ("three-box", "hardy", "spin", "imaginary")),
    ],
    "engines.run_single_exact": [("weaklab.cli", "run_single_exact"),
                                 ("weaklab.validation", "run_single_exact")],
    "engines.run_joint_exact": [("weaklab.cli", "run_joint_exact"),
                                ("weaklab.validation", "run_joint_exact")],
    "engines.run_fock": [("weaklab.cli", "run_fock"), ("weaklab.validation", "run_fock")],
    "engines.heisenberg_moment": [("weaklab.validation", "heisenberg_moment")],
    "weakvalues.extract": [("weaklab.cli", "extract_single"), ("weaklab.cli", "extract_joint")],
    "weakvalues.direct": [
        ("weaklab.cli", "direct_weak_value"),
        ("weaklab.cli", "direct_joint_weak_value"),
        ("weaklab.validation", "direct_weak_value"),
    ],
    "qcore.hermitian_eig": [("weaklab.engines", "hermitian_eig")],
    "qcore.simultaneous_eig": [("weaklab.engines", "simultaneous_eig")],
    "qcore.spectral_radius": [("weaklab.qcore.Observable", "spectral_radius")],
    "pointer.build_fock": [("weaklab.engines", "build_fock"), ("weaklab.validation", "build_fock")],
    "pointer.integrals": [
        ("weaklab.engines", "gaussian_overlap"),
        ("weaklab.engines", "moment_x"),
        ("weaklab.engines", "moment_p"),
    ],
}

ENGINE_SPANS = ("engines.run_fock", "engines.run_single_exact",
                "engines.run_joint_exact", "engines.heisenberg_moment")
EIG_SPANS = ("qcore.hermitian_eig", "qcore.simultaneous_eig", "qcore.spectral_radius")
ROOT = "command"
_MARK = "_perfbench_span"
_COMPLEX = 16  # bytes per complex128


def _fock_bytes(args) -> float:
    """Dominant arrays of one run_fock call, computed from d and n_max
    (not measured): joint runs hold the (n+1)^2 blocks of d x d
    Hamiltonians and their eigenvectors plus four d(n+1)^2 state
    arrays; single runs hold X, P and the momentum frame ((n+1)^2 each)
    plus five d(n+1) state arrays."""
    d, n = args["i"].dim, args["n_max"] + 1
    if hasattr(args["c"], "B"):
        return _COMPLEX * (2 * n * n * d * d + 4 * d * n * n)
    return _COMPLEX * (3 * n * n + 5 * d * n)


def _heisenberg_bytes(args) -> float:
    """Five dense D x D complex matrices (Hamiltonian, observable,
    nested commutator and the two products), D = d (n_max+1)^2."""
    dim = args["i"].dim * (args["n_max"] + 1) ** 2
    return _COMPLEX * 5 * dim * dim


_SIZERS = {"engines.run_fock": _fock_bytes, "engines.heisenberg_moment": _heisenberg_bytes}


def _resolve(path: str):
    """Module, class or dict named by a dotted path under weaklab."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def _get(container, key):
    return container[key] if isinstance(container, dict) else getattr(container, key)


def _set(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Wraps the SPANS targets while installed; one instance per pass."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.computed_bytes: dict[str, float] = {}
        self._stack = [[ROOT, 0.0]]
        self._patches = []

    def _wrap(self, fn, name):
        stack, spans = self._stack, self.spans
        sizer = _SIZERS.get(name)
        signature = inspect.signature(fn) if sizer else None
        computed = self.computed_bytes

        def wrapper(*args, **kwargs):
            if sizer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                computed[name] = computed.get(name, 0.0) + sizer(bound.arguments)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self):
        for name, targets in SPANS.items():
            for path, attr in targets:
                container = _resolve(path)
                original = _get(container, attr)
                self._patches.append((container, attr, original))
                _set(container, attr, self._wrap(original, name))

    def restore(self):
        """Put every original back and verify no wrapper is left."""
        while self._patches:
            container, attr, original = self._patches.pop()
            _set(container, attr, original)
        leftovers = [
            f"{where}.{key}"
            for where, namespace in _namespaces()
            for key, value in namespace.items()
            if hasattr(value, _MARK)
        ]
        if leftovers:
            raise RuntimeError(f"trace wrappers left installed: {leftovers}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (name, _parent), (n, _total, _self) in self.spans.items():
            out[name] = out.get(name, 0) + n
        return out

    def self_ms(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (name, _parent), (_n, _total, self_s) in self.spans.items():
            out[name] = out.get(name, 0.0) + 1e3 * self_s
        return out

    def by_parent(self) -> list[dict]:
        return [
            {"span": name, "parent": parent, "calls": n,
             "total_ms": 1e3 * total, "self_ms": 1e3 * self_s}
            for (name, parent), (n, total, self_s) in sorted(self.spans.items())
        ]


def _namespaces():
    """Every namespace a wrapper could have been written into."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "weaklab" or mod_name.startswith("weaklab."):
            yield mod_name, vars(module)
    yield "weaklab.qcore.Observable", vars(_resolve("weaklab.qcore.Observable"))
    yield "weaklab.cli.PRESETS", _resolve("weaklab.cli.PRESETS")


def layer_metrics(tracer: Tracer, rows: int) -> dict[str, float]:
    """Per-layer metric values of one traced pass over ``rows`` output
    rows, keyed by the names in BENCHMARK.json."""
    calls, self_ms = tracer.calls(), tracer.self_ms()
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    for name in _SIZERS:
        out[f"{name}.computed_mb"] = tracer.computed_bytes.get(name, 0.0) / 2**20
    per_row = 1.0 / rows
    out["qcore.eig_per_row"] = sum(calls.get(n, 0) for n in EIG_SPANS) * per_row
    out["pointer.integrals_per_row"] = calls.get("pointer.integrals", 0) * per_row
    out["pointer.build_fock_per_row"] = calls.get("pointer.build_fock", 0) * per_row
    out["engines.calls_per_row"] = sum(calls.get(n, 0) for n in ENGINE_SPANS) * per_row
    return out


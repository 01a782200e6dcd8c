"""Seeded inputs for the benchmark workloads.

Every workload is a cycle of distinct CLI commands that the client
repeats in a closed loop. The generator uses only the standard library
(``random.Random``), so one seed gives byte-identical argv lists and
scenario files on any numpy version. The program under test receives
nothing but these argv lists and the scenario files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sweep_exact", "sweep_fock", "run_mix", "validate")

#: Coupling range of every workload; sweeps are log-spaced across it.
K_MIN, K_MAX = 1e-3, 1e-1
#: Random scenarios keep |<f|i>| at or above this, so the post-selection
#: probability (about |<f|i>|^2 >= 0.09) stays far from the EPS_PS floor.
OVERLAP_FLOOR = 0.3
#: run_mix keeps the spin angle this far (radians) from the poles of
#: (1 - tan a)/(1 + tan a) at -pi/4 and 3pi/4.
ALPHA_POLE_MARGIN = 0.5
N_MAX = 40

SWEEP_EXACT_POINTS = 50
SWEEP_FOCK_POINTS = 6
SWEEP_FOCK_SCENARIOS = 6
RUN_MIX_COMMANDS = 400
FOCK_DIM = 4

#: The four commuting hardy pairs, with the fitted order of the
#: extraction error measured on them: the mixed pairs have no K^2 error
#: term, so their error falls as K^4.
HARDY_PAIRS = (
    ("N_Oe", "N_Op", 2.0),
    ("N_Oe", "N_NOp", 4.0),
    ("N_NOe", "N_Op", 4.0),
    ("N_NOe", "N_NOp", 2.0),
)
HARDY_SINGLES = ("N_Oe", "N_NOe", "N_Op", "N_NOp")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output check needs to know.

    ``kind`` is the subcommand. ``k`` is the smallest coupling in the
    output and ``sigma`` the x-pointer width, which together set the
    error bound. ``points`` and ``order`` are the sweep's row count and
    expected fitted error order (``None`` for other kinds).
    """

    argv: tuple[str, ...]
    kind: str
    k: float = 0.0
    sigma: float = 1.0
    points: int | None = None
    order: float | None = None


def _num(x: float) -> str:
    """Short decimal text for a generated float; the value checked is
    the one parsed back from it, which is the one the program sees."""
    return format(x, ".6g")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(_num(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _sweep(scenario, a, b, engine, sigma, points, order, extra=()):
    argv = (
        "sweep", "--scenario", scenario, "--observable", a, "--observable-b", b,
        "--engine", engine, *extra, "--sigma-x", _num(sigma),
        "--k-min", _num(K_MIN), "--k-max", _num(K_MAX),
        "--points", str(points), "--log",
    )
    return Command(argv, "sweep", k=K_MIN, sigma=sigma, points=points, order=order)


def _sweep_exact(rng: random.Random, _directory: Path) -> list[Command]:
    cmds = [
        _sweep("hardy", a, b, "exact", _log_uniform(rng, 0.8, 1.25),
               SWEEP_EXACT_POINTS, order)
        for a, b, order in HARDY_PAIRS
        for _ in range(2)
    ]
    rng.shuffle(cmds)
    return cmds


def _random_state(rng: random.Random, dim: int) -> list[complex]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def _random_hermitian(rng: random.Random, dim: int) -> list[list[complex]]:
    """Exactly Hermitian matrix scaled to unit Frobenius norm, which
    bounds its spectral radius by 1."""
    m = [[0j] * dim for _ in range(dim)]
    for r in range(dim):
        m[r][r] = complex(rng.gauss(0, 1), 0.0)
        for c in range(r + 1, dim):
            z = complex(rng.gauss(0, 1), rng.gauss(0, 1)) / math.sqrt(2)
            m[r][c], m[c][r] = z, z.conjugate()
    norm = math.sqrt(sum(abs(z) ** 2 for row in m for z in row))
    return [[z / norm for z in row] for row in m]


def _commutator_norm(a, b) -> float:
    dim = len(a)
    return max(
        abs(sum(a[r][k] * b[k][c] - b[r][k] * a[k][c] for k in range(dim)))
        for r in range(dim)
        for c in range(dim)
    )


def random_scenario(rng: random.Random, name: str, dim: int = FOCK_DIM) -> dict:
    """Scenario document with a noncommuting pair A, B and pre/post
    states whose overlap modulus is at least OVERLAP_FLOOR."""
    while True:
        i, f = _random_state(rng, dim), _random_state(rng, dim)
        if abs(sum(x.conjugate() * y for x, y in zip(f, i))) >= OVERLAP_FLOOR:
            break
    while True:
        a, b = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
        if _commutator_norm(a, b) > 0.1:
            break

    def pair(z):
        return [z.real, z.imag]

    return {
        "name": name,
        "dim": dim,
        "i": [pair(z) for z in i],
        "f": [pair(z) for z in f],
        "observables": {
            "A": [[pair(z) for z in row] for row in a],
            "B": [[pair(z) for z in row] for row in b],
        },
    }


def _sweep_fock(rng: random.Random, directory: Path) -> list[Command]:
    cmds = []
    for n in range(SWEEP_FOCK_SCENARIOS):
        path = directory / f"random_{n}.json"
        path.write_text(json.dumps(random_scenario(rng, f"random-{n}")) + "\n")
        cmds.append(
            _sweep(str(path), "A", "B", "fock", 1.0, SWEEP_FOCK_POINTS, 2.0,
                   extra=("--n-max", str(N_MAX)))
        )
    return cmds


def _run_mix(rng: random.Random, _directory: Path) -> list[Command]:
    """Cycle through five run shapes x two engines; couplings, labels
    and spin angles come from the seed."""
    shapes = ("three-box", "hardy", "hardy-joint", "spin", "imaginary")
    cmds = []
    for n in range(RUN_MIX_COMMANDS):
        shape = shapes[n % len(shapes)]
        engine = ("exact", "fock")[(n // len(shapes)) % 2]
        k = _log_uniform(rng, K_MIN, K_MAX)
        argv = ["run", "--scenario", shape.removesuffix("-joint")]
        if shape == "three-box":
            argv += ["--observable", rng.choice(("P1", "P2", "P3"))]
        elif shape == "hardy":
            argv += ["--observable", rng.choice(HARDY_SINGLES)]
        elif shape == "hardy-joint":
            a, b, _ = rng.choice(HARDY_PAIRS)
            argv += ["--observable", a, "--observable-b", b]
        else:
            argv += ["--observable", "sigma_z"]
        if shape == "spin":
            lo = -math.pi / 4 + ALPHA_POLE_MARGIN
            hi = 3 * math.pi / 4 - ALPHA_POLE_MARGIN
            # "=" keeps argparse from reading a negative value like -5e-06 as a flag
            argv += [f"--alpha={_num(rng.uniform(lo, hi))}"]
        argv += ["--engine", engine]
        if engine == "fock":
            argv += ["--n-max", str(N_MAX)]
        argv += ["--sigma-x", "1", "--kx", _num(k), "--format", "json"]
        cmds.append(Command(tuple(argv), "run", k=k))
    return cmds


def _validate(_rng: random.Random, _directory: Path) -> list[Command]:
    return [Command(("validate",), "validate")]


_BUILDERS = {
    "sweep_exact": _sweep_exact,
    "sweep_fock": _sweep_fock,
    "run_mix": _run_mix,
    "validate": _validate,
}


def make_inputs(workload: str, seed: int, directory: Path) -> list[Command]:
    """The workload's command cycle for this seed; scenario files go to
    ``directory``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, Path(directory))


def inputs_digest(cmds: list[Command], directory: Path) -> str:
    """sha256 over the argv lists and every generated file, with paths
    made relative to ``directory`` so the digest names the inputs, not
    where they were written."""
    h = hashlib.sha256()
    prefix = str(directory) + "/"
    for cmd in cmds:
        h.update("\0".join(cmd.argv).replace(prefix, "").encode() + b"\n")
    for path in sorted(Path(directory).glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()

"""The benchmark's workloads: generated configs and independent output checks.

Each workload turns a seed into the configs of one round of operations and
checks each operation's outputs against values computed here with numpy,
from the config alone; the checks read the program's output files with
their own parser and import nothing from ``affinehe``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])
M_MAX = 25.0


@dataclass
class Op:
    """One CLI command on one generated config."""

    command: str          # affinehe subcommand
    config: dict          # INI sections -> {key: value}
    facts: dict           # what the checks need to know about the input


@dataclass
class Workload:
    name: str
    make_round: Callable[[int], list[Op]]
    check: Callable[[Op, Path], list[str]]


def write_ini(path: Path, config: dict) -> None:
    lines = []
    for section, entries in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
    path.write_text("\n".join(lines) + "\n")


def _matrix_entries(m: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(m).ravel())


def read_field(path: Path) -> tuple[int, int, str, np.ndarray]:
    """Parse a columnar field dump: header ``dim N tag rank``, then one row
    of ``re im`` pairs per grid point.  Returns (dim, N, tag, values) with
    values of shape grid, grid + (rank, rank) for matrix fields."""
    with open(path) as fh:
        dim, N, tag, rank = fh.readline().split()
        dim, N, rank = int(dim), int(N), int(rank)
        rows = np.loadtxt(fh, ndmin=2)
    values = rows[:, 0::2] + 1j * rows[:, 1::2]
    grid = (N,) * dim
    if tag == "scalar":
        return dim, N, tag, values[:, 0].reshape(grid)
    return dim, N, tag, values.reshape(grid + (rank, rank))


def _value(report: dict, key: str) -> tuple[float, float]:
    entry = report[key]
    return float(entry["value"]), float(entry["tolerance"])


def matrix_power(rho: np.ndarray, x: float) -> np.ndarray:
    """rho^x = exp(x log rho) for a diagonalizable rho with positive spectrum."""
    w, V = np.linalg.eig(rho)
    return (V * np.exp(x * np.log(w.astype(complex)))) @ np.linalg.inv(V)


# -- he_polystable_t1 ----------------------------------------------------------
# The perturbation is drawn by the program from [output] seed.  The cost of
# one solve changes several-fold between draws (and between equivalent
# presentations of the same problem), so the draw is fixed; see README.
HE_MONODROMY = np.diag([2.0, 3.0])
HE_REL_TOL = 1e-6      # the K_defect tolerance the program reports


def he_round(seed: int) -> list[Op]:
    config = {
        "torus": {"dim": 1, "resolution": 32, "backend": "spectral"},
        "metric": {"type": "constant", "matrix": 1.0},
        "bundle": {"rank": 2, "monodromy1": _matrix_entries(HE_MONODROMY)},
        "perturbation": {"amplitude": 0.1, "modes": 1},
        "output": {"seed": 0},
    }
    return [Op("solve", config, {"monodromy": HE_MONODROMY})]


def he_check(op: Op, out: Path) -> list[str]:
    report = json.loads((out / "solve_report.json").read_text())
    errors = []
    if report["status"] != "converged":
        return [f"status {report['status']!r}, expected 'converged'"]
    kdef, ktol = _value(report, "K_defect")
    if not kdef <= ktol:
        errors.append(f"K_defect {kdef:.3e} > {ktol:.1e}")
    _, N, tag, h = read_field(out / "final_metric.txt")
    if tag != "hermitian":
        return errors + [f"final_metric tag {tag!r}"]
    # transported by exp(xB), the HE metric of a split bundle is constant
    # and diagonal
    rho = op.facts["monodromy"]
    T = np.array([matrix_power(rho, j / N) for j in range(N)])
    M = np.conj(np.swapaxes(T, -1, -2)) @ h @ T
    scale = np.abs(M).max()
    const = np.abs(M - M.mean(axis=0)).max() / scale
    offdiag = np.abs(M[:, 0, 1]).max() / scale
    if not const <= HE_REL_TOL:
        errors.append(f"transported metric not constant ({const:.2e})")
    if not offdiag <= HE_REL_TOL:
        errors.append(f"transported metric not diagonal ({offdiag:.2e})")
    return errors


# -- blowup_t2 -----------------------------------------------------------------
def blowup_round(seed: int) -> list[Op]:
    """The seed picks which axis carries the unipotent monodromy; the two
    choices are exchanged by the symmetry x^1 <-> x^2 of the flat metric."""
    axis = int(np.random.default_rng(seed).integers(2))
    mono = [np.eye(2), np.eye(2)]
    mono[axis] = UNIPOTENT
    config = {
        "torus": {"dim": 2, "resolution": 16, "backend": "spectral"},
        "metric": {"type": "constant", "matrix": 1.0},
        "bundle": {"rank": 2, "monodromy1": _matrix_entries(mono[0]),
                   "monodromy2": _matrix_entries(mono[1])},
        "solver": {"m_max": M_MAX},
        "output": {"seed": 0},
    }
    return [Op("solve", config, {"monodromy": mono})]


def common_fixed_space(mats: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis (columns) of the vectors fixed by every matrix."""
    r = mats[0].shape[0]
    stacked = np.vstack([m - np.eye(r) for m in mats])
    _, s, Vh = np.linalg.svd(stacked)
    s = np.concatenate([s, np.zeros(r - len(s))])
    return np.conj(Vh[s <= 1e-12 * max(1.0, s.max())]).T


def blowup_check(op: Op, out: Path) -> list[str]:
    report = json.loads((out / "solve_report.json").read_text())
    if report["status"] != "blowup":
        return [f"status {report['status']!r}, expected 'blowup'"]
    errors = []
    if not report["m_at_blowup"] >= M_MAX:
        errors.append(f"m_at_blowup {report['m_at_blowup']} < m_max {M_MAX}")
    dest = json.loads((out / "destabilizer_report.json").read_text())
    if dest["rank"] != 1:
        return errors + [f"destabilizer rank {dest['rank']}, expected 1"]
    basis = np.array([complex(re, im) for re, im in dest["subbundle_basis"]])
    fixed = common_fixed_space(op.facts["monodromy"])
    if fixed.shape[1] != 1:
        return errors + [f"fixed space has dimension {fixed.shape[1]}"]
    cos = abs(np.vdot(fixed[:, 0], basis)) / np.linalg.norm(basis)
    if not cos >= 1.0 - 1e-10:
        errors.append(f"destabilizer not parallel to the fixed space "
                      f"(|cos| = {cos:.12f})")
    mu_F, tol = _value(dest, "mu_F")
    mu_E, _ = _value(dest, "mu_E")
    if not mu_F >= mu_E - tol:
        errors.append(f"mu_F {mu_F:.3e} < mu_E {mu_E:.3e} - {tol:.1e}")
    cw, cw_tol = _value(dest, "chern_weil_defect")
    if not cw <= cw_tol:
        errors.append(f"Chern-Weil defect {cw:.3e} > {cw_tol:.1e}")
    return errors


# -- gauduchon_t3 --------------------------------------------------------------
def gauduchon_round(seed: int) -> list[Op]:
    """The seed picks the axis and the amplitude of g = (1 + a sin 2 pi x^k) I;
    the cost does not depend on either."""
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(1, 4))
    amplitude = float(rng.uniform(0.3, 0.6))
    config = {
        "torus": {"dim": 3, "resolution": 12, "backend": "spectral"},
        "metric": {"type": "conformal_sin", "amplitude": repr(amplitude),
                   "axis": axis},
        "bundle": {"rank": 1, "monodromy1": 1, "monodromy2": 1,
                   "monodromy3": 1},
        "output": {"seed": 0},
    }
    return [Op("gauduchon", config, {"axis": axis, "amplitude": amplitude})]


GAUDUCHON_REL_TOL = 1e-8   # the q_residual tolerance the program reports


def gauduchon_check(op: Op, out: Path) -> list[str]:
    report = json.loads((out / "gauduchon_report.json").read_text())
    errors = []
    q, q_tol = _value(report, "q_residual")
    if not q <= q_tol:
        errors.append(f"q_residual {q:.3e} > {q_tol:.1e}")
    dim, N, tag, phi = read_field(out / "gauduchon_factor.txt")
    if tag != "scalar" or np.abs(phi.imag).max() > 0:
        return errors + ["factor is not a real scalar field"]
    phi = phi.real
    if not phi.min() > 0:
        errors.append(f"factor not positive (min {phi.min():.3e})")
    # c^{-1} g is flat, so the exact factor is proportional to c^{-(n-1)}
    x = np.arange(N) / N
    c = 1.0 + op.facts["amplitude"] * np.sin(2 * np.pi * x)
    shape = [1] * dim
    shape[op.facts["axis"] - 1] = N
    product = phi * c.reshape(shape) ** (dim - 1)
    spread = (product.max() - product.min()) / product.mean()
    if not spread <= GAUDUCHON_REL_TOL:
        errors.append(f"phi c^(n-1) not constant (relative spread {spread:.2e})")
    return errors


WORKLOADS = {
    "he_polystable_t1": Workload("he_polystable_t1", he_round, he_check),
    "blowup_t2": Workload("blowup_t2", blowup_round, blowup_check),
    "gauduchon_t3": Workload("gauduchon_t3", gauduchon_round, gauduchon_check),
}

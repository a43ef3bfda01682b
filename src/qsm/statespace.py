"""Tripartite pure-state data model, example-state catalog, and file I/O.

A state lives on three registers R (reference), A (sender), B (receiver) and
is its complex amplitude tensor indexed ``(iR, iA, iB)``: the tensor's shape
is the one record of the register dimensions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import is_integer, schmidt_decompose

_MARGINAL_AXES = {"R": (0,), "A": (1,), "B": (2,), "RA": (0, 1), "RB": (0, 2), "AB": (1, 2)}

CATALOG_NAMES = (
    "ghz",
    "implication2",
    "implication3",
    "implication4_psi",
    "implication4_psi_prime",
    "appendixD",
    "qutrit_choi",
)


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """Pure state on R (x) A (x) B given by its amplitude tensor of shape
    (dim_R, dim_A, dim_B); amplitudes normalized exactly on construction."""

    amplitudes: np.ndarray
    name: str = ""

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 3 or amps.size == 0:
            raise ValidationError(
                f"amplitude tensor must have three non-empty axes (R, A, B), got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-6:  # written so that a NaN norm fails too
            raise ValidationError(f"state norm {norm} deviates from 1 by more than 1e-6")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.amplitudes.shape

    @property
    def vector(self) -> np.ndarray:
        """Flattened amplitude vector (R-major, then A, then B)."""
        return self.amplitudes.reshape(-1)

    def marginal(self, which: str) -> np.ndarray:
        """Reduced density operator on the named registers ('R','A','B','RA','RB','AB')."""
        if which not in _MARGINAL_AXES:
            raise ValidationError(f"unknown marginal {which!r}")
        keep = _MARGINAL_AXES[which]
        traced = tuple(i for i in range(3) if i not in keep)
        perm = keep + traced
        dims = self.dims
        d_keep = math.prod(dims[i] for i in keep)
        mat = self.amplitudes.transpose(perm).reshape(d_keep, -1)
        return mat @ mat.conj().T

    def overlap(self, other: "TripartiteState") -> complex:
        return complex(np.vdot(self.vector, other.vector))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def save_state(state: TripartiteState, path) -> None:
    """Write the JSON state file (explicit index rows; floats round-trip exactly)."""
    rows = []
    it = np.nditer(state.amplitudes, flags=["multi_index"])
    for x in it:
        val = complex(x)
        if val != 0:
            i, a, b = it.multi_index
            rows.append([int(i), int(a), int(b), float(val.real), float(val.imag)])
    doc: dict = {
        "version": 1,
        "dims": dict(zip("RAB", state.dims)),
        "amps": rows,
    }
    if state.name:
        doc["name"] = state.name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _int_field(value, field: str, minimum: int) -> int:
    """A JSON integer ``>= minimum``; booleans, fractions and non-numbers are rejected."""
    if not is_integer(value) or value < minimum:
        raise ValidationError(
            f"state file field {field} must be an integer >= {minimum}, got {json.dumps(value)}"
        )
    return value


def _real_field(value, field: str) -> float:
    """A finite JSON number; booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(
            f"state file field {field} must be a finite number, got {json.dumps(value)}"
        )
    return float(value)


def _zero_amplitudes(dims: tuple[int, int, int]) -> np.ndarray:
    """Zero amplitude tensor; dimensions too large to allocate are a ValidationError."""
    try:
        return np.zeros(dims, dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"register dimensions {dims} are too large to allocate") from exc


def load_state(path) -> TripartiteState:
    """Load and validate a JSON state file written by :func:`save_state`.

    Every malformed field raises :class:`ValidationError` naming it; values are
    never coerced (a dimension of ``2.7`` or ``true`` is an error, not ``2``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise ValidationError("state file must be a JSON object with version 1")
    dims = doc.get("dims")
    if not isinstance(dims, dict) or not all(k in dims for k in "RAB"):
        raise ValidationError("state file dims must be an object with keys R, A, B")
    shape = tuple(_int_field(dims[k], f"dims.{k}", 1) for k in "RAB")
    amps = _zero_amplitudes(shape)
    seen: set[tuple[int, int, int]] = set()
    rows = doc.get("amps")
    if not isinstance(rows, list) or not rows:
        raise ValidationError("state file has no amplitude rows")
    for n, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 5:
            raise ValidationError(f"malformed amplitude row {row!r}")
        i, a, b = (_int_field(row[k], f"amps[{n}][{k}]", 0) for k in range(3))
        if not (i < shape[0] and a < shape[1] and b < shape[2]):
            raise ValidationError(f"amplitude index ({i},{a},{b}) out of range for dims {shape}")
        if (i, a, b) in seen:
            raise ValidationError(f"duplicate amplitude index ({i},{a},{b})")
        seen.add((i, a, b))
        amps[i, a, b] = _real_field(row[3], f"amps[{n}][3]") + 1j * _real_field(row[4], f"amps[{n}][4]")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"state file norm {norm} deviates from 1 by more than 1e-6")
    return TripartiteState(amps, name=str(doc.get("name", "")))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _bell(sign: float, kind: str) -> np.ndarray:
    """Two-qubit Bell vector: kind 'phi' = (|00> ± |11>)/sqrt2, 'psi' = (|01> ± |10>)/sqrt2."""
    v = np.zeros((2, 2), dtype=complex)
    if kind == "phi":
        v[0, 0] = 1.0
        v[1, 1] = sign
    else:
        v[0, 1] = 1.0
        v[1, 0] = sign
    return v / np.sqrt(2.0)


def _ghz(d: int) -> TripartiteState:
    amps = _zero_amplitudes((d, d, d))
    for l in range(d):
        amps[l, l, l] = 1.0 / np.sqrt(float(d))
    return TripartiteState(amps, name=f"ghz{d}")


def _implication2() -> TripartiteState:
    s2 = np.sqrt(2.0)
    s3 = np.sqrt(3.0)
    phi_p = _bell(+1.0, "phi")
    phi_m = _bell(-1.0, "phi")
    psi_m = _bell(-1.0, "psi")
    swap01 = np.zeros((3, 3), dtype=complex)
    swap01[0, 1] = 1.0 / s2
    swap01[1, 0] = 1.0 / s2
    e00 = np.zeros((3, 3), dtype=complex)
    e00[0, 0] = 1.0
    e22 = np.zeros((3, 3), dtype=complex)
    e22[2, 2] = 1.0
    ket00 = np.zeros((2, 2), dtype=complex)
    ket00[0, 0] = 1.0
    # one (A, B) amplitude matrix per R level, over the factors (a1 a2 a3, b1 b2 b3)
    amps = np.stack([
        np.kron(np.kron(a1b1, a2b2), a3b3) / s3
        for a1b1, a2b2, a3b3 in ((swap01, phi_m, phi_p), (e00, phi_m, phi_p), (e22, ket00, psi_m))
    ])
    return TripartiteState(amps, name="implication2")


def _implication3() -> TripartiteState:
    amps = np.zeros((2, 2, 2), dtype=complex)
    s2 = np.sqrt(2.0)
    amps[0, 0, 1] = 1.0 / 2.0
    amps[0, 1, 0] = 1.0 / 2.0
    amps[1, 0, 0] = 1.0 / s2
    return TripartiteState(amps, name="implication3")


def _implication4(prime: bool) -> TripartiteState:
    amps = np.zeros((2, 2, 2), dtype=complex)
    s2 = np.sqrt(2.0)
    amps[0, 0, 0] = 1.0 / s2
    if prime:
        amps[1, 0, 1] = 1.0 / 2.0
        amps[1, 1, 1] = 1.0 / 2.0
    else:
        amps[1, 1, 0] = 1.0 / 2.0
        amps[1, 1, 1] = 1.0 / 2.0
    name = "implication4_psi_prime" if prime else "implication4_psi"
    return TripartiteState(amps, name=name)


def _appendix_d() -> TripartiteState:
    amps = np.zeros((3, 6, 3), dtype=complex)
    c = 1.0 / (2.0 * np.sqrt(2.0))
    amps[0, 0, 0] = c  # |0>_R |0>_A1 |0>_A2 |0>_B
    amps[0, 1, 1] = c  # |0>_R |0>_A1 |1>_A2 |1>_B
    amps[1, 2, 0] = c  # |1>_R |1>_A1 |0>_A2 |0>_B
    amps[1, 3, 1] = c  # |1>_R |1>_A1 |1>_A2 |1>_B
    amps[2, 4, 2] = 1.0 / np.sqrt(2.0)  # |2>_R |2>_A1 |0>_A2 |2>_B
    return TripartiteState(amps, name="appendixD")


def _qutrit_choi() -> TripartiteState:
    amps = np.zeros((3, 3, 3), dtype=complex)
    c = 1.0 / np.sqrt(6.0)
    # antisymmetric R-B partners per A basis state
    amps[2, 0, 1] = c
    amps[1, 0, 2] = -c
    amps[0, 1, 2] = c
    amps[2, 1, 0] = -c
    amps[1, 2, 0] = c
    amps[0, 2, 1] = -c
    return TripartiteState(amps, name="qutrit_choi")


def catalog(name: str, d: int | None = None) -> TripartiteState:
    """Return a named example state; ``ghz`` additionally takes the dimension ``d``."""
    if name == "ghz":
        if not (is_integer(d) and d >= 2):
            raise ValidationError(f"catalog ghz requires an integer dimension d >= 2, got {d!r}")
        return _ghz(int(d))
    if d is not None:
        raise ValidationError(f"catalog state {name!r} takes no dimension parameter")
    builders = {
        "implication2": _implication2,
        "implication3": _implication3,
        "implication4_psi": lambda: _implication4(False),
        "implication4_psi_prime": lambda: _implication4(True),
        "appendixD": _appendix_d,
        "qutrit_choi": _qutrit_choi,
    }
    if name not in builders:
        raise ValidationError(f"unknown catalog state {name!r}; known: ghz, {', '.join(builders)}")
    return builders[name]()


# ---------------------------------------------------------------------------
# Derived states
# ---------------------------------------------------------------------------


def max_entangled_counterpart(state: TripartiteState) -> TripartiteState:
    """Replace the R|AB Schmidt spectrum by the uniform one on the same Schmidt bases.

    The output has psi^R = I/D with D the Schmidt rank of the input across
    R | AB; it is a fixed point of this map (idempotent).
    """
    sd = schmidt_decompose(state.vector, state.dims[0])
    rank = sd.rank()
    mat = sd.left[:, :rank] @ sd.right[:, :rank].T / np.sqrt(float(rank))
    amps = mat.reshape(state.dims)
    name = f"{state.name}_uniformR" if state.name else ""
    return TripartiteState(amps, name=name)


def schmidt_rank_r(state: TripartiteState) -> int:
    """Schmidt rank of the state across the R | AB cut."""
    return schmidt_decompose(state.vector, state.dims[0]).rank()


def random_state(rng: np.random.Generator, dims: tuple[int, int, int], name: str = "") -> TripartiteState:
    """Normalized complex-Gaussian random state on the given register dimensions."""
    if not all(is_integer(d) and d >= 1 for d in dims):
        raise ValidationError(f"random_state dims must be integers >= 1, got {dims!r}")
    g = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    g = g / np.linalg.norm(g)
    return TripartiteState(g, name=name)


__all__ = [
    "TripartiteState",
    "CATALOG_NAMES",
    "catalog",
    "load_state",
    "save_state",
    "max_entangled_counterpart",
    "schmidt_rank_r",
    "random_state",
]

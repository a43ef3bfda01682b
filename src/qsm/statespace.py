"""Tripartite pure-state data model, example-state catalog, and file I/O.

A state lives on three registers R (reference), A (sender), B (receiver) and
is stored as a complex amplitude tensor indexed ``(iR, iA, iB)``.  Registers
may carry an optional tensor-factor structure (e.g. A = 3x2x2) used only for
bookkeeping and display; indices are row-major within the declared factors.
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


@dataclass(frozen=True)
class Registers:
    """Register dimensions with optional factorizations of A and B."""

    dim_R: int
    dim_A: int
    dim_B: int
    factors_A: tuple[int, ...] | None = None
    factors_B: tuple[int, ...] | None = None

    def __post_init__(self):
        for label, d in (("R", self.dim_R), ("A", self.dim_A), ("B", self.dim_B)):
            if not isinstance(d, int) or d < 1:
                raise ValidationError(f"register {label} dimension must be a positive integer, got {d}")
        for label, dim, factors in (("A", self.dim_A, self.factors_A), ("B", self.dim_B, self.factors_B)):
            if factors is not None:
                factors = tuple(int(f) for f in factors)
                object.__setattr__(self, f"factors_{label}", factors)
                if any(f < 1 for f in factors) or math.prod(factors) != dim:
                    raise ValidationError(
                        f"factors {factors} of register {label} do not multiply to {dim}"
                    )


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """Pure state on R (x) A (x) B; amplitudes normalized exactly on construction."""

    regs: Registers
    amplitudes: np.ndarray
    name: str = ""

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        shape = (self.regs.dim_R, self.regs.dim_A, self.regs.dim_B)
        if amps.shape != shape:
            raise ValidationError(f"amplitude tensor shape {amps.shape} does not match registers {shape}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-6:  # written so that a NaN norm fails too
            raise ValidationError(f"state norm {norm} deviates from 1 by more than 1e-6")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.regs.dim_R, self.regs.dim_A, self.regs.dim_B)

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
        "dims": {"R": state.regs.dim_R, "A": state.regs.dim_A, "B": state.regs.dim_B},
        "amps": rows,
    }
    if state.regs.factors_A is not None:
        doc["factorsA"] = list(state.regs.factors_A)
    if state.regs.factors_B is not None:
        doc["factorsB"] = list(state.regs.factors_B)
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
    factors = {}
    for key in ("factorsA", "factorsB"):
        if key in doc:
            if not isinstance(doc[key], list):
                raise ValidationError(f"state file field {key} must be a list of integers")
            factors[key] = tuple(_int_field(f, f"{key}[{n}]", 1) for n, f in enumerate(doc[key]))
    regs = Registers(
        dim_R=_int_field(dims["R"], "dims.R", 1),
        dim_A=_int_field(dims["A"], "dims.A", 1),
        dim_B=_int_field(dims["B"], "dims.B", 1),
        factors_A=factors.get("factorsA"),
        factors_B=factors.get("factorsB"),
    )
    amps = _zero_amplitudes((regs.dim_R, regs.dim_A, regs.dim_B))
    seen: set[tuple[int, int, int]] = set()
    rows = doc.get("amps")
    if not isinstance(rows, list) or not rows:
        raise ValidationError("state file has no amplitude rows")
    for n, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 5:
            raise ValidationError(f"malformed amplitude row {row!r}")
        i, a, b = (_int_field(row[k], f"amps[{n}][{k}]", 0) for k in range(3))
        if not (i < regs.dim_R and a < regs.dim_A and b < regs.dim_B):
            raise ValidationError(f"amplitude index ({i},{a},{b}) out of range for dims {regs}")
        if (i, a, b) in seen:
            raise ValidationError(f"duplicate amplitude index ({i},{a},{b})")
        seen.add((i, a, b))
        amps[i, a, b] = _real_field(row[3], f"amps[{n}][3]") + 1j * _real_field(row[4], f"amps[{n}][4]")
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"state file norm {norm} deviates from 1 by more than 1e-6")
    return TripartiteState(regs=regs, amplitudes=amps, name=str(doc.get("name", "")))


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
    return TripartiteState(Registers(d, d, d), amps, name=f"ghz{d}")


def _implication2() -> TripartiteState:
    regs = Registers(3, 12, 12, factors_A=(3, 2, 2), factors_B=(3, 2, 2))
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
    return TripartiteState(regs, amps, name="implication2")


def _implication3() -> TripartiteState:
    amps = np.zeros((2, 2, 2), dtype=complex)
    s2 = np.sqrt(2.0)
    amps[0, 0, 1] = 1.0 / 2.0
    amps[0, 1, 0] = 1.0 / 2.0
    amps[1, 0, 0] = 1.0 / s2
    return TripartiteState(Registers(2, 2, 2), amps, name="implication3")


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
    return TripartiteState(Registers(2, 2, 2), amps, name=name)


def _appendix_d() -> TripartiteState:
    regs = Registers(3, 6, 3, factors_A=(3, 2))
    amps = np.zeros((3, 6, 3), dtype=complex)
    c = 1.0 / (2.0 * np.sqrt(2.0))
    amps[0, 0, 0] = c  # |0>_R |0>_A1 |0>_A2 |0>_B
    amps[0, 1, 1] = c  # |0>_R |0>_A1 |1>_A2 |1>_B
    amps[1, 2, 0] = c  # |1>_R |1>_A1 |0>_A2 |0>_B
    amps[1, 3, 1] = c  # |1>_R |1>_A1 |1>_A2 |1>_B
    amps[2, 4, 2] = 1.0 / np.sqrt(2.0)  # |2>_R |2>_A1 |0>_A2 |2>_B
    return TripartiteState(regs, amps, name="appendixD")


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
    return TripartiteState(Registers(3, 3, 3), amps, name="qutrit_choi")


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
    sd = schmidt_decompose(state.vector, state.regs.dim_R)
    rank = sd.rank()
    mat = sd.left[:, :rank] @ sd.right[:, :rank].T / np.sqrt(float(rank))
    amps = mat.reshape(state.dims)
    name = f"{state.name}_uniformR" if state.name else ""
    return TripartiteState(regs=state.regs, amplitudes=amps, name=name)


def schmidt_rank_r(state: TripartiteState) -> int:
    """Schmidt rank of the state across the R | AB cut."""
    return schmidt_decompose(state.vector, state.regs.dim_R).rank()


def random_state(rng: np.random.Generator, dims: tuple[int, int, int], name: str = "") -> TripartiteState:
    """Normalized complex-Gaussian random state on the given register dimensions."""
    g = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    g = g / np.linalg.norm(g)
    return TripartiteState(Registers(*[int(x) for x in dims]), g, name=name)


__all__ = [
    "Registers",
    "TripartiteState",
    "CATALOG_NAMES",
    "catalog",
    "load_state",
    "save_state",
    "max_entangled_counterpart",
    "schmidt_rank_r",
    "random_state",
]

"""Tripartite pure-state data model, example-state catalog, and file I/O.

A state lives on three registers R (reference), A (sender), B (receiver) and
is its complex amplitude tensor indexed ``(iR, iA, iB)``: the tensor's shape
is the one record of the register dimensions.  A state file (version 2)
holds that tensor in :func:`encode_complex` form, the encoding every run
report uses for complex arrays, plus an optional ``name``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import NORM_SLACK, SchmidtDecomposition, is_integer

_MARGINAL_AXES = {"R": (0,), "A": (1,), "B": (2,), "RA": (0, 1), "RB": (0, 2), "AB": (1, 2)}


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
        if not abs(norm - 1.0) <= NORM_SLACK:  # written so that a NaN norm fails too
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


def encode_complex(arr) -> dict:
    """The one JSON encoding of a complex array or scalar: nested lists of its
    real and imaginary parts, which round-trip floats exactly."""
    arr = np.asarray(arr)
    return {"real": arr.real.tolist(), "imag": arr.imag.tolist()}


def save_state(state: TripartiteState, path) -> None:
    """Write the JSON state file: the amplitude tensor in :func:`encode_complex` form."""
    doc = {"version": 2, "amplitudes": encode_complex(state.amplitudes)}
    if state.name:
        doc["name"] = state.name
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write state file {path}: {exc}") from exc


def _real_tensor(amplitudes: dict, key: str) -> np.ndarray:
    """``amplitudes[key]`` as a float tensor: a rectangular list nested 3 deep,
    with no empty axis, of finite numbers (a boolean is not a number)."""
    arr = np.array(amplitudes.get(key), dtype=object)
    try:
        if arr.ndim == 3 and arr.size and all(
            type(x) in (int, float) and math.isfinite(x) for x in arr.flat
        ):
            return arr.astype(float)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValidationError(
        f"state file field amplitudes.{key} must be a rectangular list nested 3 deep, "
        "with no empty axis, of finite numbers"
    )


def load_state(path) -> TripartiteState:
    """Load and validate a JSON state file written by :func:`save_state`.

    Every malformed field raises :class:`ValidationError` naming it; values are
    never coerced (an amplitude of ``true`` or ``"0.5"`` is an error, not a
    number).  The constructor checks the norm.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != 2:
        raise ValidationError(
            f"state file must be a JSON object with version 2, found version {json.dumps(version)}"
        )
    amplitudes = doc.get("amplitudes")
    if not isinstance(amplitudes, dict):
        raise ValidationError("state file field amplitudes must be an object with keys real and imag")
    real, imag = (_real_tensor(amplitudes, key) for key in encode_complex(0j))  # the encoder's keys
    if real.shape != imag.shape:
        raise ValidationError(
            f"state file fields amplitudes.real and amplitudes.imag differ in shape: "
            f"{real.shape} and {imag.shape}"
        )
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValidationError(f"state file field name must be a string, got {json.dumps(name)}")
    amps = np.empty(real.shape, dtype=complex)
    amps.real = real
    amps.imag = imag
    return TripartiteState(amps, name=name)


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


def _zero_amplitudes(dims: tuple[int, int, int]) -> np.ndarray:
    """Zero amplitude tensor; dimensions too large to allocate are a ValidationError."""
    try:
        return np.zeros(dims, dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"register dimensions {dims} are too large to allocate") from exc


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


# the catalog states without parameters, in the order `qsm verify-corpus`
# checks them; ghz, which takes a dimension, comes first
_BUILDERS = {
    "appendixD": _appendix_d,
    "implication2": _implication2,
    "implication3": _implication3,
    "implication4_psi": lambda: _implication4(False),
    "implication4_psi_prime": lambda: _implication4(True),
    "qutrit_choi": _qutrit_choi,
}
CATALOG_NAMES = ("ghz", *_BUILDERS)


def catalog(name: str, d: int | None = None) -> TripartiteState:
    """Return a named example state; ``ghz`` additionally takes the dimension ``d``."""
    if name == "ghz":
        if not (is_integer(d) and d >= 2):
            raise ValidationError(f"catalog ghz requires an integer dimension d >= 2, got {d!r}")
        return _ghz(int(d))
    if d is not None:
        raise ValidationError(f"catalog state {name!r} takes no dimension parameter")
    if name not in _BUILDERS:
        raise ValidationError(f"unknown catalog state {name!r}; known: {', '.join(CATALOG_NAMES)}")
    return _BUILDERS[name]()


# ---------------------------------------------------------------------------
# Derived states
# ---------------------------------------------------------------------------


def _uniform_counterpart(state: TripartiteState, sd: SchmidtDecomposition) -> TripartiteState:
    """The state with its R | AB Schmidt spectrum, read from its decomposition
    ``sd``, made uniform on the same Schmidt bases: psi^R = I/D, D the Schmidt
    rank.  The map is idempotent."""
    rank = sd.rank()
    mat = sd.left[:, :rank] @ sd.right[:, :rank].T / np.sqrt(float(rank))
    amps = mat.reshape(state.dims)
    name = f"{state.name}_uniformR" if state.name else ""
    return TripartiteState(amps, name=name)


def random_state(rng: np.random.Generator, dims: tuple[int, int, int], name: str = "") -> TripartiteState:
    """Normalized complex-Gaussian random state on the given register dimensions."""
    if not all(is_integer(d) and d >= 1 for d in dims):
        raise ValidationError(f"random_state dims must be integers >= 1, got {dims!r}")
    g = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    g = g / np.linalg.norm(g)
    return TripartiteState(g, name=name)

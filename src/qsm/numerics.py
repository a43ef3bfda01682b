"""Dense linear-algebra primitives with deterministic conventions.

Everything downstream (block decompositions, protocol construction, bound
computations) relies on the conventions fixed here:

* the global numerical tolerance ``tau`` (default ``1e-9``, overridable via
  the ``QSM_TOL`` environment variable),
* eigen- and Schmidt decompositions sorted by descending value with a
  deterministic tie-break (vectors phase-normalized so their first
  significant component is real positive, ties ordered lexicographically),
* fidelity of pure states in the squared convention, ``F = |<a|b>|^2``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TOL_DEFAULT = 1e-9


def tolerance() -> float:
    """Global numerical tolerance tau; ``QSM_TOL`` overrides the default."""
    raw = os.environ.get("QSM_TOL")
    if raw is None:
        return TOL_DEFAULT
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"QSM_TOL must parse as a float, got {raw!r}") from exc
    if not 0.0 < value < 1.0:
        raise ValidationError(f"QSM_TOL must lie in (0, 1), got {value}")
    return value


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def isometry_deviation(m: np.ndarray) -> float:
    """``max |m^dag m - 1|``: how far the columns of ``m`` are from orthonormal.

    NaN entries give NaN, so callers compare with ``not deviation <= bound``.
    """
    gram = dagger(m) @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[1]))))


def _leading_phase(v: np.ndarray) -> complex:
    """Unit phase that makes the first component with \\|v_i\\| > 1e-7 real positive."""
    for x in v.flat:
        if abs(x) > 1e-7:
            return x.conjugate() / abs(x)
    return 1.0 + 0.0j


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first component with \\|v_i\\| > 1e-7 is real positive."""
    v = np.asarray(v, dtype=complex)
    return v * _leading_phase(v)


def _lex_key(v: np.ndarray) -> tuple:
    # Descending entry-wise order so that, among degenerate candidates,
    # vectors supported on earlier basis levels sort first.
    rounded = np.round(v, 9)
    return tuple(-float(x) for pair in zip(rounded.real, rounded.imag) for x in pair)


def _tie_order(values: np.ndarray, vectors: list[np.ndarray], tol: float) -> list[int]:
    """Indices of descending ``values`` with runs equal within ``10 * tol`` sorted by ``_lex_key``."""
    order: list[int] = []
    i = 0
    n = len(values)
    while i < n:
        j = i + 1
        while j < n and abs(values[j] - values[i]) <= 10 * tol:
            j += 1
        order.extend(sorted(range(i, j), key=lambda k: _lex_key(vectors[k])))
        i = j
    return order


def canonical_eigh(h: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with descending eigenvalues, deterministic.

    Each eigenvector is phase-normalized (first significant component real
    positive); eigenvalues equal within ``10 * tol`` are ordered
    lexicographically by the normalized eigenvector entries.
    """
    h = np.asarray(h, dtype=complex)
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    cols = [phase_normalize(vecs[:, i]) for i in range(vecs.shape[1])]
    ordered = _tie_order(vals, cols, tol)
    out_vals = np.array([vals[k] for k in ordered], dtype=float)
    return out_vals, np.column_stack([cols[k] for k in ordered])


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a bipartite vector: ``v = sum_l c_l (left_l (x) right_l)``.

    ``coeffs`` is descending and includes trailing (near-)zero values up to
    ``min(d_left, d_right)``; ``left``/``right`` hold the corresponding
    orthonormal vectors as columns.
    """

    coeffs: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def rank(self) -> int:
        """Number of coefficients above the tolerance ``tau``."""
        return int(np.sum(self.coeffs > tolerance()))


def schmidt_decompose(v: np.ndarray, d_left: int, d_right: int | None = None) -> SchmidtDecomposition:
    """Schmidt decomposition of a vector across ``C^d_left (x) C^d_right``.

    Coefficients come out descending; left vectors are phase-normalized with
    the compensating phase absorbed into the right vectors, and coefficient
    ties are ordered lexicographically by the left vectors.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d_right is None:
        if v.size % d_left:
            raise ValidationError(f"vector of size {v.size} does not factor with d_left={d_left}")
        d_right = v.size // d_left
    if v.size != d_left * d_right:
        raise ValidationError(f"vector size {v.size} != {d_left} * {d_right}")
    mat = v.reshape(d_left, d_right)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    phases = [_leading_phase(u[:, l]) for l in range(s.size)]
    lefts = [u[:, l] * phases[l] for l in range(s.size)]
    ordered = _tie_order(s, lefts, tolerance())
    coeffs = np.array([s[k] for k in ordered], dtype=float)
    left = np.column_stack([lefts[k] for k in ordered])
    right = np.column_stack([vh[k, :] * phases[k].conjugate() for k in ordered])
    return SchmidtDecomposition(coeffs=coeffs, left=left, right=right)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Fidelity of two pure-state vectors in the squared convention, ``|<a|b>|^2``."""
    val = abs(np.vdot(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))) ** 2
    return float(min(max(val, 0.0), 1.0 + 1e-12))


def majorization_check(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """Whether ``x`` is majorized by ``y`` (prefix sums, zero-padded, tolerance ``tol``)."""
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    n = max(x.size, y.size)
    x = np.concatenate((x, np.zeros(n - x.size)))  # not np.pad: its call overhead dominated
    y = np.concatenate((y, np.zeros(n - y.size)))
    cx = np.cumsum(x)
    cy = np.cumsum(y)
    if abs(cx[-1] - cy[-1]) > max(tol, 1e-9 * max(1.0, abs(cy[-1]))):
        return False
    return bool(np.all(cx <= cy + tol))


def orthonormal_complement(cols: np.ndarray, out_dim: int) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of ``span(cols)`` in ``C^out_dim``.

    Candidates are the standard basis vectors in index order, projected against
    the accepted set twice for numerical stability; returns the full
    complement, ``out_dim - cols.shape[1]`` columns.
    """
    cols = np.asarray(cols, dtype=complex).reshape(out_dim, -1)
    have = cols.shape[1]
    if have > out_dim:
        raise ValidationError("requested complement larger than available dimension")
    count = out_dim - have
    basis = [cols[:, i] for i in range(have)]
    out: list[np.ndarray] = []
    for i in range(out_dim):
        if len(out) == count:
            break
        cand = np.zeros(out_dim, dtype=complex)
        cand[i] = 1.0
        for _ in range(2):
            for b in basis:
                cand = cand - b * np.vdot(b, cand)
        norm = np.linalg.norm(cand)
        if norm > 1e-7:
            cand = cand / norm
            basis.append(cand)
            out.append(cand)
    if len(out) < count:
        raise ValidationError("could not complete orthonormal basis (tolerance breakdown)")
    return np.column_stack(out) if out else np.zeros((out_dim, 0), dtype=complex)

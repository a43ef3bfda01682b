"""Dense linear-algebra primitives with deterministic conventions.

Everything downstream relies on the conventions fixed here:

* every threshold, named once by its role in the tolerance table below,
* eigen- and Schmidt decompositions sorted by descending value with a
  deterministic tie-break (vectors phase-normalized so their first
  significant component is real positive, ties ordered lexicographically),
* resource ranks rounded up by :func:`guarded_ceil`, forgiving ``CEIL_SLACK``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def tolerance() -> float:
    """The global numerical tolerance tau, a fixed ``1e-9``."""
    return 1e-9


# The tolerance table.  Roles that share a value keep separate names, and a level on tau
# is the product the code compares with: 100 * tolerance() is 1.0000000000000001e-07.
TIE = 10 * tolerance()  # eigenvalues, masses or block products this close are equal
MATCH = 10 * tolerance()  # entrywise slack of operators and spectra that must be equal
SPECTRUM_DROP = 10 * tolerance()  # eigen- and singular values at most this are 0 (support, rank)
BLOCK_DROP = 100 * tolerance()  # weight in a KI block (its p_j, a steered trace) at most this is 0
FIDELITY_LOSS = 10 * tolerance()  # fidelity an exact output may lose
ISOMETRY_SLACK = 10 * tolerance()  # isometry deviations, completeness and probability sums
KI_SLACK = 1e3 * tolerance()  # KI B-side factor isometry and block probability sum
CEIL_SLACK = 100 * tolerance()  # float noise guarded_ceil forgives below an integer
BRANCH_DROP = tolerance()  # outcomes and mixture terms of at most this weight are dropped
SCHMIDT_DROP = tolerance()  # Schmidt coefficients at most this are 0
MASS_SLACK = tolerance()  # slack of flattened masses and majorization prefix sums
PARALLEL_DROP = tolerance()  # a perturbation of at most this norm off the state is parallel
NORM_SLACK = 1e-6  # input vectors, weights and Choi traces are normalized within this
BOUND_SLACK = 1e-6  # converse bound orderings hold within this, the accuracy of h_max
COST_SLACK = 1e-9  # exact cost orderings in bits (search <= achievable, rank >= entropy)
COST_TIE = 1e-12  # costs in bits this close are equal
WEIGHT_SLACK = 1e-12  # certificate weights may dip this far below 0
RATIONAL_WIDENING = 1e-12  # rational_upper_approx widens its window down by this
CUT_FILTER = 1e-12  # flatten_schedule drops breakpoints and steps this close
POLAR_SLACK = 1e-6  # receiver singular values are 0 or 1 within this
PHASE_ANCHOR = 1e-7  # the first component above this fixes a vector's phase
COMPLEMENT_DROP = 1e-7  # a completing candidate of at most this norm is dependent
CHANNEL_SLACK = 1e-8  # a mixed-unitary decomposition rebuilds its Choi matrix within this
ALIGNMENT_SLACK = 1e-7  # the qubit merge's purification ranges agree within this


def guarded_ceil(x: float) -> int:
    """Ceiling that forgives float noise within ``CEIL_SLACK`` of an integer."""
    return max(1, math.ceil(x - CEIL_SLACK))


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def isometry_deviations(stack: np.ndarray) -> np.ndarray:
    """``max |m^dag m - 1|``, how far the columns of ``m`` are from orthonormal,
    for every matrix ``m`` of ``stack`` (last two axes; one matrix gives a 0-d
    array), from one stacked Gram product.  NaN entries give NaN, so callers
    compare with ``not deviation <= bound``."""
    gram = np.matmul(np.swapaxes(stack.conj(), -1, -2), stack)
    gram = gram.astype(np.result_type(gram, 1.0), copy=False)  # integer input
    n = gram.shape[-1]
    gram.reshape(*gram.shape[:-2], -1)[..., :: n + 1] -= 1.0  # the identity, in place
    return np.abs(gram).max(axis=(-2, -1))


def _leading_phase(v: np.ndarray) -> complex:
    """Unit phase that makes the first component with \\|v_i\\| > ``PHASE_ANCHOR`` real positive."""
    for x in v.flat:
        if abs(x) > PHASE_ANCHOR:
            return x.conjugate() / abs(x)
    return 1.0 + 0.0j


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first component with \\|v_i\\| > ``PHASE_ANCHOR`` is real positive."""
    v = np.asarray(v, dtype=complex)
    return v * _leading_phase(v)


def _lex_key(v: np.ndarray) -> tuple:
    # Descending entry-wise order so that, among degenerate candidates,
    # vectors supported on earlier basis levels sort first.
    rounded = np.round(v, 9)
    return tuple(-float(x) for pair in zip(rounded.real, rounded.imag) for x in pair)


def _tie_order(values: np.ndarray, vectors: list[np.ndarray]) -> list[int]:
    """Indices of descending ``values`` with runs equal within ``TIE`` sorted by ``_lex_key``.

    A run of one value is its own order, so its vector is never keyed.
    """
    order: list[int] = []
    i = 0
    n = len(values)
    while i < n:
        j = i + 1
        while j < n and abs(values[j] - values[i]) <= TIE:
            j += 1
        if j == i + 1:
            order.append(i)
        else:
            order.extend(sorted(range(i, j), key=lambda k: _lex_key(vectors[k])))
        i = j
    return order


def canonical_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with descending eigenvalues, deterministic.

    Each eigenvector is phase-normalized (first significant component real
    positive); eigenvalues equal within ``TIE`` are ordered
    lexicographically by the normalized eigenvector entries.
    """
    h = np.asarray(h, dtype=complex)
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    cols = [phase_normalize(vecs[:, i]) for i in range(vecs.shape[1])]
    ordered = _tie_order(vals, cols)
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
        """Number of coefficients above ``SCHMIDT_DROP``."""
        return int(np.sum(self.coeffs > SCHMIDT_DROP))


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
    ordered = _tie_order(s, lefts)
    coeffs = np.array([s[k] for k in ordered], dtype=float)
    left = np.column_stack([lefts[k] for k in ordered])
    right = np.column_stack([vh[k, :] * phases[k].conjugate() for k in ordered])
    return SchmidtDecomposition(coeffs=coeffs, left=left, right=right)


def majorization_check(x: np.ndarray, x_copies: int, y: np.ndarray, y_copies: int) -> bool:
    """Whether ``x (x) 1/x_copies`` is majorized by ``y (x) 1/y_copies``, for
    nonnegative ``x`` and ``y`` (prefix sums, zero-padded, ``MASS_SLACK``).

    Neither side is built.  Sorted, the y side's prefix sum at length t is
    the linear interpolation of ``cumsum(y)`` at t / y_copies, flat past its
    end, and so concave in t; the x side's is linear between multiples of
    ``x_copies``.  The gap between them is therefore smallest at such a
    multiple, and only those are compared: O(len(x) + len(y)) work.
    """
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    cx = x.cumsum()
    cy = np.concatenate(([0.0], y.cumsum()))
    if abs(cx[-1] - cy[-1]) > MASS_SLACK * max(1.0, abs(cy[-1])):
        return False
    ends = np.arange(x_copies, (x.size + 1) * x_copies, x_copies)
    y_at = np.interp(ends, np.arange(0, (y.size + 1) * y_copies, y_copies), cy)
    return bool((cx <= y_at + MASS_SLACK).all())


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
        if norm > COMPLEMENT_DROP:
            cand = cand / norm
            basis.append(cand)
            out.append(cand)
    if len(out) < count:
        raise ValidationError("could not complete orthonormal basis (tolerance breakdown)")
    return np.column_stack(out) if out else np.zeros((out_dim, 0), dtype=complex)

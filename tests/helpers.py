"""Reference helpers that only the tests use: constructions and checks the
library itself never needs, kept here so ``src/qsm`` holds no test-only code."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qsm.errors import ValidationError
from qsm.ki import KIBlock
from qsm.numerics import dagger, majorization_check, schmidt_decompose, tolerance
from qsm.statespace import Registers, TripartiteState


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of an operator on a tensor product, keeping ``keep`` factors in order."""
    dims = tuple(int(d) for d in dims)
    keep = tuple(int(k) for k in keep)
    n = len(dims)
    total = int(np.prod(dims))
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (total, total):
        raise ValidationError(f"operator shape {rho.shape} does not match dims {dims}")
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValidationError(f"invalid keep indices {keep} for {n} factors")
    tensor = rho.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n, 2 * n))
    for k in range(n):
        if k not in keep:
            col[k] = row[k]
    out_row = [row[k] for k in keep]
    out_col = [n + k for k in keep]
    result = np.einsum(tensor, row + col, out_row + out_col)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return result.reshape(d_keep, d_keep)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian with phase-fixed diagonal."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    return q * ph


def uniform_resource_majorization(
    eig_b: np.ndarray,
    eig_ab: np.ndarray,
    K: int,
    L: int,
) -> bool:
    """Spectra test behind the search bound.

    Checks whether the spectrum of ``1_K/K (x) psi^B`` is majorized by the
    spectrum of ``1_L/L (x) psi^{AB}``; a merging protocol of cost
    ``log2 K - log2 L`` can exist only if this holds.
    """
    if K < 1 or L < 1:
        raise ValidationError("resource ranks K and L must be >= 1")
    x = np.repeat(np.asarray(eig_b, dtype=float) / K, K)
    y = np.repeat(np.asarray(eig_ab, dtype=float) / L, L)
    return majorization_check(x, y, tolerance())


def projector(block: KIBlock) -> np.ndarray:
    """Projector onto the block's subspace of H^A."""
    flat = block.iso.reshape(block.iso.shape[0], -1)
    return flat @ dagger(flat)


def swap_ab(state: TripartiteState) -> TripartiteState:
    """Same state with the roles of A and B interchanged."""
    regs = Registers(
        dim_R=state.regs.dim_R,
        dim_A=state.regs.dim_B,
        dim_B=state.regs.dim_A,
        factors_A=state.regs.factors_B,
        factors_B=state.regs.factors_A,
    )
    name = f"{state.name}_swapped" if state.name else ""
    return TripartiteState(regs=regs, amplitudes=state.amplitudes.transpose(0, 2, 1), name=name)


def sample_schmidt_span_member(state: TripartiteState, rng: np.random.Generator) -> np.ndarray:
    """Random pure AB-vector in the span of the state's R-Schmidt AB-basis vectors.

    Returns a normalized vector of length dim_A * dim_B lying in the span of the
    AB-side Schmidt vectors of the given state (the family whose members the
    merging protocol transfers exactly).
    """
    sd = schmidt_decompose(state.vector, state.regs.dim_R)
    rank = sd.rank()
    c = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    c = c / np.linalg.norm(c)
    return sd.right[:, :rank] @ c


def flatten_source_vector(p: Sequence[float]) -> np.ndarray:
    """Return the purification sum_i sqrt(p_i)|i>|i> matching flatten_to_uniform."""
    p = np.asarray(p, dtype=float)
    n = p.size
    vec = np.zeros(n * n, dtype=complex)
    vec[:: n + 1] = np.sqrt(np.clip(p, 0.0, None))
    return vec


def flatten_target_vector(L: int, n: int) -> np.ndarray:
    """The L-level maximally entangled vector embedded in C^L (x) C^n."""
    if n < L:
        raise ValidationError(f"receiver dimension {n} smaller than target {L}")
    vec = np.zeros((L, n), dtype=complex)
    for l in range(L):
        vec[l, l] = 1.0 / np.sqrt(float(L))
    return vec.reshape(-1)



def planted_ki_state(
    rng: np.random.Generator,
    blocks: Sequence[tuple[int, int, int]],
    dim_r: int,
) -> tuple[TripartiteState, list]:
    """State with a planted Koashi-Imoto structure on A, rotated locally.

    ``blocks`` lists ``(dim_L, dim_R, dim_bR)`` per block j.  The state is
    ⊕_j √p_j |ω_j⟩|φ_j⟩ on R ⊗ (⊕_j a_j^L ⊗ a_j^R) ⊗ (⊕_j b_j^L ⊗ b_j^R):
    ω_j has full Schmidt rank dim_L on a_j^L ⊗ b_j^L with a random rational
    spectrum (integers 1..4, normalized, so a catalytic cost needs no long
    rational fit), φ_j is a random vector on R ⊗ a_j^R ⊗ b_j^R, the p_j are
    random, and Haar-random unitaries act on A and on B afterwards.  Returns
    the state and the planted ``(dim_L, dim_R, p_j, spectrum of ω_j)`` of
    each block.
    """
    if any(dim_r * dbr < dr for _, dr, dbr in blocks):
        raise ValueError("each φ_j needs dim_r · dim_bR >= dim_R to fill a_j^R")
    d_a = sum(dl * dr for dl, dr, _ in blocks)
    d_b = sum(dl * dbr for dl, _, dbr in blocks)
    weights = rng.uniform(0.5, 1.5, size=len(blocks))
    weights = weights / weights.sum()
    amps = np.zeros((dim_r, d_a, d_b), dtype=complex)
    planted = []
    off_a = off_b = 0
    for (dl, dr, dbr), p in zip(blocks, weights):
        lam = np.sort(rng.integers(1, 5, size=dl))[::-1] / 1.0
        lam = lam / lam.sum()
        phi = rng.normal(size=(dim_r, dr, dbr)) + 1j * rng.normal(size=(dim_r, dr, dbr))
        phi = phi / np.linalg.norm(phi)
        # A index l * dim_R + q, B index l' * dim_bR + q'
        part = np.sqrt(p) * np.einsum("lk,rqs->rlqks", np.diag(np.sqrt(lam)), phi)
        amps[:, off_a:off_a + dl * dr, off_b:off_b + dl * dbr] = part.reshape(
            dim_r, dl * dr, dl * dbr
        )
        planted.append((dl, dr, float(p), lam))
        off_a += dl * dr
        off_b += dl * dbr
    u_a, u_b = random_unitary(rng, d_a), random_unitary(rng, d_b)
    amps = np.einsum("xa,rab,yb->rxy", u_a, amps, u_b)
    return TripartiteState(Registers(dim_r, d_a, d_b), amps), planted

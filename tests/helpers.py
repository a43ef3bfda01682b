"""Reference helpers that only the tests use: constructions and checks the
library itself never needs, kept here so ``src/qsm`` holds no test-only code."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from qsm.errors import ValidationError
from qsm.ki import KIBlock, _probe_vectors
from qsm.locc import OneWayProtocol, flatten_schedule, generalized_paulis
from qsm.numerics import dagger, schmidt_decompose, tolerance
from qsm.split import build_split_protocol
from qsm.statespace import TripartiteState, _uniform_counterpart


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


def materialized_majorization(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """Whether ``x`` is majorized by ``y``, comparing the prefix sums of the
    sorted, zero-padded vectors at every length: the reference for
    :func:`qsm.numerics.majorization_check`, which never pads or repeats."""
    x = np.sort(np.asarray(x, dtype=float))[::-1]
    y = np.sort(np.asarray(y, dtype=float))[::-1]
    n = max(x.size, y.size)
    cx = np.cumsum(np.concatenate((x, np.zeros(n - x.size))))
    cy = np.cumsum(np.concatenate((y, np.zeros(n - y.size))))
    if abs(cx[-1] - cy[-1]) > max(tol, 1e-9 * max(1.0, abs(cy[-1]))):
        return False
    return bool(np.all(cx <= cy + tol))


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
    return materialized_majorization(x, y, tolerance())


def projector(block: KIBlock) -> np.ndarray:
    """Projector onto the block's subspace of H^A."""
    flat = block.iso.reshape(block.iso.shape[0], -1)
    return flat @ dagger(flat)


def swap_ab(state: TripartiteState) -> TripartiteState:
    """Same state with the roles of A and B interchanged."""
    name = f"{state.name}_swapped" if state.name else ""
    return TripartiteState(state.amplitudes.transpose(0, 2, 1), name=name)


def sample_schmidt_span_member(state: TripartiteState, rng: np.random.Generator) -> np.ndarray:
    """Random pure AB-vector in the span of the state's R-Schmidt AB-basis vectors.

    Returns a normalized vector of length dim_A * dim_B lying in the span of the
    AB-side Schmidt vectors of the given state (the family whose members the
    merging protocol transfers exactly).
    """
    sd = schmidt_decompose(state.vector, state.dims[0])
    rank = sd.rank()
    c = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    c = c / np.linalg.norm(c)
    return sd.right[:, :rank] @ c


def schmidt_rank_r(state: TripartiteState) -> int:
    """Schmidt rank of the state across the R | AB cut."""
    return schmidt_decompose(state.vector, state.dims[0]).rank()


def max_entangled_vector(d: int) -> np.ndarray:
    """Return the maximally entangled vector (1/sqrt(d)) sum_l |l>|l> in C^{d*d}."""
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(float(d))
    return vec


def merge_input_vector(state: TripartiteState, K: int) -> np.ndarray:
    """State vector of psi (x) the rank-K maximally entangled resource, on
    registers (R; A x Abar_K; B x Bbar_K)."""
    dim_R, dim_A, dim_B = state.dims
    amps = state.amplitudes
    out = np.zeros((dim_R, dim_A, K, dim_B, K), dtype=complex)
    for k in range(K):
        out[:, :, k, :, k] = amps / np.sqrt(float(K))
    return out.reshape(-1)


def split_input_vector(state: TripartiteState, K: int) -> np.ndarray:
    """Initial global vector: the state plus a rank-``K`` shared resource.

    Register order is (spectator; second, third, sender resource half;
    receiver resource half), matching the split protocol's input layout.
    """
    phi = max_entangled_vector(K).reshape(K, K)
    vec = np.einsum("iac,kl->iackl", state.amplitudes, phi)
    return vec.reshape(-1)


def per_branch_split(state: TripartiteState) -> tuple[list, np.ndarray, np.ndarray]:
    """Labels, sender stack and receiver stack of the splitting protocol,
    built one branch at a time with ``np.kron``: the reference for
    :func:`qsm.split.build_split_protocol`, which writes ``1_A (x) M`` once."""
    dim_r, dim_a, dim_c = state.dims
    sd = schmidt_decompose(state.vector, dim_r * dim_a, dim_c)
    K = sd.rank()
    support = sd.right[:, :K]
    eye_a = np.eye(dim_a)
    scale = 1.0 / math.sqrt(float(K))
    labels = []
    a_ops = np.zeros((dim_c * K, dim_a, dim_a * dim_c * K), dtype=complex)
    b_ops = np.zeros((dim_c * K, dim_c, K), dtype=complex)
    paulis = generalized_paulis(K)
    for x in range(K):
        for z in range(K):
            sigma = paulis[x, z]
            meas = (support.conj() @ sigma.conj()) * scale
            a_ops[len(labels)] = np.kron(eye_a, meas.reshape(1, dim_c * K))
            b_ops[len(labels)] = support @ sigma
            labels.append((x, z))
    if K < dim_c:
        kernel = np.linalg.svd(support)[0][:, K:]
        for c in range(dim_c - K):
            row = kernel[:, c].conj()
            for k in range(K):
                meas = np.zeros((dim_c, K), dtype=complex)
                meas[:, k] = row
                a_ops[len(labels)] = np.kron(eye_a, meas.reshape(1, dim_c * K))
                b_ops[len(labels)] = support
                labels.append(("kernel", c, k))
    return labels, a_ops, b_ops


def teleportation_protocol(d: int) -> OneWayProtocol:
    """Teleportation of a d-level register over a rank-d maximally entangled
    pair: the split protocol of the maximally entangled (d, 1, d) state, whose
    sender measures (input, resource half) in the generalized Bell basis
    (labels ``(x, z)``) and whose receiver corrects with X^x Z^z."""
    amps = np.zeros((d, 1, d), dtype=complex)
    amps[np.arange(d), 0, np.arange(d)] = 1.0 / math.sqrt(d)
    return build_split_protocol(TripartiteState(amps))


def max_entangled_counterpart(state: TripartiteState) -> TripartiteState:
    """The state with its R | AB Schmidt spectrum made uniform on the same
    Schmidt bases (psi^R = I/D, D the Schmidt rank): the normal form that
    :mod:`qsm.bounds` computes from its one Schmidt decomposition."""
    return _uniform_counterpart(state, schmidt_decompose(state.vector, state.dims[0]))


def flatten_to_uniform(p: Sequence[float], L: int) -> OneWayProtocol:
    """Convert the pure state with Schmidt vector ``p`` into a maximally
    entangled L-level pair, exactly in every branch, following
    :func:`qsm.locc.flatten_schedule`.

    The sender's outcome-s operator rescales the selected levels to a common
    mass; the receiver permutes the matching levels to the front of its
    register, so the output is the L-level maximally entangled vector
    embedded in (L x len(p)).
    """
    steps = flatten_schedule(p, L)
    n = len(p)
    a_ops = np.zeros((len(steps), L, n), dtype=complex)
    b_ops = np.zeros((len(steps), n, n), dtype=complex)
    for s, step in enumerate(steps):
        rest = [i for i in range(n) if i not in step.indices]
        for level, i in enumerate(step.indices):
            a_ops[s, level, i] = np.sqrt(step.mass / p[i])
            b_ops[s, level, i] = 1.0
        for offset, i in enumerate(rest):
            b_ops[s, L + offset, i] = 1.0
    return OneWayProtocol(
        branches=[(s,) for s in range(len(steps))],
        a_ops=a_ops,
        b_ops=b_ops,
        name=f"flatten[{n}->{L}]",
    )


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


def smoothed_candidate(state, epsilon, seed):
    """The first random in-ball candidate of ``approx --heuristic``."""
    vec = state.vector
    rng = np.random.default_rng(seed)
    theta_max = math.acos(math.sqrt(1.0 - (epsilon / 2.0) ** 2)) * 0.999
    g = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    g = g - np.vdot(vec, g) * vec
    theta = theta_max * float(rng.uniform(0.0, 1.0))
    cand = math.cos(theta) * vec + math.sin(theta) * (g / np.linalg.norm(g))
    return TripartiteState(cand.reshape(state.dims))


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
    return TripartiteState(amps), planted


def steering_generators(dim_R: int) -> list[np.ndarray]:
    """The rank-one projectors onto the probe vectors of R (|k>, then |k>+|l>
    and |k>+i|l> for k < l, unnormalized): dim_R^2 PSD operators whose real
    span is all Hermitian operators on R."""
    return [np.outer(v, v.conj()) for v in _probe_vectors(dim_R)]


def steered_unnormalized(state: TripartiteState, lam: np.ndarray) -> np.ndarray:
    """tr_R[(lam (x) 1) psi^{RA}] without normalization, by one 3-operand einsum."""
    amps = state.amplitudes
    return np.einsum("rs,rab,scb->ac", np.asarray(lam, dtype=complex), amps, amps.conj())


class PerProbeSteeredOperators:
    """Every steered operator by its own :func:`steered_unnormalized` call:
    the reference for :class:`qsm.ki.SteeredOperators`, which reads them all
    off one Gram tensor."""

    def __init__(self, state: TripartiteState):
        eye = np.eye(state.dims[0], dtype=complex)
        gens = steering_generators(state.dims[0])
        self.full = steered_unnormalized(state, eye)
        self.generators = np.stack([steered_unnormalized(state, gen) for gen in gens])
        self.candidates = [self.full] + [
            steered_unnormalized(state, lam) for gen in gens for lam in (eye + gen, eye + 2 * gen)
        ]

    def combine(self):
        yield from self.candidates

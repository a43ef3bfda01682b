"""Koashi-Imoto decomposition of a tripartite pure state.

The sender's space H^A is refined into a direct sum of tensor factors
``H^A = (+)_j a_j^L (x) a_j^R`` such that the state takes the block form

    psi = (+)_j sqrt(p_j) |omega_j>^{a_j^L b_j^L} (x) |phi_j>^{R a_j^R b_j^R}.

The refinement loop alternates two procedures: an L-decomposing step splitting
one block's L-factor by the sign of a witness operator, and an R-combining
step merging two blocks' R-factors along the singular vectors of a cross-block
witness.  Both operate inside the support of psi^A; directions in the kernel
of psi^A are attached afterwards (glued into a block with trivial R-factor
when one exists, otherwise kept as a standalone zero-probability block).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VerificationError
from .numerics import BLOCK_DROP, FIDELITY_LOSS, ISOMETRY_SLACK, KI_SLACK, MATCH, SPECTRUM_DROP
from .numerics import _lex_key, canonical_eigh, dagger, isometry_deviations, orthonormal_complement
from .statespace import TripartiteState

# ---------------------------------------------------------------------------
# Steering
# ---------------------------------------------------------------------------


def _probe_vectors(dim: int) -> list[np.ndarray]:
    """|k>, then |k>+|l> and |k>+i|l> for every k < l (unnormalized)."""
    eye = np.eye(dim, dtype=complex)
    return list(eye) + [
        eye[k] + phase * eye[l]
        for k in range(dim)
        for l in range(k + 1, dim)
        for phase in (1.0, 1.0j)
    ]


# ---------------------------------------------------------------------------
# Block structures (intermediate decompositions)
#
# An intermediate factored decomposition is a tuple of blocks ``spaces``, one
# 3-axis isometry per block: ``spaces[j]`` has shape (dim_A, dim_L_j,
# dim_R_j), and flattening the last two axes gives orthonormal columns
# spanning the block subspace of H^A.
# ---------------------------------------------------------------------------


def refinement_index(spaces: tuple[np.ndarray, ...]) -> int:
    """Degree-of-refinement index r = S(S+1)/2 - J + 1 with S the sum of R-dims."""
    s = sum(v.shape[2] for v in spaces)
    return s * (s + 1) // 2 - len(spaces) + 1


def initial_structure(state: TripartiteState) -> tuple[np.ndarray, ...]:
    """Single block spanning supp(psi^A), with trivial R-factor."""
    vals, vecs = canonical_eigh(state.marginal("A"))
    n = int(np.sum(vals > SPECTRUM_DROP))
    if n == 0:
        raise ValidationError("state has no support on A")
    return (vecs[:, :n].reshape(state.dims[1], n, 1),)


def _compressed(space: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Block compression of an operator on A: T[l,r,m,s] = <(l,r)| op |(m,s)>."""
    return np.einsum("alr,ab,bms->lrms", space.conj(), op, space)


def _proportional(rho: np.ndarray, rho_ref: np.ndarray) -> bool:
    """Whether rho = c * rho_ref for some c >= 0; rho_ref must be nonzero."""
    tr = float(np.trace(rho).real)
    tr_ref = float(np.trace(rho_ref).real)
    if tr <= BLOCK_DROP:
        return True  # c = 0
    return bool(np.max(np.abs(rho / tr - rho_ref / tr_ref)) <= MATCH)


def _r_factor_vectors(dim: int) -> list[np.ndarray]:
    """Candidate |a> vectors in an R-factor: basis states plus pairwise mixes."""
    probes = _probe_vectors(dim)
    return probes[:dim] + [v / np.sqrt(2.0) for v in probes[dim:]]


def _split_eigenspaces(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split the domain of a traceless Hermitian witness by eigenvalue sign.

    Returns orthonormal bases (plus, minus) with eigenvalues > ``SPECTRUM_DROP`` on the
    plus side; flips the sign of the witness if its positive part vanishes.
    Returns ``None`` when the witness is numerically zero.
    """
    for candidate in (eta, -eta):
        vals, vecs = canonical_eigh(candidate)
        n_plus = int(np.sum(vals > SPECTRUM_DROP))
        if 0 < n_plus < len(vals):
            return vecs[:, :n_plus], vecs[:, n_plus:]
    return None


class SteeredOperators:
    """The unnormalized steered operators of one state, read off one Gram tensor.

    The operator steered by a PSD ``lam`` on R is
    ``sum_{r,s} lam[r,s] G[r,:,s,:]`` with
    ``G[r,a,s,c] = sum_b psi[r,a,b] conj(psi[s,c,b])``.  ``full`` is steered
    by the identity on R, and ``generators[g]`` by the projector onto the
    g-th vector of :func:`_probe_vectors`: ``G[k,:,k,:]`` for |k>, then
    ``G[k,:,k,:] + G[l,:,l,:] + conj(phase) G[k,:,l,:] + phase G[l,:,k,:]``
    for |k> + phase |l>, phase in (1, i), for every k < l.  The real span of
    these projectors is all Hermitian operators on R.
    """

    def __init__(self, state: TripartiteState):
        amps = state.amplitudes
        dim_R = state.dims[0]
        gram = np.einsum("rab,scb->rasc", amps, amps.conj())
        diagonal = [gram[k, :, k, :] for k in range(dim_R)]
        self.full = np.einsum("rab,rcb->ac", amps, amps.conj())
        self.generators = np.stack(diagonal + [
            diagonal[k] + diagonal[l] + np.conj(phase) * gram[k, :, l, :] + phase * gram[l, :, k, :]
            for k in range(dim_R)
            for l in range(k + 1, dim_R)
            for phase in (1.0, 1.0j)
        ])

    def combine(self) -> Iterator[np.ndarray]:
        """The R-combining candidates: the operators steered by the identity,
        then by ``1 + gen`` and ``1 + 2 gen`` for each generator in order."""
        yield self.full
        for gen in self.generators:
            yield self.full + gen
            yield self.full + 2 * gen


def _generator_witness(space: np.ndarray, generators: np.ndarray, ref: np.ndarray) -> np.ndarray | None:
    """First generator-steered compression of the block not proportional to ``ref``.

    Applies the :func:`_proportional` rule to every (generator, R-factor
    vector) pair at once, then recomputes the first failing pair in
    generator-major order with the per-vector expression, so the returned
    witness is bit-identical to the one a pair-by-pair scan finds.
    """
    dim_A, dim_L, dim_R = space.shape
    avecs = _r_factor_vectors(dim_R)
    flat = space.reshape(dim_A, -1)
    t_all = (dagger(flat) @ generators @ flat).reshape(-1, dim_L, dim_R, dim_L, dim_R)
    vecs = np.array(avecs)
    rhos = np.einsum("glrms,kr,ks->gklm", t_all, vecs.conj(), vecs)
    tr = np.einsum("gkll->gk", rhos).real
    live = tr > BLOCK_DROP
    ref_n = ref / float(np.trace(ref).real)
    dev = np.max(np.abs(rhos / np.where(live, tr, 1.0)[..., None, None] - ref_n), axis=(2, 3))
    failing = live & ~(dev <= MATCH)
    if not failing.any():
        return None
    g, k = divmod(int(np.argmax(failing)), len(avecs))
    t_gen = _compressed(space, generators[g])
    return np.einsum("lrms,r,s->lm", t_gen, avecs[k].conj(), avecs[k])


def l_decompose_step(
    spaces: tuple[np.ndarray, ...], steered: SteeredOperators
) -> tuple[np.ndarray, ...] | None:
    """One L-decomposing refinement, or ``None`` when no witness exists.

    Searches for a block whose L-factor supports two non-proportional
    compressed steered states, and splits that L-factor by the eigenvalue sign
    of the difference of the trace-normalized pair.  ``steered`` holds the
    steered operators of the state.

    Blocks with ``dim_L == 1`` are skipped without a compression: a split
    needs ``0 < n_plus < dim_L`` eigenvalues on the plus side, so such a
    block can never split, whatever the tolerance.
    """
    for j0, space in enumerate(spaces):
        if space.shape[1] == 1:
            continue
        dim_R = space.shape[2]
        t_full = _compressed(space, steered.full)
        diagonals = [t_full[:, b, :, b] for b in range(dim_R)]
        ref = next((d for d in diagonals if float(np.trace(d).real) > BLOCK_DROP), None)
        if ref is None:
            continue
        # Stage 1: pairwise comparison of the identity-steered compressions.
        rho = next((d for d in diagonals if not _proportional(d, ref)), None)
        # Stage 2: generator-steered compressions against the reference.
        if rho is None:
            rho = _generator_witness(space, steered.generators, ref)
        if rho is None:
            continue
        eta = rho / float(np.trace(rho).real) - ref / float(np.trace(ref).real)
        split = _split_eigenspaces((eta + dagger(eta)) / 2)
        if split is None:
            continue
        plus, minus = split
        new_spaces = list(spaces)
        sub_plus = np.einsum("alr,lp->apr", space, plus)
        sub_minus = np.einsum("alr,lp->apr", space, minus)
        new_spaces[j0 : j0 + 1] = [sub_plus, sub_minus]
        return tuple(new_spaces)
    return None


def r_combine_step(
    spaces: tuple[np.ndarray, ...], steered: SteeredOperators
) -> tuple[np.ndarray, ...] | None:
    """One R-combining refinement, or ``None`` when no witness exists.

    Searches block pairs for a nonzero cross compression sigma of a steered
    state, then identifies the two L-factors along the singular vectors of
    sigma and concatenates the R-factors; unmatched L-directions stay behind
    as leftover blocks.  ``steered`` holds the steered operators of the state.
    """
    if len(spaces) < 2:
        return None
    for j0 in range(len(spaces)):
        for j1 in range(j0 + 1, len(spaces)):
            v0, v1 = spaces[j0], spaces[j1]
            for op in steered.combine():
                scale = max(1.0, abs(float(np.trace(op).real)))
                cross = np.einsum("alr,ab,bms->lrms", v1.conj(), op, v0)
                for b in range(v1.shape[2]):
                    for a in range(v0.shape[2]):
                        sigma = cross[:, b, :, a]
                        if np.max(np.abs(sigma)) <= SPECTRUM_DROP * scale:
                            continue
                        # Support conditions: the diagonal compressions at the
                        # same witness must fully support both L-factors.
                        d0 = np.einsum("alr,ab,bmr->lm", v0[:, :, a : a + 1].conj(), op, v0[:, :, a : a + 1])
                        d1 = np.einsum("alr,ab,bmr->lm", v1[:, :, b : b + 1].conj(), op, v1[:, :, b : b + 1])
                        rank0 = int(np.sum(np.linalg.eigvalsh(d0) > SPECTRUM_DROP * scale))
                        rank1 = int(np.sum(np.linalg.eigvalsh(d1) > SPECTRUM_DROP * scale))
                        if rank0 < v0.shape[1] or rank1 < v1.shape[1]:
                            continue
                        return _apply_combine(spaces, j0, j1, sigma)
    return None


def _apply_combine(
    spaces: tuple[np.ndarray, ...], j0: int, j1: int, sigma: np.ndarray
) -> tuple[np.ndarray, ...]:
    v0, v1 = spaces[j0], spaces[j1]
    # Degeneracy-safe SVD pairing: right singular vectors from sigma^dag sigma,
    # left partners slaved through sigma itself.
    svals_sq, rights = canonical_eigh(dagger(sigma) @ sigma)
    svals = np.sqrt(np.clip(svals_sq, 0.0, None))
    rank = int(np.sum(svals > SPECTRUM_DROP * max(1.0, float(svals[0]))))
    rights = rights[:, :rank]
    lefts = sigma @ rights / svals[:rank]
    d_r0, d_r1 = v0.shape[2], v1.shape[2]
    combined = np.zeros((v0.shape[0], rank, d_r0 + d_r1), dtype=complex)
    combined[:, :, :d_r0] = np.einsum("alr,lp->apr", v0, rights)
    combined[:, :, d_r0:] = np.einsum("alr,lp->apr", v1, lefts)
    leftovers: list[np.ndarray] = []
    for v, matched in ((v0, rights), (v1, lefts)):
        comp = orthonormal_complement(matched, v.shape[1])
        if comp.shape[1]:
            leftovers.append(np.einsum("alr,lp->apr", v, comp))
    new_spaces = list(spaces)
    del new_spaces[j1]
    new_spaces[j0] = combined
    new_spaces.extend(leftovers)
    return tuple(new_spaces)


# ---------------------------------------------------------------------------
# Final decomposition data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KIBlock:
    """One block of the final decomposition.

    ``iso`` embeds the factored block into H^A: shape (dim_A, dim_L, dim_R)
    with orthonormal columns after flattening the factor axes.  ``omega_vec``
    holds the A-side Schmidt form of omega ((l, m) entries sqrt(lambda_m)
    u_m[l]); ``ws`` embeds the block's B-side factors into H^B: shape
    (dim_B, dim_bL, dim_bR).  ``phi`` is the quantum part on (R, a^R, b^R).
    Zero-probability blocks (kernel of psi^A) carry empty B-side data.
    """

    index: int
    iso: np.ndarray
    p: float
    lambdas: np.ndarray
    omega_vec: np.ndarray
    phi: np.ndarray
    ws: np.ndarray

    @property
    def dim_L(self) -> int:
        return self.iso.shape[1]

    @property
    def dim_R(self) -> int:
        return self.iso.shape[2]

    @property
    def dim_bL(self) -> int:
        return self.ws.shape[1]

    @property
    def dim_bR(self) -> int:
        return self.ws.shape[2]

    @property
    def lambda0_L(self) -> float:
        """Largest eigenvalue of omega (1/dim_L for zero-probability blocks)."""
        if self.p <= 0.0 or not len(self.lambdas):
            return 1.0 / self.dim_L
        return float(self.lambdas[0])


@dataclass(frozen=True)
class KIDecomposition:
    """Final maximal decomposition: its blocks and the refinement index after
    each refinement step."""

    blocks: tuple[KIBlock, ...]
    trajectory: tuple[int, ...]

    @property
    def J(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        """The final refinement index."""
        return self.trajectory[-1]


def _glue_kernel(state: TripartiteState, raw: list) -> list:
    """Attach kernel directions of psi^A to the block list."""
    dim_R, dim_A, dim_B = state.dims
    span = np.hstack([space.reshape(dim_A, -1) for space, _, _ in raw])
    kernel = orthonormal_complement(span, dim_A)
    if kernel.shape[1] == 0:
        return raw
    glue_targets = [i for i, (space, _, _) in enumerate(raw) if space.shape[2] == 1]
    if glue_targets:
        target = max(glue_targets, key=lambda i: (raw[i][2], -i))
        space, psi_j, p_j = raw[target]
        widened = np.concatenate([space, kernel.reshape(dim_A, -1, 1)], axis=1)
        pad = np.zeros((psi_j.shape[0], kernel.shape[1], 1, psi_j.shape[3]), dtype=complex)
        raw[target] = (widened, np.concatenate([psi_j, pad], axis=1), p_j)
    else:
        empty = np.zeros((dim_R, kernel.shape[1], 1, dim_B), dtype=complex)
        raw.append((kernel.reshape(dim_A, -1, 1), empty, 0.0))
    return raw


def _build_block(index: int, space, psi_j, p_j, dim_B: int) -> KIBlock:
    dim_L, dim_R = space.shape[1], space.shape[2]
    if p_j <= BLOCK_DROP:
        return KIBlock(
            index=index,
            iso=space,
            p=0.0,
            lambdas=np.zeros(0),
            omega_vec=np.zeros((dim_L, 0), dtype=complex),
            phi=np.zeros((psi_j.shape[0], dim_R, 0), dtype=complex),
            ws=np.zeros((dim_B, 0, 0), dtype=complex),
        )
    rho_l = np.einsum("ilrb,imrb->lm", psi_j, psi_j.conj()) / p_j
    lam, u_cols = canonical_eigh(rho_l)
    m_count = int(np.sum(lam > SPECTRUM_DROP))
    lam = np.clip(lam[:m_count], 0.0, None)
    u_cols = u_cols[:, :m_count]
    beta = np.einsum("lm,ilrb->mirb", u_cols.conj(), psi_j)
    # Quantum part from the top redundant level.  A direct SVD keeps the small
    # singular values accurate to machine precision; an eigendecomposition of
    # the Gram matrix would inflate their noise floor to sqrt(eps) after the
    # square root and defeat the rank cutoff.
    b0 = beta[0].reshape(-1, psi_j.shape[3])
    xs_full, svals, _ = np.linalg.svd(b0, full_matrices=False)
    n_r = int(np.sum(svals > SPECTRUM_DROP * max(1.0, float(svals[0] if len(svals) else 0.0))))
    xs = xs_full[:, :n_r]
    phi = (xs * svals[:n_r]).reshape(psi_j.shape[0], dim_R, n_r) / np.sqrt(p_j * lam[0])
    # B-side factor vectors: the Schmidt partner of the left singular vector x_k
    # in |beta_m> = sum_k s_k |x_k> (x) |conj(y_k)> is the conjugated right
    # singular vector, so w^{(m)}_k = sqrt(lam0/lam_m) (1/s_k) B_m^T conj(x_k).
    ws = np.zeros((dim_B, m_count, n_r), dtype=complex)
    for m in range(m_count):
        bm = beta[m].reshape(-1, psi_j.shape[3])
        ws[:, m, :] = np.sqrt(lam[0] / lam[m]) * (bm.T @ xs.conj()) / svals[:n_r]
    w_flat = ws.reshape(dim_B, -1)
    deviation = float(isometry_deviations(w_flat))
    if not deviation <= KI_SLACK:
        raise VerificationError(
            f"block {index}: B-side factors fail the isometry check "
            f"(deviation {deviation:.2e})"
        )
    omega_vec = u_cols * np.sqrt(lam)
    return KIBlock(
        index=index,
        iso=space,
        p=p_j,
        lambdas=lam,
        omega_vec=omega_vec,
        phi=phi,
        ws=ws,
    )


def _product_test(block: KIBlock, state: TripartiteState) -> None:
    """Operator-Schmidt rank-1 check of the block operator across (R,a^R)|a^L."""
    if block.p <= 0.0:
        return
    psi_j = np.einsum("alr,iab->ilrb", block.iso.conj(), state.amplitudes)
    mat = psi_j.reshape(-1, psi_j.shape[3])
    rho = (mat @ dagger(mat)).reshape(
        psi_j.shape[0], psi_j.shape[1], psi_j.shape[2], psi_j.shape[0], psi_j.shape[1], psi_j.shape[2]
    )
    op = rho.transpose(0, 2, 3, 5, 1, 4).reshape(
        (psi_j.shape[0] * psi_j.shape[2]) ** 2, psi_j.shape[1] ** 2
    )
    s = np.linalg.svd(op, compute_uv=False)
    if len(s) > 1 and s[1] > SPECTRUM_DROP * max(1.0, float(s[0])):
        raise VerificationError(
            f"block {block.index}: maximality product test failed (second operator "
            f"Schmidt value {s[1]:.2e})"
        )


def _canonical_order(raw: list) -> list:
    def key(item):
        space, _psi, p = item
        return (-space.shape[2], -p, _lex_key(space[:, :, 0].reshape(-1)))

    return sorted(raw, key=key)


def ki_decompose(state: TripartiteState) -> KIDecomposition:
    """Compute the unique maximal decomposition of the given state.

    Raises VerificationError if the refinement loop exceeds its iteration
    bound, if a block fails the maximality product test, or if the block data
    does not reconstruct the state.
    """
    spaces = initial_structure(state)
    steered = SteeredOperators(state)
    trajectory = [refinement_index(spaces)]
    max_iters = 4 * state.dims[1] ** 2 + 8
    for _ in range(max_iters):
        refined = l_decompose_step(spaces, steered)
        if refined is None:
            refined = r_combine_step(spaces, steered)
        if refined is None:
            break
        new_r = refinement_index(refined)
        if new_r <= trajectory[-1]:
            raise VerificationError(
                f"refinement step did not increase the index: {trajectory[-1]} -> {new_r}"
            )
        spaces = refined
        trajectory.append(new_r)
    else:
        raise VerificationError(f"refinement loop exceeded its iteration bound of {max_iters}")

    raw = []
    for space in spaces:
        psi_j = np.einsum("alr,iab->ilrb", space.conj(), state.amplitudes)
        p_j = float(np.sum(np.abs(psi_j) ** 2))
        raw.append((space, psi_j, p_j))
    raw = _glue_kernel(state, raw)
    raw = _canonical_order(raw)
    total_p = sum(p for _, _, p in raw)
    if abs(total_p - 1.0) > KI_SLACK:
        raise VerificationError(f"block probabilities sum to {total_p}, not 1")
    blocks = tuple(
        _build_block(i, space, psi_j, p_j, state.dims[2])
        for i, (space, psi_j, p_j) in enumerate(raw)
    )
    for b in blocks:
        _product_test(b, state)
    _verify_reconstruction(state, blocks)
    return KIDecomposition(blocks=blocks, trajectory=tuple(trajectory))


def _verify_reconstruction(state: TripartiteState, blocks: tuple[KIBlock, ...]) -> None:
    """Rebuild psi as sum_j sqrt(p_j) iso_j[a,l,r] omega_j[l,m] phi_j[i,r,k]
    ws_j[b,m,k]; its overlap with the state must be 1 within ``FIDELITY_LOSS``
    and its squared norm within ``ISOMETRY_SLACK``: a p_j that is too large can
    push the overlap of the unnormalized rebuilt vector past 1, not its norm."""
    rebuilt = np.zeros(state.dims, dtype=complex)
    for b in blocks:
        if b.p <= 0.0:
            continue
        a_side = np.tensordot(b.iso, b.omega_vec, axes=(1, 0))  # [a, r, m]
        rest = np.tensordot(b.phi, b.ws, axes=(2, 2))  # [i, r, b, m]
        rest = rest.transpose(0, 1, 3, 2).reshape(rest.shape[0], -1, rest.shape[2])
        rebuilt += np.sqrt(b.p) * (a_side.reshape(a_side.shape[0], -1) @ rest)
    rebuilt = rebuilt.reshape(-1)
    f = float(abs(np.vdot(state.amplitudes.reshape(-1), rebuilt)) ** 2)
    if f < 1.0 - FIDELITY_LOSS:
        raise VerificationError(
            f"block-form reconstruction fidelity {f} below threshold 1 - 10 tau = {1.0 - FIDELITY_LOSS!r}"
        )
    norm2 = float(np.vdot(rebuilt, rebuilt).real)
    if abs(norm2 - 1.0) > ISOMETRY_SLACK:
        raise VerificationError(
            f"block-form reconstruction squared norm {norm2} is not 1 within 10 tau = {ISOMETRY_SLACK:.1e}"
        )

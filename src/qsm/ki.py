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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, VerificationError
from .numerics import (
    canonical_eigh,
    _lex_key,
    dagger,
    fidelity,
    isometry_deviation,
    orthonormal_complement,
    tolerance,
)
from .statespace import TripartiteState

# ---------------------------------------------------------------------------
# Steering
# ---------------------------------------------------------------------------


def steering_generators(dim_R: int) -> list[np.ndarray]:
    """PSD operators on R whose real span is all Hermitian operators.

    Returns the rank-one projectors onto |k>, |k>+|l>, and |k>+i|l> (the
    latter two unnormalized), dim_R^2 operators in total.
    """
    gens: list[np.ndarray] = []
    for k in range(dim_R):
        e = np.zeros((dim_R, 1), dtype=complex)
        e[k] = 1.0
        gens.append(e @ dagger(e))
    for k in range(dim_R):
        for l in range(k + 1, dim_R):
            v = np.zeros((dim_R, 1), dtype=complex)
            v[k] = 1.0
            v[l] = 1.0
            gens.append(v @ dagger(v))
            w = np.zeros((dim_R, 1), dtype=complex)
            w[k] = 1.0
            w[l] = 1.0j
            gens.append(w @ dagger(w))
    return gens


def _steered_unnormalized(state: TripartiteState, lam: np.ndarray) -> np.ndarray:
    """tr_R[(lam (x) 1) psi^{RA}] without normalization (PSD for PSD lam)."""
    amps = state.amplitudes
    return np.einsum("rs,rab,scb->ac", np.asarray(lam, dtype=complex), amps, amps.conj())


# ---------------------------------------------------------------------------
# Block structures (intermediate decompositions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockStructure:
    """Intermediate factored decomposition: one 3-axis isometry per block.

    ``spaces[j]`` has shape (dim_A, dim_L_j, dim_R_j); flattening the last two
    axes gives orthonormal columns spanning the block subspace of H^A.
    """

    spaces: tuple[np.ndarray, ...]

    @property
    def J(self) -> int:
        return len(self.spaces)


def refinement_index(decomp: BlockStructure) -> int:
    """Degree-of-refinement index r = S(S+1)/2 - J + 1 with S the sum of R-dims."""
    s = sum(v.shape[2] for v in decomp.spaces)
    return s * (s + 1) // 2 - decomp.J + 1


def initial_structure(state: TripartiteState, tol: float) -> BlockStructure:
    """Single block spanning supp(psi^A), with trivial R-factor."""
    vals, vecs = canonical_eigh(state.marginal("A"), tol)
    n = int(np.sum(vals > 10 * tol))
    if n == 0:
        raise ValidationError("state has no support on A")
    v = vecs[:, :n].reshape(state.regs.dim_A, n, 1)
    return BlockStructure(spaces=(v,))


def _compressed(space: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Block compression of an operator on A: T[l,r,m,s] = <(l,r)| op |(m,s)>."""
    return np.einsum("alr,ab,bms->lrms", space.conj(), op, space)


def _proportional(rho: np.ndarray, rho_ref: np.ndarray, tol: float) -> bool:
    """Whether rho = c * rho_ref for some c >= 0; rho_ref must be nonzero."""
    tr = float(np.trace(rho).real)
    tr_ref = float(np.trace(rho_ref).real)
    if tr <= 100 * tol:
        return True  # c = 0
    return bool(np.max(np.abs(rho / tr - rho_ref / tr_ref)) <= 10 * tol)


def _r_factor_vectors(dim: int) -> list[np.ndarray]:
    """Candidate |a> vectors in an R-factor: basis states plus pairwise mixes."""
    out = [np.eye(dim, dtype=complex)[:, k] for k in range(dim)]
    for k in range(dim):
        for l in range(k + 1, dim):
            v = np.zeros(dim, dtype=complex)
            v[k] = 1.0
            v[l] = 1.0
            out.append(v / np.sqrt(2.0))
            w = np.zeros(dim, dtype=complex)
            w[k] = 1.0
            w[l] = 1.0j
            out.append(w / np.sqrt(2.0))
    return out


def _split_eigenspaces(eta: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Split the domain of a traceless Hermitian witness by eigenvalue sign.

    Returns orthonormal bases (plus, minus) with eigenvalues > 10*tol on the
    plus side; flips the sign of the witness if its positive part vanishes.
    Returns ``None`` when the witness is numerically zero.
    """
    for candidate in (eta, -eta):
        vals, vecs = canonical_eigh(candidate, tol)
        n_plus = int(np.sum(vals > 10 * tol))
        if 0 < n_plus < len(vals):
            return vecs[:, :n_plus], vecs[:, n_plus:]
    return None


class SteeredOperators:
    """The unnormalized steered operators of one state, each computed once.

    ``full`` is steered by the identity on R and ``generators[g]`` by the
    g-th operator of :func:`steering_generators`.  ``combine`` holds the
    R-combining candidates (the identity, then ``1 + gen`` and ``1 + 2 gen``
    for each generator in order); it is built on first use, since only a
    structure with two or more blocks needs it.
    """

    def __init__(self, state: TripartiteState):
        self._state = state
        self.full = _steered_unnormalized(state, np.eye(state.regs.dim_R, dtype=complex))
        self.generators = np.stack(
            [_steered_unnormalized(state, gen) for gen in steering_generators(state.regs.dim_R)]
        )

    @functools.cached_property
    def combine(self) -> tuple[np.ndarray, ...]:
        eye = np.eye(self._state.regs.dim_R, dtype=complex)
        ops = [self.full]
        for gen in steering_generators(self._state.regs.dim_R):
            ops.append(_steered_unnormalized(self._state, eye + gen))
            ops.append(_steered_unnormalized(self._state, eye + 2 * gen))
        return tuple(ops)


def _generator_witness(
    space: np.ndarray, generators: np.ndarray, ref: np.ndarray, tol: float
) -> np.ndarray | None:
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
    live = tr > 100 * tol
    ref_n = ref / float(np.trace(ref).real)
    dev = np.max(np.abs(rhos / np.where(live, tr, 1.0)[..., None, None] - ref_n), axis=(2, 3))
    failing = live & ~(dev <= 10 * tol)
    if not failing.any():
        return None
    g, k = divmod(int(np.argmax(failing)), len(avecs))
    t_gen = _compressed(space, generators[g])
    return np.einsum("lrms,r,s->lm", t_gen, avecs[k].conj(), avecs[k])


def l_decompose_step(
    state: TripartiteState,
    decomp: BlockStructure,
    steered: SteeredOperators,
    tol: float,
) -> BlockStructure | None:
    """One L-decomposing refinement, or ``None`` when no witness exists.

    Searches for a block whose L-factor supports two non-proportional
    compressed steered states, and splits that L-factor by the eigenvalue sign
    of the difference of the trace-normalized pair.  ``steered`` holds the
    steered operators of ``state``.
    """
    for j0, space in enumerate(decomp.spaces):
        dim_R = space.shape[2]
        t_full = _compressed(space, steered.full)
        diagonals = [t_full[:, b, :, b] for b in range(dim_R)]
        ref = next((d for d in diagonals if float(np.trace(d).real) > 100 * tol), None)
        if ref is None:
            continue
        # Stage 1: pairwise comparison of the identity-steered compressions.
        rho = next((d for d in diagonals if not _proportional(d, ref, tol)), None)
        # Stage 2: generator-steered compressions against the reference.
        if rho is None:
            rho = _generator_witness(space, steered.generators, ref, tol)
        if rho is None:
            continue
        eta = rho / float(np.trace(rho).real) - ref / float(np.trace(ref).real)
        split = _split_eigenspaces((eta + dagger(eta)) / 2, tol)
        if split is None:
            continue
        plus, minus = split
        new_spaces = list(decomp.spaces)
        sub_plus = np.einsum("alr,lp->apr", space, plus)
        sub_minus = np.einsum("alr,lp->apr", space, minus)
        new_spaces[j0 : j0 + 1] = [sub_plus, sub_minus]
        return BlockStructure(spaces=tuple(new_spaces))
    return None


def r_combine_step(
    state: TripartiteState,
    decomp: BlockStructure,
    steered: SteeredOperators,
    tol: float,
) -> BlockStructure | None:
    """One R-combining refinement, or ``None`` when no witness exists.

    Searches block pairs for a nonzero cross compression sigma of a steered
    state, then identifies the two L-factors along the singular vectors of
    sigma and concatenates the R-factors; unmatched L-directions stay behind
    as leftover blocks.  ``steered`` holds the steered operators of ``state``.
    """
    if decomp.J < 2:
        return None

    for j0 in range(decomp.J):
        for j1 in range(j0 + 1, decomp.J):
            v0, v1 = decomp.spaces[j0], decomp.spaces[j1]
            for op in steered.combine:
                scale = max(1.0, abs(float(np.trace(op).real)))
                cross = np.einsum("alr,ab,bms->lrms", v1.conj(), op, v0)
                for b in range(v1.shape[2]):
                    for a in range(v0.shape[2]):
                        sigma = cross[:, b, :, a]
                        if np.max(np.abs(sigma)) <= 10 * tol * scale:
                            continue
                        # Support conditions: the diagonal compressions at the
                        # same witness must fully support both L-factors.
                        d0 = np.einsum("alr,ab,bmr->lm", v0[:, :, a : a + 1].conj(), op, v0[:, :, a : a + 1])
                        d1 = np.einsum("alr,ab,bmr->lm", v1[:, :, b : b + 1].conj(), op, v1[:, :, b : b + 1])
                        rank0 = int(np.sum(np.linalg.eigvalsh(d0) > 10 * tol * scale))
                        rank1 = int(np.sum(np.linalg.eigvalsh(d1) > 10 * tol * scale))
                        if rank0 < v0.shape[1] or rank1 < v1.shape[1]:
                            continue
                        return _apply_combine(decomp, j0, j1, sigma, tol)
    return None


def _apply_combine(
    decomp: BlockStructure, j0: int, j1: int, sigma: np.ndarray, tol: float
) -> BlockStructure:
    v0, v1 = decomp.spaces[j0], decomp.spaces[j1]
    # Degeneracy-safe SVD pairing: right singular vectors from sigma^dag sigma,
    # left partners slaved through sigma itself.
    svals_sq, rights = canonical_eigh(dagger(sigma) @ sigma, tol)
    svals = np.sqrt(np.clip(svals_sq, 0.0, None))
    rank = int(np.sum(svals > 10 * tol * max(1.0, float(svals[0]))))
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
    new_spaces = list(decomp.spaces)
    del new_spaces[j1]
    new_spaces[j0] = combined
    new_spaces.extend(leftovers)
    return BlockStructure(spaces=tuple(new_spaces))


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
    """Final maximal decomposition with tensor-product-form isometries."""

    blocks: tuple[KIBlock, ...]
    U_A: np.ndarray
    U_B: np.ndarray
    r: int
    trajectory: tuple[int, ...]
    dims_pad_A: tuple[int, int, int]
    dims_pad_B: tuple[int, int, int]

    @property
    def J(self) -> int:
        return len(self.blocks)


def _glue_kernel(state: TripartiteState, raw: list) -> list:
    """Attach kernel directions of psi^A to the block list."""
    dim_A = state.regs.dim_A
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
        empty = np.zeros((state.regs.dim_R, kernel.shape[1], 1, state.regs.dim_B), dtype=complex)
        raw.append((kernel.reshape(dim_A, -1, 1), empty, 0.0))
    return raw


def _build_block(index: int, space, psi_j, p_j, dim_B: int, tol: float) -> KIBlock:
    dim_L, dim_R = space.shape[1], space.shape[2]
    if p_j <= 100 * tol:
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
    lam, u_cols = canonical_eigh(rho_l, tol)
    m_count = int(np.sum(lam > 10 * tol))
    lam = np.clip(lam[:m_count], 0.0, None)
    u_cols = u_cols[:, :m_count]
    beta = np.einsum("lm,ilrb->mirb", u_cols.conj(), psi_j)
    # Quantum part from the top redundant level.  A direct SVD keeps the small
    # singular values accurate to machine precision; an eigendecomposition of
    # the Gram matrix would inflate their noise floor to sqrt(eps) after the
    # square root and defeat the rank cutoff.
    b0 = beta[0].reshape(-1, psi_j.shape[3])
    xs_full, svals, _ = np.linalg.svd(b0, full_matrices=False)
    n_r = int(np.sum(svals > 10 * tol * max(1.0, float(svals[0] if len(svals) else 0.0))))
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
    deviation = isometry_deviation(w_flat)
    if not deviation <= 1e3 * tol:
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


def _product_test(block: KIBlock, state: TripartiteState, tol: float) -> None:
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
    if len(s) > 1 and s[1] > 10 * tol * max(1.0, float(s[0])):
        raise VerificationError(
            f"block {block.index}: maximality product test failed (second operator "
            f"Schmidt value {s[1]:.2e})"
        )


def _tensor_form(blocks: tuple[KIBlock, ...], dim_A: int, dim_B: int):
    """Stacked isometries of the padded tensor-product form, for both sides."""
    J = len(blocks)
    max_l = max(b.dim_L for b in blocks)
    max_r = max(b.dim_R for b in blocks)
    u_a = np.zeros((J * max_l * max_r, dim_A), dtype=complex)
    for j, b in enumerate(blocks):
        for l in range(b.dim_L):
            for r in range(b.dim_R):
                u_a[(j * max_l + l) * max_r + r, :] = b.iso[:, l, r].conj()
    max_bl = max(max(b.dim_bL for b in blocks), 1)
    max_br = max(max(b.dim_bR for b in blocks), 1)
    # Widen the redundant register if the B-kernel needs extra room.
    while J * max_bl * max_br < dim_B:
        max_bl += 1
    u_b = np.zeros((J * max_bl * max_br, dim_B), dtype=complex)
    used_rows: list[int] = []
    cols: list[np.ndarray] = []
    for j, b in enumerate(blocks):
        for m in range(b.dim_bL):
            for k in range(b.dim_bR):
                row = (j * max_bl + m) * max_br + k
                u_b[row, :] = b.ws[:, m, k].conj()
                used_rows.append(row)
                cols.append(b.ws[:, m, k])
    span = np.column_stack(cols) if cols else np.zeros((dim_B, 0), dtype=complex)
    kernel = orthonormal_complement(span, dim_B)
    free_rows = [r for r in range(u_b.shape[0]) if r not in set(used_rows)]
    for i in range(kernel.shape[1]):
        u_b[free_rows[i], :] = kernel[:, i].conj()
    return u_a, u_b, (J, max_l, max_r), (J, max_bl, max_br)


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
    tol = tolerance()
    structure = initial_structure(state, tol)
    steered = SteeredOperators(state)
    trajectory = [refinement_index(structure)]
    max_iters = 4 * state.regs.dim_A**2 + 8
    for _ in range(max_iters):
        refined = l_decompose_step(state, structure, steered, tol)
        if refined is None:
            refined = r_combine_step(state, structure, steered, tol)
        if refined is None:
            break
        new_r = refinement_index(refined)
        if new_r <= trajectory[-1]:
            raise VerificationError("refinement step did not increase the index")
        structure = refined
        trajectory.append(new_r)
    else:
        raise VerificationError("refinement loop exceeded its iteration bound")

    raw = []
    for space in structure.spaces:
        psi_j = np.einsum("alr,iab->ilrb", space.conj(), state.amplitudes)
        p_j = float(np.sum(np.abs(psi_j) ** 2))
        raw.append((space, psi_j, p_j))
    raw = _glue_kernel(state, raw)
    raw = _canonical_order(raw)
    total_p = sum(p for _, _, p in raw)
    if abs(total_p - 1.0) > 1e3 * tol:
        raise VerificationError(f"block probabilities sum to {total_p}, not 1")
    blocks = tuple(
        _build_block(i, space, psi_j, p_j, state.regs.dim_B, tol)
        for i, (space, psi_j, p_j) in enumerate(raw)
    )
    for b in blocks:
        _product_test(b, state, tol)
    u_a, u_b, pad_a, pad_b = _tensor_form(blocks, state.regs.dim_A, state.regs.dim_B)
    decomp = KIDecomposition(
        blocks=blocks,
        U_A=u_a,
        U_B=u_b,
        r=trajectory[-1],
        trajectory=tuple(trajectory),
        dims_pad_A=pad_a,
        dims_pad_B=pad_b,
    )
    _verify_reconstruction(state, decomp, tol)
    return decomp


def block_form_target(state: TripartiteState, decomp: KIDecomposition) -> np.ndarray:
    """The padded block-form tensor (+)_j sqrt(p_j)|j,j>|omega_j>|phi_j>."""
    J, max_l, max_r = decomp.dims_pad_A
    _, max_bl, max_br = decomp.dims_pad_B
    dim_R = state.regs.dim_R
    out = np.zeros((dim_R, J * max_l * max_r, J * max_bl * max_br), dtype=complex)
    for j, b in enumerate(decomp.blocks):
        if b.p <= 0.0:
            continue
        for l in range(b.dim_L):
            for m in range(b.dim_bL):
                w = np.sqrt(b.p) * b.omega_vec[l, m]
                if abs(w) == 0.0:
                    continue
                for r in range(b.dim_R):
                    for k in range(b.dim_bR):
                        out[:, (j * max_l + l) * max_r + r, (j * max_bl + m) * max_br + k] += (
                            w * b.phi[:, r, k]
                        )
    return out


def _verify_reconstruction(state: TripartiteState, decomp: KIDecomposition, tol: float) -> None:
    transformed = np.einsum("xa,iab,yb->ixy", decomp.U_A, state.amplitudes, decomp.U_B)
    target = block_form_target(state, decomp)
    f = fidelity(transformed.reshape(-1), target.reshape(-1))
    if f < 1.0 - 10 * tol:
        raise VerificationError(f"block-form reconstruction fidelity {f} below threshold")


__all__ = [
    "BlockStructure",
    "KIBlock",
    "KIDecomposition",
    "block_form_target",
    "initial_structure",
    "ki_decompose",
    "l_decompose_step",
    "r_combine_step",
    "refinement_index",
    "steering_generators",
]

"""Exact state merging: achievable entanglement costs and executable one-way
LOCC protocols.

The sender holds register A of a tripartite pure state on (R, A, B) plus the
A-half of a maximally entangled resource of Schmidt rank K; the receiver ends
up with both the original B share and a reconstructed copy of the A share,
exactly, in every measurement branch, together with a leftover maximally
entangled pair of rank L.  Costs are derived from the block decomposition of
the state: each block contributes the product (top redundant eigenvalue) x
(quantum dimension), and the resource sizes follow from an exact rational
approximation of the leading product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import SolverError, ValidationError, VerificationError
from .ki import KIDecomposition, ki_decompose
from .locc import (
    OneWayProtocol,
    VerificationReport,
    flatten_schedule,
    generalized_pauli,
    verify_protocol,
)
from .numerics import dagger, orthonormal_complement, tolerance
from .statespace import TripartiteState


# --------------------------------------------------------------------------
# rational upper approximation of the leading eigenvalue
# --------------------------------------------------------------------------


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator fraction in the closed interval [lo, hi]."""
    if lo > hi:
        raise ValidationError("empty interval for rational approximation")
    n = -((-lo.numerator) // lo.denominator)  # ceil(lo)
    if n <= hi:
        return Fraction(n)
    m = lo.numerator // lo.denominator  # floor(lo)
    inner = _simplest_between(1 / (hi - m), 1 / (lo - m))
    return m + 1 / inner


def check_delta(delta: float) -> None:
    """Reject a cost slack that is not positive and finite."""
    if not (math.isfinite(delta) and delta > 0):
        raise ValidationError(f"slack delta must be positive and finite, got {delta}")


def rational_upper_approx(lam0: float, delta: float) -> Fraction:
    """Simplest rational in [lam0, lam0 * 2^delta], found by the continued-
    fraction walk of the interval; errors out if even the minimal denominator
    exceeds 10^6 (a larger slack ``delta`` widens the interval)."""
    check_delta(delta)
    if lam0 <= 0:
        raise ValidationError(f"leading eigenvalue must be positive, got {lam0}")
    # absorb eigensolver float noise (~1e-15) by widening the interval downward
    # by 1e-12; kept below the flattening schedule's cut filter so a slightly
    # undersized lambda-tilde can never produce duplicate level assignments
    lo = Fraction(max(lam0 - 1e-12, lam0 * 0.5))
    # 2.0**delta overflows past 1023; any window that reaches 1 >= ceil(lo)
    # already yields ceil(lo), so capping the exponent changes no result
    hi = Fraction(lam0 * 2.0 ** min(delta, 1023.0))
    if hi < lo:
        hi = lo
    best = _simplest_between(lo, hi)
    if best.denominator > 10**6:
        raise SolverError(
            f"no rational approximation of {lam0} with denominator <= 1e6 in a "
            f"2^{delta} window; increase delta"
        )
    return best


def _guarded_ceil(x: float) -> int:
    """Ceiling that forgives float noise within 100x tolerance of an integer."""
    tol = tolerance()
    return max(1, math.ceil(x - 100 * tol))


# --------------------------------------------------------------------------
# cost reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockCost:
    """Per-block cost data: leading redundant eigenvalue, quantum dimension,
    their product, and the block's resource subdivision (catalytic mode)."""

    index: int
    lambda0: float
    dim_R: int
    product: float
    eligible: bool
    K_j: Optional[int] = None
    L_j: Optional[int] = None
    W_j: Optional[int] = None


@dataclass(frozen=True)
class CostReport:
    """Resource sizes K (consumed) and L (returned) with per-block detail."""

    mode: str
    K: int
    L: int
    cost_bits: float
    j0: int
    delta: Optional[float]
    lambda_tilde: Optional[Fraction]
    blocks: tuple

    def block(self, index: int) -> BlockCost:
        return self.blocks[index]


def _select_leading_block(blocks: Sequence[BlockCost]) -> int:
    tol = tolerance()
    j0 = -1
    best = 0.0
    for bc in blocks:
        if not bc.eligible:
            continue
        # ties within tolerance keep the earliest block in canonical order
        if j0 < 0 or bc.product > best + 10 * tol * max(1.0, best):
            j0, best = bc.index, bc.product
    if j0 < 0:
        raise ValidationError("no block carries probability weight")
    return j0


def achievable_cost(
    decomp: KIDecomposition, mode: str = "catalytic", delta: float = 1e-6
) -> CostReport:
    """Resource sizes achievable by the explicit merging protocol.

    Catalytic mode: a rational lambda-tilde >= the leading block product
    determines K as a least common multiple over blocks and L = K /
    (lambda_tilde * D_j0), guaranteeing log2 K - log2 L is within ``delta``
    of the leading log2(lambda0 * dim) value.  Non-catalytic mode: K is the
    max over blocks of ceil(lambda0 * dim) and L = 1.
    """
    if mode not in ("catalytic", "noncatalytic"):
        raise ValidationError(f"unknown mode {mode!r}")
    check_delta(delta)
    pre = []
    for b in decomp.blocks:
        eligible = b.p > 0.0
        lam0 = float(b.lambda0_L) if eligible else 0.0
        pre.append(BlockCost(b.index, lam0, b.dim_R, lam0 * b.dim_R, eligible))
    j0 = _select_leading_block(pre)

    if mode == "noncatalytic":
        K = max(_guarded_ceil(bc.product) for bc in pre if bc.eligible)
        return CostReport(
            mode=mode,
            K=K,
            L=1,
            cost_bits=float(np.log2(K)),
            j0=j0,
            delta=None,
            lambda_tilde=None,
            blocks=tuple(pre),
        )

    lam_tilde = rational_upper_approx(pre[j0].lambda0, delta)
    d0 = pre[j0].dim_R
    ratios = {}  # block index -> K_j / L_j, reduced
    lcm = 1
    for bc in pre:
        if not bc.eligible:
            continue
        ratios[bc.index] = Fraction(d0, bc.dim_R) * lam_tilde
        lcm = math.lcm(lcm, bc.dim_R * ratios[bc.index].numerator)
        if lcm > 2**63:
            raise SolverError(
                "resource rank overflows 2^63; increase delta to coarsen the "
                "rational approximation"
            )
    K = lcm
    L_frac = Fraction(K) / (lam_tilde * d0)
    if L_frac.denominator != 1:
        raise VerificationError("returned resource rank is not integral")
    L = L_frac.numerator
    final = []
    for bc in pre:
        if not bc.eligible:
            final.append(bc)
            continue
        kj, lj = ratios[bc.index].numerator, ratios[bc.index].denominator
        wj, rem = divmod(K, bc.dim_R * kj)
        if rem != 0 or lj * wj != L:
            raise VerificationError("block resource subdivision failed")
        final.append(replace(bc, K_j=kj, L_j=lj, W_j=wj))
    return CostReport(
        mode=mode,
        K=K,
        L=L,
        cost_bits=float(np.log2(K) - np.log2(L)),
        j0=j0,
        delta=delta,
        lambda_tilde=lam_tilde,
        blocks=tuple(final),
    )


# --------------------------------------------------------------------------
# protocol input / target vectors
# --------------------------------------------------------------------------


def merge_input_vector(state: TripartiteState, K: int) -> np.ndarray:
    """State vector of psi (x) the rank-K maximally entangled resource, on
    registers (R; A x Abar_K; B x Bbar_K)."""
    dims = state.regs
    amps = state.amplitudes
    out = np.zeros((dims.dim_R, dims.dim_A, K, dims.dim_B, K), dtype=complex)
    for k in range(K):
        out[:, :, k, :, k] = amps / np.sqrt(float(K))
    return out.reshape(-1)


def merge_target_vector(state: TripartiteState, L: int) -> np.ndarray:
    """Target vector: psi relocated to the receiver (B' x B) together with a
    rank-L maximally entangled pair on (Abar_L; Bbar_L)."""
    dims = state.regs
    amps = state.amplitudes
    out = np.zeros(
        (dims.dim_R, L, dims.dim_A, dims.dim_B, L), dtype=complex
    )
    for l in range(L):
        out[:, l, :, :, l] = amps / np.sqrt(float(L))
    return out.reshape(-1)


# --------------------------------------------------------------------------
# protocol construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeBuild:
    """A constructed merging protocol together with its cost report."""

    protocol: OneWayProtocol
    report: CostReport


class _BlockData:
    """Computed per-block quantities reused across branch assembly, with the
    block's resource layout, the one place the merging mode enters:

    - ``per``: resource levels paired with each redundant level (``K_j`` in
      catalytic mode, ``K`` otherwise);
    - ``target``: flattening target (``L_j`` in catalytic mode, ``dim_R``
      otherwise);
    - ``w_cnt``: the returned-resource subdivision ``W_j`` in catalytic mode,
      ``None`` otherwise (see :meth:`slot_table`).

    The parts of every Pauli correction (x, z) of the block's own dimension
    are computed once, indexed ``[x, z]``: ``tb``, the scaled conjugate Pauli
    (teleport rows); ``send``, the ``(dA, dim_R)`` sender rows of each live
    level; ``recv``, the ``(dA, dB)`` receiver block of each (teleport index
    v, B-factor kr) pair.
    """

    def __init__(self, block, cost: BlockCost, K: int, catalytic: bool, P: int):
        self.index = block.index
        self.iso = block.iso  # (dA, dL, dR)
        self.dim_L = block.dim_L
        self.dim_R = block.dim_R
        self.live = block.p > 0.0
        self.lam = block.lambdas
        self.n_r = block.dim_bR
        if self.live:
            self.u_live = block.omega_vec / np.sqrt(self.lam)[None, :]
        else:
            if self.dim_R != 1:
                raise VerificationError(
                    "zero-weight block must have trivial quantum dimension"
                )
            self.u_live = np.zeros((self.dim_L, 0), dtype=complex)
        self.u_dead = orthonormal_complement(self.u_live, self.dim_L)
        if catalytic and self.live:
            self.per, self.target, self.w_cnt = cost.K_j, cost.L_j, cost.W_j
        else:
            self.per, self.target, self.w_cnt = K, self.dim_R, None
        # conjugated B-factor columns, indexed [m, kr]
        self.ws_conj = block.ws.transpose(1, 2, 0).conj()
        d, dA, dB = self.dim_R, self.iso.shape[0], block.ws.shape[0]
        self.tb = np.empty((d, d, d, d), dtype=complex)
        self.send = np.empty((d, d, self.u_live.shape[1], dA, d), dtype=complex)
        self.recv = np.empty((d, d, d, self.n_r, dA, dB), dtype=complex)
        for x in range(d):
            for z in range(d):
                sig = generalized_pauli(d, x, z)
                self.tb[x, z] = (np.sqrt(float(d)) / P) * sig.conj()
                if not self.live:
                    continue
                for m in range(self.u_live.shape[1]):
                    self.send[x, z, m] = self.sender_rows(
                        self.u_live[:, m], self.tb[x, z]
                    )
                # A-part columns for each redundant level, teleport-corrected
                # quantum index v
                a_part = np.einsum("alr,lm,rv->amv", self.iso, block.omega_vec, sig)
                self.recv[x, z] = np.einsum("amv,bmk->vkab", a_part, block.ws)

    def sender_rows(self, vec: np.ndarray, tb: np.ndarray) -> np.ndarray:
        """(dA, dim_R) sender rows of the block direction ``vec``, one column
        per teleport index."""
        return np.einsum("alr,l,rv->av", self.iso.conj(), vec.conj(), tb)

    def slot_table(self, us: Sequence[int]) -> np.ndarray:
        """``(row, col, v, pos)`` of every slot of the selected levels, in
        assembly order: the ``pos``-th level, with resource offset
        ``us[pos]``, writes returned-resource row ``row`` and consumed-resource
        column ``col`` through teleport index ``v``.  Catalytic:
        ``(pos·W+w, (u·d+v)·W+w, v)`` for v < d, w < W; otherwise
        ``(0, u, pos)``.  A zero-weight block has ``per = K`` and d = W = 1,
        where both modes give ``(0, u, 0)``."""
        if self.w_cnt is None:
            slots = [(0, u, pos, pos) for pos, u in enumerate(us)]
        else:
            d, w_cnt = self.dim_R, self.w_cnt
            slots = [
                (pos * w_cnt + w, (u * d + v) * w_cnt + w, v, pos)
                for pos, u in enumerate(us)
                for v in range(d)
                for w in range(w_cnt)
            ]
        return np.array(slots, dtype=np.intp).reshape(-1, 4)


@dataclass(frozen=True)
class _StepTable:
    """Index tables of one flattening step of one block, in assembly order.

    - ``levels``: the redundant level of each selected position;
    - ``send_at``, ``send_src``: the ``(row, col)`` of each sender write and
      the ``(pos, v)`` of the sender-row column it copies;
    - ``recv_at``, ``recv_src``: the ``(row, col)`` of each receiver pair,
      one per sender write and B-factor kr, and the ``(v, kr)`` of its
      receiver block;
    - ``ws_conj``: the conjugated B-factor column of each receiver pair.
    """

    levels: np.ndarray
    send_at: tuple
    send_src: tuple
    recv_at: tuple
    recv_src: tuple
    ws_conj: np.ndarray

    @classmethod
    def build(cls, bd: _BlockData, indices: Sequence[int]) -> "_StepTable":
        levels, us = np.divmod(np.asarray(indices, dtype=np.intp), bd.per)
        slots = bd.slot_table(us)
        row, col, v, pos = slots.T
        pairs = np.repeat(slots, bd.n_r, axis=0)
        kr = np.tile(np.arange(bd.n_r), len(slots))
        return cls(
            levels=levels,
            send_at=(row, col),
            send_src=(pos, v),
            recv_at=(pairs[:, 0], pairs[:, 1]),
            recv_src=(pairs[:, 2], kr),
            ws_conj=bd.ws_conj[levels[pairs[:, 3]], kr],
        )


def _merged_breakpoints(cums: list) -> list:
    """Union of the blocks' cumulative outcome probabilities, deduplicated."""
    tol = tolerance()
    points = sorted(p for c in cums for p in c)
    merged = []
    for p in points:
        if not merged or p - merged[-1] > 10 * tol:
            merged.append(p)
        else:
            merged[-1] = max(merged[-1], p)
    if not merged or abs(merged[-1] - 1.0) > 10 * tol:
        raise VerificationError("outcome probabilities do not accumulate to 1")
    merged[-1] = 1.0
    return merged


def _locate(cum: list, point: float) -> int:
    """Index of the original outcome whose cumulative interval contains point."""
    for s, edge in enumerate(cum):
        if point <= edge:
            return s
    return len(cum) - 1


def build_merge_protocol(
    state: TripartiteState,
    decomp: Optional[KIDecomposition] = None,
    mode: str = "catalytic",
    delta: float = 1e-6,
) -> MergeBuild:
    """Construct the branch-by-branch exact merging protocol.

    The sender's measurement composes, coherently across blocks: (1) a
    flattening of each block's redundant spectrum combined with its resource
    share, refined to a common outcome grid so all blocks share outcome
    probabilities; (2) a generalized-Pauli measurement teleporting the
    quantum part, on a common (x, z) grid of size lcm of the block
    dimensions; and (3) a Fourier-basis measurement over the block label.
    Zero-amplitude directions are absorbed by dedicated zero-probability
    outcomes so the measurement is complete.  The receiver's isometry
    re-creates the redundant state, corrects the teleportation, and embeds
    the block label, producing the relocated state exactly in every branch.

    Assembly is table-driven: each block's Pauli parts are computed once per
    (x, z) and its index tables once per flattening step; each branch then
    scatter-adds its sender rows and receiver terms with ``np.add.at``, in
    block, level, slot and B-factor order, so every element receives the
    same additions in the same order as a per-pair loop would make.  The
    receiver isometry is the polar part (SVD) of the accumulated matrix,
    whose singular values must all be 0 or 1.
    """
    if decomp is None:
        decomp = ki_decompose(state)
    report = achievable_cost(decomp, mode=mode, delta=delta)
    K, L = report.K, report.L
    J = decomp.J
    dA, dB = state.regs.dim_A, state.regs.dim_B
    if dA * K > 4096 or dA * dB * L > 65536:
        raise SolverError(
            f"protocol registers too large to materialize (K={K}, L={L}); "
            "increase delta to coarsen the rational approximation"
        )
    catalytic = mode == "catalytic"
    P = 1
    for b in decomp.blocks:
        if b.p > 0.0:
            P = math.lcm(P, b.dim_R)
    data = [
        _BlockData(b, report.block(b.index), K, catalytic, P) for b in decomp.blocks
    ]
    live = [bd for bd in data if bd.live]

    # flattening schedules on the combined (redundant x resource) spectrum
    schedules: dict = {}
    cums = []
    for bd in live:
        steps = flatten_schedule(np.repeat(bd.lam, bd.per) / bd.per, bd.target)
        probs = [bd.target * st.mass for st in steps]
        cum = list(np.cumsum(probs))
        tables = [_StepTable.build(bd, st.indices) for st in steps]
        schedules[bd.index] = (steps, probs, cum, tables)
        cums.append(cum)
    grid = _merged_breakpoints(cums)
    nu = [grid[0]] + [b - a for a, b in zip(grid[:-1], grid[1:])]

    out_b_dim = dA * dB * L
    dead_count = sum(bd.u_dead.shape[1] * bd.per for bd in data)
    n = (len(nu) + dead_count) * P * P * J
    labels = []
    a_ops = np.zeros((n, L, dA * K), dtype=complex)
    b_ops = np.zeros((n, out_b_dim, dB * K), dtype=complex)
    default_b = np.eye(out_b_dim, dtype=complex)[:, : dB * K]

    def a_phase(j: int, m3: int) -> complex:
        return np.exp(-2j * np.pi * j * m3 / J) / np.sqrt(float(J))

    def b_phase(j: int, m3: int) -> complex:
        return np.exp(2j * np.pi * j * m3 / J)

    def sender_view(i: int) -> np.ndarray:
        """``a_ops[i]`` indexed [returned row, consumed column, A index]."""
        return a_ops[i].reshape(L, dA, K).transpose(0, 2, 1)

    def receiver_isometry(label: tuple, acc: np.ndarray) -> np.ndarray:
        """Polar part of the receiver matrix accumulated as ``acc[l, k, a,
        b, b']`` (output (a, b, l), input (b', k))."""
        mat = acc.transpose(2, 3, 0, 4, 1).reshape(out_b_dim, dB * K)
        try:
            u, s, vh = np.linalg.svd(mat, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"branch {label}: receiver isometry completion failed ({exc})"
            ) from exc
        dev = np.minimum(np.abs(s - 1.0), np.abs(s))
        if np.any(dev > 1e-6):
            raise VerificationError(
                f"branch {label}: receiver isometry completion: singular values "
                f"deviate from 0/1 (worst min(|s-1|, |s|) = {float(dev.max())!r} "
                "> 1e-06)"
            )
        return u @ vh

    for t, width in enumerate(nu):
        mid = grid[t] - 0.5 * width
        located = []
        for bd in live:
            steps, probs, cum, tables = schedules[bd.index]
            s = _locate(cum, mid)
            tab = tables[s]
            scale = np.sqrt(width / probs[s])
            amps = scale * np.sqrt(steps[s].mass / (bd.lam[tab.levels] / bd.per))
            located.append((bd, tab, amps))
        for x in range(P):
            for z in range(P):
                parts = []
                for bd, tab, amps in located:
                    xz = (x % bd.dim_R, z % bd.dim_R)
                    row_av = amps[:, None, None] * bd.send[xz][tab.levels]
                    pos, v = tab.send_src
                    recv_blocks = bd.recv[xz][tab.recv_src]
                    parts.append((bd, tab, row_av[pos, :, v], recv_blocks))
                for m3 in range(J):
                    i = len(labels)
                    a_view = sender_view(i)
                    acc = np.zeros((L, K, dA, dB, dB), dtype=complex)
                    for bd, tab, send_vals, recv_blocks in parts:
                        ph_a = a_phase(bd.index, m3)
                        ph_b = b_phase(bd.index, m3)
                        np.add.at(a_view, tab.send_at, ph_a * send_vals)
                        terms = (ph_b * recv_blocks)[..., None] * (
                            tab.ws_conj[:, None, None, :]
                        )
                        np.add.at(acc, tab.recv_at, terms)
                    labels.append((t, x, z, m3))
                    if any(len(tab.ws_conj) for _, tab, _, _ in parts):
                        b_ops[i] = receiver_isometry(labels[i], acc)
                    else:
                        b_ops[i] = default_b

    # zero-probability outcomes covering the dead (zero-amplitude) directions
    m1 = len(nu)
    for bd in data:
        d = bd.dim_R
        for c in range(bd.u_dead.shape[1]):
            rows = [
                [bd.sender_rows(bd.u_dead[:, c], bd.tb[x, z]) for z in range(d)]
                for x in range(d)
            ]
            for u in range(bd.per):
                row, col, _, v = bd.slot_table([u]).T
                for x in range(P):
                    for z in range(P):
                        vals = rows[x % d][z % d][:, v].T
                        for m3 in range(J):
                            i = len(labels)
                            sender_view(i)[row, col] = a_phase(bd.index, m3) * vals
                            labels.append((m1, x, z, m3))
                            b_ops[i] = default_b
                m1 += 1

    protocol = OneWayProtocol(
        branches=labels,
        a_ops=a_ops,
        b_ops=b_ops,
        name=f"merge-{mode}[K={K},L={L}]",
    )
    return MergeBuild(protocol=protocol, report=report)


def verify_merge(
    state: TripartiteState,
    decomp: Optional[KIDecomposition] = None,
    mode: str = "catalytic",
    delta: float = 1e-6,
) -> VerificationReport:
    """Build the merging protocol and check every branch against the target."""
    build = build_merge_protocol(state, decomp, mode=mode, delta=delta)
    vec = merge_input_vector(state, build.report.K)
    target = merge_target_vector(state, build.report.L)
    return verify_protocol(build.protocol, vec, target)


# --------------------------------------------------------------------------
# qubit-optimal construction
# --------------------------------------------------------------------------

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class MixedUnitaryDecomposition:
    """A channel written as sum_m p_m U_m rho U_m^dag."""

    terms: tuple  # of (probability, unitary)


def _su2_from_so3(rot: np.ndarray) -> np.ndarray:
    """SU(2) element whose Bloch-vector action matches the SO(3) matrix."""
    # quaternion extraction with the numerically stable largest-pivot branch
    t = np.trace(rot)
    if t > 0:
        r = np.sqrt(1.0 + t)
        w = 0.5 * r
        x = (rot[2, 1] - rot[1, 2]) / (2 * r)
        y = (rot[0, 2] - rot[2, 0]) / (2 * r)
        z = (rot[1, 0] - rot[0, 1]) / (2 * r)
    else:
        i = int(np.argmax(np.diag(rot)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + rot[i, i] - rot[j, j] - rot[k, k])
        q = [0.0, 0.0, 0.0]
        q[i] = 0.5 * r
        q[j] = (rot[j, i] + rot[i, j]) / (2 * r)
        q[k] = (rot[k, i] + rot[i, k]) / (2 * r)
        w = (rot[k, j] - rot[j, k]) / (2 * r)
        x, y, z = q
    return w * _PAULIS[0] - 1j * (x * _PAULIS[1] + y * _PAULIS[2] + z * _PAULIS[3])


def _pauli_transfer(channel_blocks: np.ndarray) -> np.ndarray:
    """3x3 Bloch-rotation part of a unital qubit channel given its action
    channel_blocks[i, j] = E(|i><j|)."""
    ptm = np.zeros((3, 3))
    for b in range(3):
        rho = sum(
            _PAULIS[b + 1][i, j] * channel_blocks[i, j]
            for i in range(2)
            for j in range(2)
        )
        for a in range(3):
            val = 0.5 * np.trace(_PAULIS[a + 1] @ rho)
            if abs(val.imag) > 1e-7:
                raise ValidationError("channel is not Hermiticity-preserving")
            ptm[a, b] = val.real
    return ptm


def mixed_unitary_decomposition_qubit(choi: np.ndarray) -> MixedUnitaryDecomposition:
    """Decompose a unital qubit channel, given its normalized Choi matrix on
    (input, output), into a mixture of at most four unitaries.

    The Bloch rotation part is brought to signed-singular-value form
    R1 diag(s) R2^T with R1, R2 special orthogonal; the diagonal channel is a
    Pauli mixture and the rotations lift to SU(2) conjugations.
    """
    tol = tolerance()
    choi = np.asarray(choi, dtype=complex)
    if choi.shape != (4, 4):
        raise ValidationError("expected a 4x4 qubit Choi matrix")
    if np.max(np.abs(choi - dagger(choi))) > 10 * tol:
        raise ValidationError("Choi matrix is not Hermitian")
    evals = np.linalg.eigvalsh(choi)
    if evals.min() < -10 * tol:
        raise ValidationError("Choi matrix is not positive semidefinite (not CP)")
    if abs(np.trace(choi).real - 1.0) > 1e-6:
        raise ValidationError("Choi matrix must be normalized to unit trace")
    blocks = choi.reshape(2, 2, 2, 2)  # [i, b, j, b']
    tr_out = np.einsum("ibjb->ij", blocks)
    if np.max(np.abs(tr_out - np.eye(2) / 2)) > 10 * tol:
        raise ValidationError("channel is not trace-preserving")
    tr_in = np.einsum("iaib->ab", blocks)
    if np.max(np.abs(tr_in - np.eye(2) / 2)) > 10 * tol:
        raise ValidationError("channel is not unital")
    channel_blocks = 2.0 * blocks.transpose(0, 2, 1, 3)  # [i, j, b, b']
    ptm = _pauli_transfer(channel_blocks)
    o1, s, o2t = np.linalg.svd(ptm)
    d1, d2 = np.linalg.det(o1), np.linalg.det(o2t.T)
    o1[:, 2] *= np.sign(d1)
    o2 = o2t.T.copy()
    o2[:, 2] *= np.sign(d2)
    s = s.copy()
    s[2] *= np.sign(d1) * np.sign(d2)
    weights = 0.25 * np.array(
        [
            1 + s[0] + s[1] + s[2],
            1 + s[0] - s[1] - s[2],
            1 - s[0] + s[1] - s[2],
            1 - s[0] - s[1] + s[2],
        ]
    )
    if weights.min() < -1e-7:
        raise SolverError(
            "channel admits no mixed-unitary form within tolerance "
            f"(weight {weights.min():.2e})"
        )
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    v1 = _su2_from_so3(o1)
    v2 = _su2_from_so3(o2.T)
    terms = []
    for m in range(4):
        if weights[m] > tol:
            terms.append((float(weights[m]), v1 @ _PAULIS[m] @ v2))
    # round-trip check against the input Choi matrix
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2.0)
    rebuilt = np.zeros((4, 4), dtype=complex)
    for p, u in terms:
        v = (np.kron(np.eye(2), u) @ phi).reshape(-1)
        rebuilt += p * np.outer(v, v.conj())
    if np.max(np.abs(rebuilt - choi)) > 1e-8:
        raise VerificationError(
            "mixed-unitary reconstruction deviates from the input channel"
        )
    return MixedUnitaryDecomposition(terms=tuple(terms))


@dataclass(frozen=True)
class QubitMergeReport:
    """Qubit-optimal merging: cost, resource rank, protocol, and the channel
    decomposition when the zero-cost construction applies."""

    cost_bits: float
    K: int
    protocol: OneWayProtocol
    mixed_unitary: Optional[MixedUnitaryDecomposition]


def qubit_optimal_merge(state: TripartiteState) -> QubitMergeReport:
    """Optimal non-catalytic merging for a three-qubit state with maximally
    mixed spectator marginal: zero cost when the receiver marginal is also
    maximally mixed (via the mixed-unitary form of the channel whose
    normalized Choi matrix is the spectator-receiver marginal), else one
    shared bit via teleportation."""
    tol = tolerance()
    regs = state.regs
    if (regs.dim_R, regs.dim_A, regs.dim_B) != (2, 2, 2):
        raise ValidationError("qubit-optimal merging requires three qubits")
    if np.max(np.abs(state.marginal("R") - np.eye(2) / 2)) > 10 * tol:
        raise ValidationError(
            "spectator marginal must be maximally mixed; replace the state by "
            "its maximally entangled counterpart first"
        )
    amps = state.amplitudes
    if np.max(np.abs(state.marginal("B") - np.eye(2) / 2)) <= 10 * tol:
        # spectator-receiver marginal, arranged [(i,b), (j,b')]
        rho_rb = np.einsum("iab,jap->ibjp", amps, amps.conj()).reshape(4, 4)
        mu = mixed_unitary_decomposition_qubit(rho_rb)
        psi_mat = amps.transpose(0, 2, 1).reshape(4, 2)  # [(i,b), a]
        m_cnt = len(mu.terms)
        x_mat = np.zeros((4, m_cnt), dtype=complex)
        for m, (p, u) in enumerate(mu.terms):
            x_mat[:, m] = np.sqrt(p) * u.T.reshape(-1) / np.sqrt(2.0)
        lmat, svals, vh = np.linalg.svd(psi_mat, full_matrices=False)
        rank = int(np.sum(svals > 10 * tol * max(1.0, float(svals[0]))))
        lmat, svals, vh = lmat[:, :rank], svals[:rank], vh[:rank, :]
        coeff = dagger(lmat) @ x_mat
        if np.max(np.abs(x_mat - lmat @ coeff)) > 1e-7:
            raise VerificationError(
                "purification alignment failed: ranges do not match"
            )
        u_iso = (dagger(vh) @ np.diag(1.0 / svals) @ coeff).T  # (m_cnt, 2)
        if rank < 2:
            extra = orthonormal_complement(dagger(u_iso), 2)
            u_iso = np.vstack([u_iso, extra.T.conj()])
        v_psi = np.sqrt(2.0) * amps.reshape(2, 4).T  # columns l -> vec(a,b)
        # outcomes beyond the mixed-unitary terms reuse the first correction
        corrections = [u for _, u in mu.terms]
        corrections += [corrections[0]] * (u_iso.shape[0] - m_cnt)
        protocol = OneWayProtocol(
            branches=[(m,) for m in range(u_iso.shape[0])],
            a_ops=u_iso[:, None, :],
            b_ops=[v_psi @ dagger(u) for u in corrections],
            name="qubit-merge[K=1]",
        )
        return QubitMergeReport(
            cost_bits=0.0, K=1, protocol=protocol, mixed_unitary=mu
        )
    # teleportation fallback: one shared bit
    labels = [(x, z) for x in range(2) for z in range(2)]
    a_ops = np.zeros((4, 1, 4), dtype=complex)
    b_ops = np.zeros((4, 4, 4), dtype=complex)
    for i, (x, z) in enumerate(labels):
        sig = generalized_pauli(2, x, z)
        a_ops[i] = sig.conj().reshape(1, 4) / np.sqrt(2.0)
        for a_out in range(2):
            for b_idx in range(2):
                for kbar in range(2):
                    b_ops[i, a_out * 2 + b_idx, b_idx * 2 + kbar] = sig[a_out, kbar]
    protocol = OneWayProtocol(
        branches=labels, a_ops=a_ops, b_ops=b_ops, name="qubit-merge[K=2]"
    )
    return QubitMergeReport(cost_bits=1.0, K=2, protocol=protocol, mixed_unitary=None)

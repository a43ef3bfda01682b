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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import SolverError, ValidationError, VerificationError
from .ki import KIDecomposition, ki_decompose
from .locc import (
    OneWayProtocol,
    VerificationReport,
    apply_protocol,
    batch_slices,
    check_protocol_budget,
    flatten_schedule,
    generalized_paulis,
    verify_protocol,
)
from .numerics import ALIGNMENT_SLACK, BRANCH_DROP, CHANNEL_SLACK, ISOMETRY_SLACK, MATCH, NORM_SLACK, POLAR_SLACK
from .numerics import RATIONAL_WIDENING, SPECTRUM_DROP, TIE, dagger, guarded_ceil, orthonormal_complement
from .statespace import TripartiteState

# Default cost slack of the catalytic rational fit, in bits.
DEFAULT_DELTA = 1e-6


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
    # absorb eigensolver float noise (~1e-15) by widening the interval downward by
    # RATIONAL_WIDENING, at most flatten_schedule's CUT_FILTER (equal to it), against
    # duplicate level assignments; whether these need it strictly below is unverified
    lo = Fraction(max(lam0 - RATIONAL_WIDENING, lam0 * 0.5))
    # 2.0**delta overflows past 1023; any window that reaches 1 >= ceil(lo)
    # already yields ceil(lo), so capping the exponent changes no result
    hi = Fraction(lam0 * 2.0 ** min(delta, 1023.0))
    best = _simplest_between(lo, hi)
    if best.denominator > 10**6:
        raise SolverError(
            f"no rational approximation of {lam0} with denominator <= 1e6 in a "
            f"2^{delta} window; increase delta"
        )
    return best


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


def _select_leading_block(blocks: Sequence[BlockCost]) -> int:
    j0 = -1
    best = 0.0
    for bc in blocks:
        if not bc.eligible:
            continue
        # ties within TIE keep the earliest block in canonical order
        if j0 < 0 or bc.product > best + TIE * max(1.0, best):
            j0, best = bc.index, bc.product
    if j0 < 0:
        raise ValidationError("no block carries probability weight")
    return j0


def achievable_cost(
    decomp: KIDecomposition, mode: str = "catalytic", delta: float = DEFAULT_DELTA
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
        K = max(guarded_ceil(bc.product) for bc in pre if bc.eligible)
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
# protocol target vector
# --------------------------------------------------------------------------


def merge_target_vector(state: TripartiteState, L: int) -> np.ndarray:
    """Target vector: psi relocated to the receiver (B' x B) together with a
    rank-L maximally entangled pair on (Abar_L; Bbar_L)."""
    dim_R, dim_A, dim_B = state.dims
    amps = state.amplitudes
    out = np.zeros((dim_R, L, dim_A, dim_B, L), dtype=complex)
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
    are computed once, one ``einsum`` each, indexed ``[x, z]``: ``tb``, the
    scaled conjugate Pauli (teleport rows); ``send``, the ``(dA, dim_R)``
    sender rows of each live level; ``a_part``, the teleport-corrected A-part
    of each live level.  The receiver blocks of one correction,
    ``dB·n_r/dim_L`` times larger, come from :meth:`recv_tables` when a batch
    of its branches is assembled.  ``ph_a`` and ``ph_b``: the sender and
    receiver Fourier phases of the block label per branch (x, z, m3) of a
    grid interval.  A live block owns its flattening schedule on the combined
    (redundant x resource) spectrum: ``steps``, their outcome probabilities
    ``probs`` and running sums ``cum``, and each step's :meth:`step_table`.
    """

    def __init__(self, block, cost: BlockCost, K: int, catalytic: bool, P: int, J: int):
        self.index = block.index
        self.iso = block.iso  # (dA, dL, dR)
        self.dim_L = block.dim_L
        self.dim_R = block.dim_R
        self.live = block.p > 0.0
        self.lam = block.lambdas
        self.n_r = block.dim_bR
        self.ws = block.ws
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
        # conjugated B-factor columns, indexed [kr, m]
        self.ws_conj = block.ws.transpose(2, 1, 0).conj()
        sigs = generalized_paulis(self.dim_R)
        self.tb = (np.sqrt(float(self.dim_R)) / P) * sigs.conj()
        self.send = self.sender_rows(self.u_live)
        # A-part columns of each redundant level, teleport-corrected quantum index v
        self.a_part = np.einsum("alr,lm,xzrv->xzamv", self.iso, block.omega_vec, sigs)
        j = self.index
        self.ph_a = np.tile(
            [np.exp(-2j * np.pi * j * m3 / J) / np.sqrt(float(J)) for m3 in range(J)], P * P
        )
        self.ph_b = np.tile([np.exp(2j * np.pi * j * m3 / J) for m3 in range(J)], P * P)
        if self.live:
            self.steps = flatten_schedule(np.repeat(self.lam, self.per) / self.per, self.target)
            self.probs = [self.target * st.mass for st in self.steps]
            self.cum = list(np.cumsum(self.probs))
            self.tables = [self.step_table(st.indices) for st in self.steps]

    def recv_tables(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """``(len(xs), dim_R, n_r, dA, dB)`` receiver blocks of the Pauli
        corrections (xs, zs), indexed [correction, teleport index v,
        B-factor kr]."""
        return np.einsum("camv,bmk->cvkab", self.a_part[xs, zs], self.ws)

    def sender_rows(self, vecs: np.ndarray) -> np.ndarray:
        """Sender rows of the block directions ``vecs`` (columns) for every
        Pauli correction, indexed [x, z, column, A index, teleport index]."""
        return np.einsum("alr,lm,xzrv->xzmav", self.iso.conj(), vecs.conj(), self.tb)

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

    def step_table(self, indices: Sequence[int]) -> "_StepTable":
        """Tables of one flattening step, in assembly order: ``levels``, the
        redundant level of each selected position; ``rounds``, the
        :func:`_rounds` of the step's slots, each with the ``(row, col)`` of
        its slots, the ``(pos, v)`` of the sender-row column each copies and
        the conjugated B-factor columns of each slot's level, indexed [kr]
        and shaped to broadcast; ``pairs``, the number of receiver pairs,
        one per slot and B-factor kr.  The pair table is slot-major and
        kr-minor, so the o-th pair to hit an element is slot round
        ``o // n_r`` at ``kr = o % n_r``: each round taken once per kr, kr
        innermost, adds the receiver terms of every element in pair order."""
        levels, us = np.divmod(np.asarray(indices, dtype=np.intp), self.per)
        row, col, v, pos = self.slot_table(us).T
        ws_conj = self.ws_conj[:, levels[pos]]
        rounds = tuple(
            (row[r], col[r], pos[r], v[r], ws_conj[:, None, r, None, None, :])
            for r in _rounds(row, col)
        )
        return _StepTable(levels, rounds, len(row) * self.n_r)


class _StepTable(NamedTuple):
    levels: np.ndarray
    rounds: tuple
    pairs: int


def _rounds(row: np.ndarray, col: np.ndarray) -> tuple:
    """Scatter rounds of the entries ``(row, col)``: round o lists, in table
    order, the entries that are the o-th to hit their ``(row, col)``.  No two
    entries of a round share an element, so one buffered ``+=`` per round,
    round by round, adds into every element in table order."""
    hits: dict = {}
    rank = np.empty(len(row), dtype=np.intp)
    for e, key in enumerate(zip(row.tolist(), col.tolist())):
        rank[e] = hits[key] = hits.get(key, -1) + 1
    return tuple(np.flatnonzero(rank == o) for o in range(rank.max(initial=-1) + 1))


def _merged_breakpoints(cums: list) -> list:
    """Union of the blocks' cumulative outcome probabilities, deduplicated."""
    points = sorted(p for c in cums for p in c)
    merged = []
    for p in points:
        if not merged or p - merged[-1] > TIE:
            merged.append(p)
        else:
            merged[-1] = max(merged[-1], p)
    if not merged or abs(merged[-1] - 1.0) > ISOMETRY_SLACK:
        total = float(merged[-1]) if merged else 0.0
        raise VerificationError(
            f"outcome probabilities do not accumulate to 1: merged total {total!r}, "
            f"block totals {[float(c[-1]) for c in cums]}"
        )
    merged[-1] = 1.0
    return merged


def build_merge_protocol(
    state: TripartiteState,
    decomp: Optional[KIDecomposition] = None,
    mode: str = "catalytic",
    delta: float = DEFAULT_DELTA,
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

    Assembly is table-driven: each block's sender rows and A-parts are
    computed for every (x, z) at once, one ``einsum`` each, its slot table
    and its one set of scatter rounds once per flattening step, and its
    receiver blocks per batch, for the corrections of the batch's branches
    only, in one ``einsum``.  A grid interval's branches are assembled in
    batches of consecutive labels, bounded by :data:`~qsm.locc.BATCH_BYTES`
    (see :func:`~qsm.locc.batch_slices`): per block and slot round, the
    batch's sender rows are added in one buffered ``+=`` and its receiver
    terms in one per B-factor, with the terms of one round alive at a time,
    so every element receives the same additions in the same order, from
    the same zero fill, as a per-pair loop would make.  The receiver
    isometry is the polar part of the accumulated matrix, from one stacked
    SVD per batch; the singular values of each branch, checked in label
    order, must all be 0 or 1.  The zero-probability branches of one dead
    direction and resource offset are written as one stacked assignment.  A
    protocol over the byte budget of :func:`~qsm.locc.check_protocol_budget`
    raises :class:`SolverError` (exit 3) before allocation, and before the
    flattening schedules when one grid interval is already over it.
    """
    if decomp is None:
        decomp = ki_decompose(state)
    report = achievable_cost(decomp, mode=mode, delta=delta)
    K, L = report.K, report.L
    J = decomp.J
    _, dA, dB = state.dims
    catalytic = mode == "catalytic"
    P = 1
    for b in decomp.blocks:
        if b.p > 0.0:
            P = math.lcm(P, b.dim_R)
    a_shape, b_shape = (L, dA * K), (dA * dB * L, dB * K)
    hint = "; increase delta to coarsen the rational approximation" if catalytic else ""
    check_protocol_budget(P * P * J, a_shape, b_shape, hint)
    data = [
        _BlockData(b, report.blocks[b.index], K, catalytic, P, J) for b in decomp.blocks
    ]
    live = [bd for bd in data if bd.live]
    grid = _merged_breakpoints([bd.cum for bd in live])
    nu = [grid[0]] + [b - a for a, b in zip(grid[:-1], grid[1:])]

    dead_count = sum(bd.u_dead.shape[1] * bd.per for bd in data)
    n = (len(nu) + dead_count) * P * P * J
    check_protocol_budget(n, a_shape, b_shape, hint)
    labels = []
    a_ops = np.zeros((n, *a_shape), dtype=complex)
    b_ops = np.zeros((n, *b_shape), dtype=complex)
    default_b = np.eye(*b_shape, dtype=complex)

    def sender_view(first: int, count: int) -> np.ndarray:
        """``a_ops[first : first + count]`` indexed [branch, returned row,
        consumed column, A index]."""
        return a_ops[first : first + count].reshape(count, L, dA, K).transpose(0, 1, 3, 2)

    def receiver_isometries(first: int, mats: np.ndarray) -> np.ndarray:
        """Polar parts of the stacked receiver matrices of branches ``first``,
        ``first + 1``, ...; their singular values must all be 0 or 1."""
        try:
            u, s, vh = np.linalg.svd(mats, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            if len(mats) == 1:
                raise SolverError(
                    f"branch {labels[first]}: receiver isometry completion failed ({exc})"
                ) from exc
            # one at a time, only to name the failing branch
            return np.concatenate(
                [receiver_isometries(first + k, mats[k : k + 1]) for k in range(len(mats))]
            )
        dev = np.minimum(np.abs(s - 1.0), np.abs(s))
        bad = np.flatnonzero(np.any(dev > POLAR_SLACK, axis=1))
        if len(bad):
            k = bad[0]
            raise VerificationError(
                f"branch {labels[first + k]}: receiver isometry completion: singular "
                f"values deviate from 0/1 (worst min(|s-1|, |s|) = "
                f"{float(dev[k].max())!r} > {POLAR_SLACK!r})"
            )
        return u @ vh

    # branches of one grid interval, in label order (x, z, m3)
    xs, zs, m3s = (a.reshape(-1) for a in np.indices((P, P, J)))
    for t, width in enumerate(nu):
        mid = grid[t] - 0.5 * width
        located = []
        for bd in live:
            # the step whose cumulative interval holds mid: the first cum[s] >= mid
            s = min(int(np.searchsorted(bd.cum, mid)), len(bd.cum) - 1)
            tab = bd.tables[s]
            scale = np.sqrt(width / bd.probs[s])
            amps = scale * np.sqrt(bd.steps[s].mass / (bd.lam[tab.levels] / bd.per))
            located.append((bd, tab, amps))
        first = len(labels)
        labels += [(t, int(x), int(z), int(m3)) for x, z, m3 in zip(xs, zs, m3s)]
        # a branch's receiver accumulator plus the scatter terms of all its
        # receiver pairs; only one scatter round's terms are live at a time,
        # so this over-counts
        pairs = max(tab.pairs for _, tab, _ in located)
        for sel in batch_slices(len(xs), 16 * dA * dB * dB * (L * K + pairs)):
            x_b, z_b = xs[sel], zs[sel]
            nb = len(x_b)
            i0 = first + sel.start
            a_view = sender_view(i0, nb)
            acc = np.zeros((nb, L, K, dA, dB, dB), dtype=complex)
            for bd, tab, amps in located:
                xz = (x_b % bd.dim_R, z_b % bd.dim_R)
                row_av = amps[:, None, None] * bd.send[xz][:, tab.levels]
                # receiver tables of the batch's distinct corrections; branch i's is which[i]
                codes, which = np.unique(xz[0] * bd.dim_R + xz[1], return_inverse=True)
                recv = bd.recv_tables(*np.divmod(codes, bd.dim_R))
                ph_a, ph_b = bd.ph_a[sel, None, None], bd.ph_b[sel, None, None, None]
                for row, col, pos, v, ws_conj in tab.rounds:
                    vals = row_av[:, pos, :, v].transpose(1, 0, 2)  # [branch, write, A index]
                    a_view[:, row, col] += ph_a * vals
                    for kr in range(bd.n_r):
                        blocks = recv[which[:, None], v, kr]
                        acc[:, row, col] += (ph_b * blocks)[..., None] * ws_conj[kr]
            mats = acc.transpose(0, 3, 4, 1, 5, 2).reshape(nb, *b_shape)
            b_ops[i0 : i0 + nb] = receiver_isometries(i0, mats)

    # zero-probability outcomes covering the dead (zero-amplitude) directions,
    # P·P·J branches (x, z, m3) per direction and resource offset
    m1 = len(nu)
    for bd in data:
        ph_a = bd.ph_a[:, None, None]
        dead = bd.sender_rows(bd.u_dead)
        for c in range(bd.u_dead.shape[1]):
            rows = dead[xs % bd.dim_R, zs % bd.dim_R, c]  # [branch, A index, v]
            for u in range(bd.per):
                row, col, _, v = bd.slot_table([u]).T
                i0 = len(labels)
                sender_view(i0, len(xs))[:, row, col] = ph_a * rows[:, :, v].transpose(0, 2, 1)
                b_ops[i0 : i0 + len(xs)] = default_b
                labels += [(m1, int(x), int(z), int(m3)) for x, z, m3 in zip(xs, zs, m3s)]
                m1 += 1

    protocol = OneWayProtocol(
        branches=labels,
        a_ops=a_ops,
        b_ops=b_ops,
        name=f"merge-{mode}[K={K},L={L}]",
    )
    return MergeBuild(protocol=protocol, report=report)


def verify_merge(state: TripartiteState, build: MergeBuild) -> VerificationReport:
    """Run the merging protocol of ``build`` once on ``state`` (x) Phi_K, with
    Phi_K its rank-K resource pair, and check every branch against the target."""
    outcomes = apply_protocol(build.protocol, state.amplitudes, build.report.K)
    return verify_protocol(build.protocol, outcomes, merge_target_vector(state, build.report.L))


# --------------------------------------------------------------------------
# qubit-optimal construction
# --------------------------------------------------------------------------

# columns Phi+, i Phi-, i Psi+, Psi- on (input, output): the magic basis
_MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]
) / np.sqrt(2.0)


def mixed_unitary_decomposition_qubit(choi: np.ndarray) -> tuple[tuple[float, np.ndarray], ...]:
    """Decompose a unital qubit channel, given its normalized Choi matrix on
    (input, output), into a mixture of at most four unitaries: the channel
    is sum_m p_m U_m rho U_m^dag for the returned ``(p_m, U_m)`` pairs, in
    descending order of p_m.

    Every unital qubit channel is a mixture of unitaries (Landau-Streater,
    Linear Algebra Appl. 193, 107 (1993)).  In the magic basis each vector
    (1 (x) U)|Phi+> is real up to a global phase, and every real unit vector
    is maximally entangled (Hill-Wootters, PRL 78, 5022 (1997)).  So the
    Choi matrix is real symmetric in that basis, and its eigenvectors are
    the terms (1 (x) U_m)|Phi+> with the eigenvalues p_m as weights.
    """
    choi = np.asarray(choi, dtype=complex)
    if choi.shape != (4, 4):
        raise ValidationError("expected a 4x4 qubit Choi matrix")
    if not np.isfinite(choi).all():
        raise ValidationError("Choi matrix has non-finite entries")
    if np.max(np.abs(choi - dagger(choi))) > MATCH:
        raise ValidationError("Choi matrix is not Hermitian")
    evals = np.linalg.eigvalsh(choi)
    if evals.min() < -SPECTRUM_DROP:
        raise ValidationError("Choi matrix is not positive semidefinite (not CP)")
    if abs(np.trace(choi).real - 1.0) > NORM_SLACK:
        raise ValidationError("Choi matrix must be normalized to unit trace")
    blocks = choi.reshape(2, 2, 2, 2)  # [i, b, j, b']
    tr_out = np.einsum("ibjb->ij", blocks)
    if np.max(np.abs(tr_out - np.eye(2) / 2)) > MATCH:
        raise ValidationError("channel is not trace-preserving")
    tr_in = np.einsum("iaib->ab", blocks)
    if np.max(np.abs(tr_in - np.eye(2) / 2)) > MATCH:
        raise ValidationError("channel is not unital")
    weights, vecs = np.linalg.eigh((dagger(_MAGIC) @ choi @ _MAGIC).real)
    terms = [
        (float(weights[m]), np.sqrt(2.0) * (_MAGIC @ vecs[:, m]).reshape(2, 2).T)
        for m in range(3, -1, -1)
        if weights[m] > BRANCH_DROP
    ]
    # round-trip check against the input Choi matrix
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2.0)
    rebuilt = np.zeros((4, 4), dtype=complex)
    for p, u in terms:
        v = (np.kron(np.eye(2), u) @ phi).reshape(-1)
        rebuilt += p * np.outer(v, v.conj())
    if np.max(np.abs(rebuilt - choi)) > CHANNEL_SLACK:
        raise VerificationError(
            "mixed-unitary reconstruction deviates from the input channel"
        )
    return tuple(terms)


@dataclass(frozen=True)
class QubitMergeReport:
    """Qubit-optimal merging: cost, resource rank, protocol, and the channel's
    mixed-unitary ``(probability, unitary)`` pairs when the zero-cost
    construction applies."""

    cost_bits: float
    K: int
    protocol: OneWayProtocol
    mixed_unitary: Optional[tuple[tuple[float, np.ndarray], ...]]


def qubit_optimal_merge(state: TripartiteState) -> QubitMergeReport:
    """Optimal non-catalytic merging for a three-qubit state with maximally
    mixed spectator marginal: zero cost when the receiver marginal is also
    maximally mixed (via the mixed-unitary form of the channel whose
    normalized Choi matrix is the spectator-receiver marginal), else the
    one-bit non-catalytic protocol of :func:`build_merge_protocol`, built
    from the state's KI decomposition."""
    if state.dims != (2, 2, 2):
        raise ValidationError("qubit-optimal merging requires three qubits")
    if np.max(np.abs(state.marginal("R") - np.eye(2) / 2)) > MATCH:
        raise ValidationError(
            "spectator marginal must be maximally mixed; make the state's R | AB "
            "Schmidt spectrum uniform on the same Schmidt bases first"
        )
    amps = state.amplitudes
    if np.max(np.abs(state.marginal("B") - np.eye(2) / 2)) <= MATCH:
        # spectator-receiver marginal, arranged [(i,b), (j,b')]
        rho_rb = np.einsum("iab,jap->ibjp", amps, amps.conj()).reshape(4, 4)
        mu = mixed_unitary_decomposition_qubit(rho_rb)
        psi_mat = amps.transpose(0, 2, 1).reshape(4, 2)  # [(i,b), a]
        m_cnt = len(mu)
        x_mat = np.zeros((4, m_cnt), dtype=complex)
        for m, (p, u) in enumerate(mu):
            x_mat[:, m] = np.sqrt(p) * u.T.reshape(-1) / np.sqrt(2.0)
        lmat, svals, vh = np.linalg.svd(psi_mat, full_matrices=False)
        rank = int(np.sum(svals > SPECTRUM_DROP * max(1.0, float(svals[0]))))
        lmat, svals, vh = lmat[:, :rank], svals[:rank], vh[:rank, :]
        coeff = dagger(lmat) @ x_mat
        if np.max(np.abs(x_mat - lmat @ coeff)) > ALIGNMENT_SLACK:
            raise VerificationError(
                "purification alignment failed: ranges do not match"
            )
        u_iso = (dagger(vh) @ np.diag(1.0 / svals) @ coeff).T  # (m_cnt, 2)
        if rank < 2:
            extra = orthonormal_complement(dagger(u_iso), 2)
            u_iso = np.vstack([u_iso, extra.T.conj()])
        v_psi = np.sqrt(2.0) * amps.reshape(2, 4).T  # columns l -> vec(a,b)
        # outcomes beyond the mixed-unitary terms reuse the first correction
        corrections = [u for _, u in mu]
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
    build = build_merge_protocol(state, mode="noncatalytic")
    report = build.report
    return QubitMergeReport(report.cost_bits, report.K, build.protocol, mixed_unitary=None)

"""One-way LOCC protocols: representation, execution, scoring, and the
schedule that flattens a Schmidt spectrum onto a maximally entangled target
(:func:`flatten_schedule`, which drives the merging protocol).

A protocol is a finite family of labelled branches, held as two stacked
arrays: ``a_ops[i]`` is the measurement operator that branch ``i`` applies to
the sender's input register, and ``b_ops[i]`` is the isometry the receiver
applies once the outcome label ``branches[i]`` is communicated.  Finite
entries, completeness of the measurement and isometry of every ``b_ops[i]``
are enforced at construction time, so downstream code can rely on
probabilities summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SolverError, ValidationError, VerificationError
from .numerics import BRANCH_DROP, CUT_FILTER, FIDELITY_LOSS, ISOMETRY_SLACK, MASS_SLACK, NORM_SLACK, TIE
from .numerics import is_integer, isometry_deviations

# Bytes a protocol may take, as check_protocol_budget counts them: 2 GiB
# admits every catalog and bench build and splits up to (1, 20, 20).
PROTOCOL_BYTE_BUDGET = 2**31

# Bytes of temporaries one batch of branches may hold wherever branches are
# built, checked or run a batch at a time (see batch_slices): a generic
# (4, 6, 4) merge is assembled 7 branches a batch and run 11 a batch, while
# the largest catalog builds stay at one branch a batch and peak memory flat.
BATCH_BYTES = 512 * 1024


def generalized_paulis(d: int) -> np.ndarray:
    """Every X^x Z^z on C^d, indexed ``[x, z]``, with X|l> = |l+1 mod d>
    and Z|l> = e^{2 pi i l/d}|l>."""
    if not is_integer(d) or d < 1:
        raise ValidationError(f"dimension d must be a positive int, got {d!r}")
    ls = np.arange(d)
    phases = np.exp(2j * np.pi * ls[:, None] * ls / d)  # [z, l]
    ops = np.zeros((d, d, d, d), dtype=complex)
    ops[ls[:, None, None], ls[:, None], (ls[:, None, None] + ls) % d, ls] = phases
    return ops


def batch_slices(n: int, branch_bytes: int) -> list:
    """Consecutive slices of ``range(n)``, each as many branches as fit in
    :data:`BATCH_BYTES` at ``branch_bytes`` each, and at least one."""
    size = max(1, BATCH_BYTES // branch_bytes)
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def check_protocol_budget(n: int, a_shape: tuple, b_shape: tuple, hint: str = "") -> None:
    """Raise :class:`SolverError` if ``n`` branches with operator shapes
    ``a_shape = (a_out, a_in)`` and ``b_shape = (b_out, b_in)`` need more than
    :data:`PROTOCOL_BYTE_BUDGET` bytes, counted as ``16·(n·(a_out·a_in +
    b_out·b_in) + a_in² + b_out·b_in)``: both stacks, the completeness Gram
    and one per-branch receiver matrix.  ``hint`` ends the message."""
    (a_out, a_in), (b_out, b_in) = a_shape, b_shape
    count = 16 * (n * (a_out * a_in + b_out * b_in) + a_in**2 + b_out * b_in)
    if count > PROTOCOL_BYTE_BUDGET:
        raise SolverError(
            f"protocol of {n} branches too large to build: stacks "
            f"{(n, a_out, a_in)} and {(n, b_out, b_in)} need {count} bytes, "
            f"over the budget of {PROTOCOL_BYTE_BUDGET} bytes{hint}"
        )


@dataclass(frozen=True)
class OneWayProtocol:
    """A one-way LOCC protocol from sender A to receiver B.

    Branch ``i`` has the outcome label ``branches[i]``, the sender operator
    ``a_ops[i]`` and the receiver isometry ``b_ops[i]``.  The stacks have
    shapes ``(n, a_out, a_in)`` and ``(n, b_out, b_in)``; ``a_in``/``b_in``
    describe the two input registers, and the sender side may be fully
    measured out (``a_out = 1``).  The protocol keeps a stack it is given as
    a contiguous complex array without copying it (a view is copied) and
    marks it read-only.  The receivers are checked a batch at a time (see
    :func:`batch_slices`), with one stacked Gram product per batch; the
    first non-isometric receiver in label order is named.
    """

    branches: tuple
    a_ops: np.ndarray
    b_ops: np.ndarray
    name: str = ""
    _residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(tuple(label) for label in self.branches)
        if not labels:
            raise ValidationError("protocol must have at least one branch")
        for name in ("a_ops", "b_ops"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=complex)
            if arr.base is not None:  # a view: copy it, so no other array writes it
                arr = arr.copy()
            if arr.ndim != 3 or arr.shape[0] != len(labels) or 0 in arr.shape:
                raise ValidationError(
                    f"{name} must stack one nonempty matrix per branch "
                    f"({len(labels)}), got shape {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} has non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        seen = set()
        for label in labels:
            if label in seen:
                raise ValidationError(f"duplicate branch label {label}")
            seen.add(label)
        b_out, b_in = self.b_ops.shape[1:]
        batches = batch_slices(len(labels), 16 * (b_out * b_in + b_in * b_in))
        for sel in batches:
            bad = np.flatnonzero(~(isometry_deviations(self.b_ops[sel]) <= ISOMETRY_SLACK))
            if len(bad):
                worst = max(float(isometry_deviations(self.b_ops[s]).max()) for s in batches)
                raise ValidationError(
                    f"branch {labels[sel.start + bad[0]]}: receiver operator is not an "
                    f"isometry (worst receiver deviation {worst:.2e} > 10 tau = {ISOMETRY_SLACK:.1e})"
                )
        residual = float(isometry_deviations(self.a_ops.reshape(-1, self.a_in_dim)))
        if not residual <= ISOMETRY_SLACK:
            raise ValidationError(
                f"measurement completeness fails (residual {residual:.2e})"
            )
        object.__setattr__(self, "branches", labels)
        object.__setattr__(self, "_residual", residual)

    @property
    def a_in_dim(self) -> int:
        return self.a_ops.shape[2]

    @property
    def b_in_dim(self) -> int:
        return self.b_ops.shape[2]

    def completeness_residual(self) -> float:
        """Max |sum_b a_op^dag a_op - 1|, computed once at construction."""
        return self._residual


@dataclass(frozen=True)
class BranchOutcome:
    """Result of running one branch: label, probability, normalized output."""

    label: tuple
    probability: float
    state: np.ndarray


@dataclass(frozen=True)
class VerificationReport:
    """Branch-by-branch comparison of a protocol run against a target vector."""

    min_branch_fidelity: float
    completeness_residual: float
    probability_total: float
    branch_count: int
    passed: bool


def apply_protocol(protocol: OneWayProtocol, amplitudes: np.ndarray, pair_rank: int) -> list:
    """Run every branch on ``amplitudes`` (x) Phi_K, K = ``pair_rank``; return
    the outcomes with probability above ``BRANCH_DROP``.

    Phi_K = sum_k |k>|k>/sqrt(K) is the shared maximally entangled pair; its
    two halves are the last factor of the sender's and the receiver's input
    registers.  ``amplitudes`` lives on (spectator x a_in/K x b_in/K), the
    spectator dimension inferred from its size; K = 1 runs the protocol on
    ``amplitudes`` alone.  The pair is never stored: the amplitudes are
    divided by sqrt(K) once, giving the entries a stored psi (x) Phi_K holds
    on the pair's diagonal, and each receiver operator is read
    pair-index-first as a (K, b_out, b_in/K) copy, so its contraction sums
    only the b_in/K terms that are nonzero there.  Branches run a batch at a
    time (see :func:`batch_slices`), both contractions as one ``einsum``
    with a branch axis, which sums every element in the order a per-branch
    ``einsum`` does; each probability is the ``np.linalg.norm`` of its own
    branch.  ``tests/test_locc.py`` checks the outcomes byte for byte
    against contracting the full registers of the stored product, and
    against one branch per batch and the whole stack in one batch.
    """
    a_in, b_in = protocol.a_in_dim, protocol.b_in_dim
    K = pair_rank
    if (
        not is_integer(K)
        or K < 1
        or a_in % K
        or b_in % K
    ):
        raise ValidationError(
            f"pair rank {K!r} must be a positive int dividing both registers "
            f"{a_in}x{b_in}"
        )
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= NORM_SLACK:
        raise ValidationError(f"input vector norm {norm} is not 1")
    a_own, b_own = a_in // K, b_in // K
    if amps.size % (a_own * b_own) != 0:
        raise ValidationError(
            f"input dimension {amps.size} incompatible with registers "
            f"{a_in}x{b_in} holding a pair of rank {K}"
        )
    tensor = amps.reshape(-1, a_own, b_own) / np.sqrt(float(K))
    n, a_out, _ = protocol.a_ops.shape
    b_out = protocol.b_ops.shape[1]
    # a branch's b_pair, half and out
    branch_bytes = 16 * (b_out * b_in + len(tensor) * b_out * (a_in + a_out))
    outcomes = []
    total = 0.0
    for sel in batch_slices(n, branch_bytes):
        b_ops = protocol.b_ops[sel]
        b_pair = np.ascontiguousarray(
            b_ops.reshape(len(b_ops), -1, b_own, K).transpose(0, 3, 1, 2)
        )
        half = np.einsum("iab,nkyb->niaky", tensor, b_pair)
        half = half.reshape(len(b_ops), len(tensor), a_in, -1)
        out = np.einsum("nxa,niay->nixy", protocol.a_ops[sel], half)
        for label, branch in zip(protocol.branches[sel], out):
            prob = float(np.linalg.norm(branch) ** 2)
            total += prob
            if prob > BRANCH_DROP:
                outcomes.append(
                    BranchOutcome(
                        label=label,
                        probability=prob,
                        state=branch.reshape(-1) / np.sqrt(prob),
                    )
                )
    if not abs(total - 1.0) <= ISOMETRY_SLACK:
        raise VerificationError(f"branch probabilities sum to {total}, not 1")
    return outcomes


def verify_protocol(
    protocol: OneWayProtocol, outcomes: list, target: np.ndarray
) -> VerificationReport:
    """Score the ``outcomes`` of one :func:`apply_protocol` run of ``protocol``
    against ``target``: every branch must land on it exactly.

    Each outcome is compared with ``target`` by the squared overlap
    ``|<target|out>|^2``, so a global phase per branch is allowed.  The
    protocol passes when every such fidelity is at least ``1 - FIDELITY_LOSS``.
    Measurement completeness is not tested again: :class:`OneWayProtocol`
    enforces a residual of at most ``ISOMETRY_SLACK`` at construction, and
    the report carries it as ``completeness_residual``.
    """
    target = np.asarray(target, dtype=complex).reshape(-1)
    t_norm = np.linalg.norm(target)
    if not abs(t_norm - 1.0) <= NORM_SLACK:
        raise ValidationError(f"target vector norm {t_norm} is not 1")
    min_fid = 1.0
    total = 0.0
    for out in outcomes:
        if out.state.size != target.size:
            raise ValidationError(
                f"branch output dimension {out.state.size} != target {target.size}"
            )
        overlap = complex(np.vdot(target, out.state))
        fid = abs(overlap) ** 2
        min_fid = min(min_fid, fid)
        total += out.probability
    return VerificationReport(
        min_branch_fidelity=min_fid,
        completeness_residual=protocol.completeness_residual(),
        probability_total=total,
        branch_count=len(outcomes),
        passed=min_fid >= 1.0 - FIDELITY_LOSS,
    )


@dataclass(frozen=True)
class FlattenStep:
    """One flattening outcome: the L selected levels and their common mass."""

    indices: tuple
    mass: float


def flatten_schedule(p: Sequence[float], L: int) -> list:
    """Split a descending mass vector into chunks of L distinct levels each.

    Wrap-around construction: lay the masses end to end on a line of length
    total(p), cut the line into L segments of equal length, and emit one
    outcome per breakpoint interval — the L indices covering that interval
    offset in each segment, with the interval width as the per-level mass.
    Requires max(p) <= total(p)/L, which guarantees the L indices of every
    outcome are distinct; each outcome exhausts its share of every selected
    mass, so the schedule consumes the vector exactly in at most len(p) steps.
    """
    masses = np.asarray(p, dtype=float)
    if masses.ndim != 1 or masses.size == 0:
        raise ValidationError("mass vector must be a nonempty 1-d sequence")
    if not np.isfinite(masses).all():
        raise ValidationError("mass vector has non-finite entries")
    if np.any(masses < -MASS_SLACK):
        raise ValidationError("mass vector has negative entries")
    # values within TIE are ties, as ``numerics.canonical_eigh`` orders them
    if np.any(np.diff(masses) > TIE):
        raise ValidationError("mass vector must be sorted in descending order")
    if not is_integer(L) or not 1 <= L <= masses.size:
        raise ValidationError(
            f"target level count L must be an int in 1..{masses.size}, got {L!r}"
        )
    masses = np.clip(masses, 0.0, None)
    total = float(masses.sum())
    if total <= MASS_SLACK:
        raise ValidationError("mass vector has no weight")
    seg = total / L
    if masses.max() > seg + MASS_SLACK:
        raise ValidationError(
            f"flattening impossible: max mass {masses.max():.6g} exceeds "
            f"total/L = {seg:.6g}"
        )
    bounds = np.cumsum(masses)
    # distinct interior breakpoints: mass boundaries folded into one segment
    cuts = [0.0]
    for b in bounds[:-1]:
        off = float(b % seg)
        if off > CUT_FILTER and seg - off > CUT_FILTER:
            cuts.append(off)
    cuts = sorted(set(np.round(cuts, 14)))
    cuts.append(seg)
    steps = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        width = hi - lo
        if width <= CUT_FILTER:
            continue
        mid = 0.5 * (lo + hi)
        chosen = tuple(
            int(np.searchsorted(bounds, k * seg + mid, side="right"))
            for k in range(L)
        )
        if len(set(chosen)) != L or max(chosen) >= masses.size:
            raise VerificationError(
                f"flattening failed: interval at offset {mid:.6g} does not "
                f"select {L} distinct levels (got {chosen})"
            )
        steps.append(FlattenStep(indices=chosen, mass=float(width)))
    return steps

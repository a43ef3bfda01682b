"""One-way LOCC protocols: representation, execution, and the two reusable
sub-protocols (qudit teleportation and flattening of a Schmidt spectrum onto a
maximally entangled target).

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

from .errors import ValidationError, VerificationError
from .numerics import isometry_deviation, tolerance


def max_entangled_vector(d: int) -> np.ndarray:
    """Return the maximally entangled vector (1/sqrt(d)) sum_l |l>|l> in C^{d*d}."""
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / np.sqrt(float(d))
    return vec


def generalized_pauli(d: int, x: int, z: int) -> np.ndarray:
    """Return X^x Z^z on C^d with X|l> = |l+1 mod d> and Z|l> = e^{2 pi i l/d}|l>."""
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    ls = np.arange(d)
    op = np.zeros((d, d), dtype=complex)
    op[(ls + x) % d, ls] = np.exp(2j * np.pi * z * ls / d)
    return op


@dataclass(frozen=True)
class OneWayProtocol:
    """A one-way LOCC protocol from sender A to receiver B.

    Branch ``i`` has the outcome label ``branches[i]``, the sender operator
    ``a_ops[i]`` and the receiver isometry ``b_ops[i]``.  The stacks have
    shapes ``(n, a_out, a_in)`` and ``(n, b_out, b_in)``; ``a_in``/``b_in``
    describe the two input registers, and the sender side may be fully
    measured out (``a_out = 1``).  The protocol keeps a stack it is given as
    a contiguous complex array without copying it (a view is copied) and
    marks it read-only.
    """

    branches: tuple
    a_ops: np.ndarray
    b_ops: np.ndarray
    name: str = ""
    _residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tol = tolerance()
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
        for label, b_op in zip(labels, self.b_ops):
            if not isometry_deviation(b_op) <= 10 * tol:
                raise ValidationError(
                    f"branch {label}: receiver operator is not an isometry"
                )
        residual = isometry_deviation(self.a_ops.reshape(-1, self.a_in_dim))
        if not residual <= 10 * tol:
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


def apply_protocol(protocol: OneWayProtocol, vec: np.ndarray) -> list:
    """Run every branch on ``vec``; return outcomes with probability above tolerance.

    The input vector lives on (spectator x a_in x b_in); the spectator
    dimension is inferred from the vector length.
    """
    tol = tolerance()
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValidationError(f"input vector norm {norm} is not 1")
    a_in, b_in = protocol.a_in_dim, protocol.b_in_dim
    if vec.size % (a_in * b_in) != 0:
        raise ValidationError(
            f"input dimension {vec.size} incompatible with registers {a_in}x{b_in}"
        )
    tensor = vec.reshape(-1, a_in, b_in)
    outcomes = []
    total = 0.0
    for label, a_op, b_op in zip(protocol.branches, protocol.a_ops, protocol.b_ops):
        half = np.einsum("iab,yb->iay", tensor, b_op)
        out = np.einsum("xa,iay->ixy", a_op, half)
        prob = float(np.linalg.norm(out) ** 2)
        total += prob
        if prob > tol:
            outcomes.append(
                BranchOutcome(
                    label=label,
                    probability=prob,
                    state=out.reshape(-1) / np.sqrt(prob),
                )
            )
    if not abs(total - 1.0) <= 10 * tol:
        raise VerificationError(f"branch probabilities sum to {total}, not 1")
    return outcomes


def verify_protocol(
    protocol: OneWayProtocol, vec: np.ndarray, target: np.ndarray
) -> VerificationReport:
    """Check that every branch maps ``vec`` onto ``target`` exactly.

    Each branch output with probability above tolerance is compared with
    ``target`` by the squared overlap ``|<target|out>|^2``, so a global phase
    per branch is allowed.  The protocol passes when every such fidelity is at
    least ``1 - 10 tau`` and its completeness residual is at most ``10 tau``.
    """
    tol = tolerance()
    target = np.asarray(target, dtype=complex).reshape(-1)
    t_norm = np.linalg.norm(target)
    if not abs(t_norm - 1.0) <= 1e-6:
        raise ValidationError(f"target vector norm {t_norm} is not 1")
    outcomes = apply_protocol(protocol, vec)
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
    residual = protocol.completeness_residual()
    passed = min_fid >= 1.0 - 10 * tol and residual <= 10 * tol
    return VerificationReport(
        min_branch_fidelity=min_fid,
        completeness_residual=residual,
        probability_total=total,
        branch_count=len(outcomes),
        passed=passed,
    )


def teleportation_protocol(d: int) -> OneWayProtocol:
    """Teleport a d-level register using a shared maximally entangled pair.

    The sender measures (input x sender-half) in the maximally entangled
    basis indexed by (x, z); the receiver corrects with X^x Z^z.  ``d = 1``
    degenerates to the single trivial branch.
    """
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    labels = [(x, z) for x in range(d) for z in range(d)]
    sigmas = np.array([generalized_pauli(d, x, z) for x, z in labels])
    scale = 1.0 / np.sqrt(float(d))
    a_ops = sigmas.conj().reshape(d * d, 1, d * d) * scale
    return OneWayProtocol(
        branches=labels, a_ops=a_ops, b_ops=sigmas, name=f"teleport[{d}]"
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
    tol = tolerance()
    masses = np.asarray(p, dtype=float)
    if masses.ndim != 1 or masses.size == 0:
        raise ValidationError("mass vector must be a nonempty 1-d sequence")
    if np.any(masses < -tol):
        raise ValidationError("mass vector has negative entries")
    if np.any(np.diff(masses) > tol):
        raise ValidationError("mass vector must be sorted in descending order")
    if L < 1 or L > masses.size:
        raise ValidationError(f"target level count {L} out of range 1..{masses.size}")
    masses = np.clip(masses, 0.0, None)
    total = float(masses.sum())
    if total <= tol:
        raise ValidationError("mass vector has no weight")
    seg = total / L
    if masses.max() > seg + tol:
        raise ValidationError(
            f"flattening impossible: max mass {masses.max():.6g} exceeds "
            f"total/L = {seg:.6g}"
        )
    bounds = np.cumsum(masses)
    # distinct interior breakpoints: mass boundaries folded into one segment
    cuts = [0.0]
    for b in bounds[:-1]:
        off = float(b % seg)
        if off > 1e-12 and seg - off > 1e-12:
            cuts.append(off)
    cuts = sorted(set(np.round(cuts, 14)))
    cuts.append(seg)
    steps = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        width = hi - lo
        if width <= 1e-12:
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


def flatten_to_uniform(p: Sequence[float], L: int) -> OneWayProtocol:
    """Convert the pure state with Schmidt vector ``p`` into a maximally
    entangled L-level pair, exactly in every branch.

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

"""Approximate merging: smoothing-candidate verification and ensemble certificates.

An exact protocol built for a nearby state ``candidate`` also merges the
true state up to an error controlled by their fidelity: if the candidate
lies in the ``epsilon/2`` ball (purified distance), the channel-level output
fidelity is at least ``1 - epsilon**2``.  :func:`verify_approximate_merge`
runs that chain end to end; :func:`check_ensemble_certificate` tests the
matching converse condition (averaged-spectra majorization plus fidelity);
:func:`best_smoothing_candidate` is a clearly-labelled heuristic that tries
seeded random candidates inside the ball and keeps the cheapest verified one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import SolverError, ValidationError, VerificationError
from .locc import apply_protocol
from .ki import KIDecomposition, ki_decompose
from .merge import (
    DEFAULT_DELTA,
    achievable_cost,
    build_merge_protocol,
    check_delta,
    merge_target_vector,
)
from .numerics import COST_TIE, FIDELITY_LOSS, NORM_SLACK, PARALLEL_DROP, WEIGHT_SLACK
from .numerics import is_integer, majorization_check
from .statespace import TripartiteState


@dataclasses.dataclass(frozen=True)
class SmoothingCertificate:
    """Record of one verified approximate-merge run.

    ``input_fidelity_sq`` is the squared fidelity between the true state and
    the candidate (must be at least ``1 - (epsilon/2)**2``);
    ``output_fidelity_sq`` is the channel-level squared fidelity between the
    protocol output mixture and the true target, certified to be at least
    ``1 - epsilon**2``.
    """

    candidate: TripartiteState
    epsilon: float
    input_fidelity_sq: float
    mode: str
    K: int
    L: int
    cost_bits: float
    output_fidelity_sq: float


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 <= epsilon <= 1.0:  # above 1 the bound 1 - epsilon^2 says nothing
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")


def verify_approximate_merge(
    state: TripartiteState,
    candidate: TripartiteState,
    epsilon: float,
    mode: str = "noncatalytic",
    delta: float = DEFAULT_DELTA,
    decomp: KIDecomposition | None = None,
) -> SmoothingCertificate:
    """Merge ``state`` approximately using the exact protocol of ``candidate``.

    Requires ``F^2(state, candidate) >= 1 - (epsilon/2)**2`` (the candidate
    must sit inside the ``epsilon/2`` purified-distance ball); builds the
    exact protocol for the candidate, applies it to the true state with the
    candidate's rank-K resource pair, and checks that the output-mixture
    fidelity to the true target is at least ``1 - epsilon**2``, which the
    triangle inequality for the purified distance guarantees.  ``decomp``,
    if given, is the candidate's KI decomposition.
    """
    if state.dims != candidate.dims:
        raise ValidationError(
            f"candidate dimensions {candidate.dims} differ from state {state.dims}"
        )
    _check_epsilon(epsilon)
    f2_in = abs(state.overlap(candidate)) ** 2
    if f2_in < 1.0 - (epsilon / 2.0) ** 2 - FIDELITY_LOSS:
        raise ValidationError(
            f"candidate fidelity^2 {f2_in:.6f} is below the required "
            f"1 - (epsilon/2)^2 = {1.0 - (epsilon / 2.0) ** 2:.6f}"
        )
    build = build_merge_protocol(candidate, decomp, mode=mode, delta=delta)
    K, L = build.report.K, build.report.L
    target = merge_target_vector(state, L)
    f2_out = 0.0
    for outcome in apply_protocol(build.protocol, state.amplitudes, K):
        f2_out += outcome.probability * abs(np.vdot(target, outcome.state)) ** 2
    if f2_out < 1.0 - epsilon**2 - FIDELITY_LOSS:
        raise VerificationError(
            f"output fidelity^2 {f2_out:.8f} fell below 1 - epsilon^2 "
            f"= {1.0 - epsilon ** 2:.8f}"
        )
    return SmoothingCertificate(
        candidate=candidate,
        epsilon=float(epsilon),
        input_fidelity_sq=float(f2_in),
        mode=mode,
        K=K,
        L=L,
        cost_bits=build.report.cost_bits,
        output_fidelity_sq=float(f2_out),
    )


@dataclasses.dataclass(frozen=True)
class EnsembleCertificate:
    """Converse-side certificate for approximate merging.

    ``members`` are pure-state vectors in the register order of a merge
    branch output and of :func:`~qsm.merge.merge_target_vector`: spectator,
    returned-resource sender half, moved content, receiver, returned-resource
    receiver half, with dimensions ``(dim_R, L, dim_A, dim_B, L)``;
    ``weights`` their probabilities, ``K``/``L`` the resource ranks, and
    ``epsilon`` the allowed error.
    """

    weights: tuple
    members: tuple
    K: int
    L: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(
            self,
            "members",
            tuple(np.asarray(m, dtype=complex).reshape(-1) for m in self.members),
        )


def _validate_certificate(state: TripartiteState, cert: EnsembleCertificate) -> None:
    if not all(is_integer(rank) and rank >= 1 for rank in (cert.K, cert.L)):
        raise ValidationError(
            f"certificate resource ranks must be integers >= 1, got K={cert.K!r}, L={cert.L!r}"
        )
    _check_epsilon(cert.epsilon)
    if not cert.members or len(cert.weights) != len(cert.members):
        raise ValidationError("certificate needs matching weights and members")
    if not all(w >= -WEIGHT_SLACK for w in cert.weights):
        raise ValidationError(f"certificate weights must be nonnegative, got {cert.weights}")
    if not abs(sum(cert.weights) - 1.0) <= NORM_SLACK:
        raise ValidationError("certificate weights must sum to 1")
    dim_r, dim_a, dim_b = state.dims
    expected = dim_r * cert.L * dim_a * dim_b * cert.L
    for member in cert.members:
        if member.size != expected:
            raise ValidationError(
                f"certificate member dimension {member.size} does not match "
                f"(dim_R, L, dim_A, dim_B, L) = "
                f"({dim_r}, {cert.L}, {dim_a}, {dim_b}, {cert.L})"
            )
        if not abs(np.linalg.norm(member) - 1.0) <= NORM_SLACK:
            raise ValidationError("certificate members must be normalized")


def check_ensemble_certificate(state: TripartiteState, cert: EnsembleCertificate) -> bool:
    """Whether the ensemble meets the approximate-converse conditions.

    True iff (a) the spectrum of ``psi^B (x) 1_K/K`` is majorized by the
    weighted sum of the members' receiver-side spectra, and (b) the averaged
    squared fidelity of the members to the true target is at least
    ``1 - epsilon**2``; at ``epsilon = 0`` with the singleton exact-target
    ensemble this reduces to the exact uniform-resource spectra test.
    """
    _validate_certificate(state, cert)
    dim_r, dim_a, dim_b = state.dims
    L = cert.L

    eig_b = np.clip(np.linalg.eigvalsh(state.marginal("B"))[::-1], 0.0, None)
    y = np.zeros(dim_a * dim_b * L)
    for weight, member in zip(cert.weights, cert.members):
        tensor = member.reshape(dim_r, L, dim_a, dim_b, L)
        mat = tensor.transpose(2, 3, 4, 0, 1).reshape(dim_a * dim_b * L, dim_r * L)
        rho = mat @ mat.conj().T
        spec = np.clip(np.linalg.eigvalsh(rho)[::-1].real, 0.0, None)
        y += weight * spec
    majorized = majorization_check(eig_b, cert.K, y, 1)

    target = merge_target_vector(state, L)
    f2 = sum(
        weight * abs(np.vdot(target, member)) ** 2
        for weight, member in zip(cert.weights, cert.members)
    )
    return bool(majorized and f2 >= 1.0 - cert.epsilon**2 - FIDELITY_LOSS)


def best_smoothing_candidate(
    state: TripartiteState,
    epsilon: float,
    mode: str = "noncatalytic",
    delta: float = DEFAULT_DELTA,
    candidates: int = 32,
    seed: int = 0,
) -> SmoothingCertificate:
    """Heuristic search for a cheap candidate inside the ``epsilon/2`` ball.

    Tries the state itself plus ``candidates`` seeded random in-ball
    rotations (a random direction parallel to the state is redrawn; a state
    with a single amplitude has no other direction and is tried alone) and
    returns the verified certificate with the lowest cost (ties broken by
    output fidelity).  Each candidate is priced first from
    its KI decomposition; one dearer than the incumbent by more than ``COST_TIE``
    bits cannot win and is never built, so only its output-fidelity check is
    skipped, which the triangle inequality guarantees inside the ball.  The
    rest, cost ties included, are built and verified end to end.  This is a
    best-effort heuristic: the true infimum over the ball is not computed,
    and the block structure of nearby states can change discontinuously.
    """
    _check_epsilon(epsilon)
    check_delta(delta)
    for name, value in (("candidate count", candidates), ("heuristic seed", seed)):
        if not is_integer(value):
            raise ValidationError(f"{name} must be an int, got {value!r}")
        if value < 0:
            raise ValidationError(f"{name} must be nonnegative, got {value}")
    best: SmoothingCertificate | None = None
    failures: list[str] = []

    def consider(cand: TripartiteState) -> None:
        nonlocal best
        try:
            decomp = ki_decompose(cand)
            cost = achievable_cost(decomp, mode=mode, delta=delta).cost_bits
            if best is not None and cost > best.cost_bits + COST_TIE:
                return
            cert = verify_approximate_merge(state, cand, epsilon, mode, delta, decomp)
        except (SolverError, ValidationError) as exc:
            failures.append(str(exc))
            return
        # not dearer than the incumbent, so either cheaper or a cost tie
        if (
            best is None
            or cert.cost_bits < best.cost_bits - COST_TIE
            or cert.output_fidelity_sq > best.output_fidelity_sq
        ):
            best = cert

    consider(state)
    theta_max = math.acos(math.sqrt(max(0.0, 1.0 - (epsilon / 2.0) ** 2))) * 0.999
    rng = np.random.default_rng(seed)
    vec = state.vector
    # a single amplitude leaves no direction off the state to rotate towards
    for _ in range(candidates if theta_max > 0.0 and vec.size > 1 else 0):
        norm = 0.0
        while norm <= PARALLEL_DROP:  # redraw a perturbation parallel to the state
            g = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
            g = g - np.vdot(vec, g) * vec
            norm = np.linalg.norm(g)
        theta = theta_max * float(rng.uniform(0.0, 1.0))
        cand_vec = math.cos(theta) * vec + math.sin(theta) * (g / norm)
        consider(
            TripartiteState(
                cand_vec.reshape(state.dims),
                name=f"{state.name}_smoothed" if state.name else "smoothed",
            )
        )
    if best is None:
        raise SolverError(
            "no smoothing candidate produced a buildable protocol; "
            f"last failure: {failures[-1] if failures else 'none attempted'}"
        )
    return best

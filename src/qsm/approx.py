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
from .merge import (
    build_merge_protocol,
    check_delta,
    merge_input_vector,
    merge_target_vector,
)
from .numerics import majorization_check, tolerance
from .statespace import TripartiteState

__all__ = [
    "EnsembleCertificate",
    "SmoothingCertificate",
    "best_smoothing_candidate",
    "check_ensemble_certificate",
    "verify_approximate_merge",
]


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
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValidationError(f"epsilon must be nonnegative and finite, got {epsilon}")


def verify_approximate_merge(
    state: TripartiteState,
    candidate: TripartiteState,
    epsilon: float,
    mode: str = "noncatalytic",
    delta: float = 1e-6,
) -> SmoothingCertificate:
    """Merge ``state`` approximately using the exact protocol of ``candidate``.

    Requires ``F^2(state, candidate) >= 1 - (epsilon/2)**2`` (the candidate
    must sit inside the ``epsilon/2`` purified-distance ball); builds the
    exact protocol for the candidate, applies it to the true state, and
    checks that the output-mixture fidelity to the true target is at least
    ``1 - epsilon**2``, which the triangle inequality for the purified
    distance guarantees.
    """
    if state.dims != candidate.dims:
        raise ValidationError(
            f"candidate dimensions {candidate.dims} differ from state {state.dims}"
        )
    _check_epsilon(epsilon)
    tol = tolerance()
    f2_in = abs(state.overlap(candidate)) ** 2
    if f2_in < 1.0 - (epsilon / 2.0) ** 2 - 10.0 * tol:
        raise ValidationError(
            f"candidate fidelity^2 {f2_in:.6f} is below the required "
            f"1 - (epsilon/2)^2 = {1.0 - (epsilon / 2.0) ** 2:.6f}"
        )
    build = build_merge_protocol(candidate, mode=mode, delta=delta)
    K, L = build.report.K, build.report.L
    target = merge_target_vector(state, L)
    f2_out = 0.0
    for outcome in apply_protocol(build.protocol, merge_input_vector(state, K)):
        f2_out += outcome.probability * abs(np.vdot(target, outcome.state)) ** 2
    if f2_out < 1.0 - epsilon**2 - 10.0 * tol:
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

    ``members`` are pure-state vectors on registers (spectator, moved
    content, receiver, returned-resource sender half, returned-resource
    receiver half) with dimensions ``(dim_R, dim_A, dim_B, L, L)``;
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
    if cert.K < 1 or cert.L < 1:
        raise ValidationError("certificate resource ranks must be >= 1")
    _check_epsilon(cert.epsilon)
    if not cert.members or len(cert.weights) != len(cert.members):
        raise ValidationError("certificate needs matching weights and members")
    if not all(w >= -1e-12 for w in cert.weights):
        raise ValidationError(f"certificate weights must be nonnegative, got {cert.weights}")
    if not abs(sum(cert.weights) - 1.0) <= 1e-6:
        raise ValidationError("certificate weights must sum to 1")
    dim_r, dim_a, dim_b = state.dims
    expected = dim_r * dim_a * dim_b * cert.L * cert.L
    for member in cert.members:
        if member.size != expected:
            raise ValidationError(
                f"certificate member dimension {member.size} does not match "
                f"(dim_R, dim_A, dim_B, L, L) = "
                f"({dim_r}, {dim_a}, {dim_b}, {cert.L}, {cert.L})"
            )
        if not abs(np.linalg.norm(member) - 1.0) <= 1e-6:
            raise ValidationError("certificate members must be normalized")


def _certificate_target(state: TripartiteState, L: int) -> np.ndarray:
    """True target in certificate layout: the state moved, plus the rank-L pair."""
    dim_r, dim_a, dim_b = state.dims
    out = np.zeros((dim_r, dim_a, dim_b, L, L), dtype=complex)
    for l in range(L):
        out[:, :, :, l, l] = state.amplitudes / math.sqrt(float(L))
    return out.reshape(-1)


def check_ensemble_certificate(state: TripartiteState, cert: EnsembleCertificate) -> bool:
    """Whether the ensemble meets the approximate-converse conditions.

    True iff (a) the spectrum of ``psi^B (x) 1_K/K`` is majorized by the
    weighted sum of the members' receiver-side spectra, and (b) the averaged
    squared fidelity of the members to the true target is at least
    ``1 - epsilon**2``; at ``epsilon = 0`` with the singleton exact-target
    ensemble this reduces to the exact uniform-resource spectra test.
    """
    _validate_certificate(state, cert)
    tol = tolerance()
    dim_r, dim_a, dim_b = state.dims
    L = cert.L

    eig_b = np.clip(np.linalg.eigvalsh(state.marginal("B"))[::-1], 0.0, None)
    x = np.repeat(eig_b / cert.K, cert.K)
    y = np.zeros(dim_a * dim_b * L)
    for weight, member in zip(cert.weights, cert.members):
        tensor = member.reshape(dim_r, dim_a, dim_b, L, L)
        mat = tensor.transpose(1, 2, 4, 0, 3).reshape(dim_a * dim_b * L, dim_r * L)
        rho = mat @ mat.conj().T
        spec = np.clip(np.linalg.eigvalsh(rho)[::-1].real, 0.0, None)
        y += weight * spec
    majorized = majorization_check(x, y, tol)

    target = _certificate_target(state, L)
    f2 = sum(
        weight * abs(np.vdot(target, member)) ** 2
        for weight, member in zip(cert.weights, cert.members)
    )
    return bool(majorized and f2 >= 1.0 - cert.epsilon**2 - 10.0 * tol)


def best_smoothing_candidate(
    state: TripartiteState,
    epsilon: float,
    mode: str = "noncatalytic",
    delta: float = 1e-6,
    candidates: int = 32,
    seed: int = 0,
) -> SmoothingCertificate:
    """Heuristic search for a cheap candidate inside the ``epsilon/2`` ball.

    Tries the state itself plus ``candidates`` seeded random in-ball
    rotations, verifies each end to end, and returns the certificate with
    the lowest cost (ties broken by output fidelity).  This is a best-effort
    heuristic: the true infimum over the ball is not computed, and the block
    structure of nearby states can change discontinuously.
    """
    _check_epsilon(epsilon)
    check_delta(delta)
    if candidates < 0:
        raise ValidationError(f"candidate count must be nonnegative, got {candidates}")
    best: SmoothingCertificate | None = None
    failures: list[str] = []

    def consider(cand: TripartiteState) -> None:
        nonlocal best
        try:
            cert = verify_approximate_merge(state, cand, epsilon, mode=mode, delta=delta)
        except (SolverError, ValidationError) as exc:
            failures.append(str(exc))
            return
        if (
            best is None
            or cert.cost_bits < best.cost_bits - 1e-12
            or (
                abs(cert.cost_bits - best.cost_bits) <= 1e-12
                and cert.output_fidelity_sq > best.output_fidelity_sq
            )
        ):
            best = cert

    consider(state)
    theta_max = math.acos(math.sqrt(max(0.0, 1.0 - (epsilon / 2.0) ** 2))) * 0.999
    rng = np.random.default_rng(seed)
    vec = state.vector
    for _ in range(candidates):
        if theta_max <= 0.0:
            break
        g = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
        g = g - np.vdot(vec, g) * vec
        norm = np.linalg.norm(g)
        if norm <= tolerance():
            continue
        theta = theta_max * float(rng.uniform(0.0, 1.0))
        cand_vec = math.cos(theta) * vec + math.sin(theta) * (g / norm)
        consider(
            TripartiteState(
                regs=state.regs,
                amplitudes=cand_vec.reshape(state.dims),
                name=f"{state.name}_smoothed" if state.name else "smoothed",
            )
        )
    if best is None:
        raise SolverError(
            "no smoothing candidate produced a buildable protocol; "
            f"last failure: {failures[-1] if failures else 'none attempted'}"
        )
    return best

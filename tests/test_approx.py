"""Tests for approximate merging: smoothing chain and ensemble certificates."""

import math

import numpy as np
import pytest

from qsm.approx import (
    EnsembleCertificate,
    best_smoothing_candidate,
    check_ensemble_certificate,
    verify_approximate_merge,
)
from qsm.errors import ValidationError
from qsm.locc import apply_protocol
from qsm.merge import build_merge_protocol, merge_input_vector
from qsm.statespace import TripartiteState, catalog, random_state

from helpers import uniform_resource_majorization


def ensemble_from_merge_outcomes(
    state: TripartiteState, outcomes, K: int, L: int, epsilon: float
) -> EnsembleCertificate:
    """Package protocol branch outputs as an ensemble certificate.

    Branch outputs live on (spectator; sender resource part; moved content,
    receiver, receiver resource part); they are reordered into the
    certificate layout with the two resource registers last.
    """
    dim_r, dim_a, dim_b = state.dims
    weights = []
    members = []
    for outcome in outcomes:
        tensor = outcome.state.reshape(dim_r, L, dim_a, dim_b, L)
        members.append(tensor.transpose(0, 2, 3, 1, 4).reshape(-1))
        weights.append(outcome.probability)
    return EnsembleCertificate(
        weights=tuple(weights),
        members=tuple(members),
        K=K,
        L=L,
        epsilon=epsilon,
    )


def _in_ball_rotation(state, epsilon, rng, fraction=0.999):
    """Candidate at purified distance just inside epsilon/2 from the state."""
    vec = state.vector
    g = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    g = g - np.vdot(vec, g) * vec
    g = g / np.linalg.norm(g)
    theta = math.acos(math.sqrt(1.0 - (epsilon / 2.0) ** 2)) * fraction
    cand = math.cos(theta) * vec + math.sin(theta) * g
    return TripartiteState(state.regs, cand.reshape(state.dims))


def _singleton_target(state, L):
    amps = state.amplitudes
    out = np.zeros((*state.dims, L, L), dtype=complex)
    for l in range(L):
        out[:, :, :, l, l] = amps / math.sqrt(float(L))
    return out.reshape(-1)


# --------------------------------------------------------------------------
# smoothing chain


def test_exact_candidate_epsilon_zero():
    for state in (catalog("implication3"), catalog("ghz", d=2)):
        cert = verify_approximate_merge(state, state, 0.0)
        assert cert.input_fidelity_sq == pytest.approx(1.0, abs=1e-12)
        assert cert.output_fidelity_sq >= 1.0 - 1e-8
        assert cert.epsilon == 0.0


def test_rotated_candidate_within_ball():
    state = catalog("implication3")
    rng = np.random.default_rng(1)
    eps = 0.1
    cand = _in_ball_rotation(state, eps, rng)
    cert = verify_approximate_merge(state, cand, eps)
    assert cert.input_fidelity_sq >= 1.0 - (eps / 2.0) ** 2 - 1e-9
    assert cert.output_fidelity_sq >= 1.0 - eps**2


def test_candidate_outside_ball_rejected():
    state = catalog("implication3")
    rng = np.random.default_rng(2)
    eps = 0.1
    vec = state.vector
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    g = g - np.vdot(vec, g) * vec
    g = g / np.linalg.norm(g)
    theta = math.acos(math.sqrt(1.0 - eps**2))  # fidelity^2 = 1 - eps^2
    bad = TripartiteState(
        state.regs, (math.cos(theta) * vec + math.sin(theta) * g).reshape(state.dims)
    )
    with pytest.raises(ValidationError):
        verify_approximate_merge(state, bad, eps)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        verify_approximate_merge(catalog("ghz", d=2), catalog("ghz", d=3), 0.1)


def test_smoothing_reduces_cost_for_perturbed_ghz3():
    # true state: slightly rotated GHZ3; candidate: the exact GHZ3, whose
    # protocol needs no resource at all — cost drops from log2 3 to 0 while
    # the output infidelity stays below eps^2 (and is genuinely nonzero)
    ghz = catalog("ghz", d=3)
    rng = np.random.default_rng(4)
    eps = 0.2
    perturbed = _in_ball_rotation(ghz, eps, rng, fraction=0.98)
    cert = verify_approximate_merge(perturbed, ghz, eps)
    assert cert.cost_bits == 0.0
    assert cert.K == 1
    infid = 1.0 - cert.output_fidelity_sq
    assert 0.0 < infid <= eps**2
    exact = verify_approximate_merge(perturbed, perturbed, 0.0)
    assert exact.cost_bits >= 1.0  # the unsmoothed protocol is strictly dearer


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_infidelity_bound_property(eps):
    state = catalog("implication3")
    rng = np.random.default_rng(int(eps * 1000))
    for _ in range(8):
        cand = _in_ball_rotation(state, eps, rng, fraction=float(rng.uniform(0.2, 0.999)))
        cert = verify_approximate_merge(state, cand, eps)
        assert 1.0 - cert.output_fidelity_sq <= eps**2 + 1e-9


# --------------------------------------------------------------------------
# ensemble certificates


def test_singleton_certificate_reduces_to_exact_condition():
    rng = np.random.default_rng(12)
    for _ in range(50):
        state = random_state(rng, (2, 2, 2))
        K = int(rng.integers(1, 6))
        L = int(rng.integers(1, 4))
        singleton = EnsembleCertificate(
            (1.0,), (_singleton_target(state, L),), K, L, 0.0
        )
        got = check_ensemble_certificate(state, singleton)
        eig_b = np.clip(np.linalg.eigvalsh(state.marginal("B"))[::-1], 0.0, None)
        eig_ab = np.clip(np.linalg.eigvalsh(state.marginal("AB"))[::-1], 0.0, None)
        assert got == uniform_resource_majorization(eig_b, eig_ab, K, L)


def test_certificate_from_exact_merge_run():
    state = catalog("implication3")
    build = build_merge_protocol(state, mode="noncatalytic")
    outcomes = apply_protocol(build.protocol, merge_input_vector(state, build.report.K))
    cert = ensemble_from_merge_outcomes(
        state, outcomes, build.report.K, build.report.L, 0.0
    )
    assert check_ensemble_certificate(state, cert)
    # decrementing K below the exact converse breaks the spectra prefix
    smaller = EnsembleCertificate(
        cert.weights, cert.members, cert.K - 1, cert.L, 0.0
    )
    assert not check_ensemble_certificate(state, smaller)


def test_certificate_validation():
    state = catalog("ghz", d=2)
    member = _singleton_target(state, 1)
    with pytest.raises(ValidationError):
        check_ensemble_certificate(
            state, EnsembleCertificate((0.5,), (member,), 1, 1, 0.0)
        )  # weights do not sum to 1
    with pytest.raises(ValidationError):
        check_ensemble_certificate(
            state, EnsembleCertificate((1.0,), (member[:-1],), 1, 1, 0.0)
        )  # wrong member dimension
    with pytest.raises(ValidationError):
        check_ensemble_certificate(
            state, EnsembleCertificate((1.0,), (2.0 * member,), 1, 1, 0.0)
        )  # member not normalized
    with pytest.raises(ValidationError):
        check_ensemble_certificate(
            state, EnsembleCertificate((1.0,), (member,), 0, 1, 0.0)
        )  # K < 1


@pytest.mark.parametrize(
    "weight, member_scale, epsilon, field",
    [
        (math.nan, 1.0, 0.0, "weights"),
        (1.0, 1.0, math.nan, "epsilon"),
        (1.0, 1.0, math.inf, "epsilon"),
        (1.0, math.nan, 0.0, "members"),
    ],
    ids=["nan-weight", "nan-epsilon", "inf-epsilon", "nan-member"],
)
def test_certificate_rejects_non_finite_fields(weight, member_scale, epsilon, field):
    state = catalog("ghz", d=2)
    member = _singleton_target(state, 1) * member_scale
    cert = EnsembleCertificate((weight,), (member,), 1, 1, epsilon)
    with pytest.raises(ValidationError, match=field):
        check_ensemble_certificate(state, cert)


# --------------------------------------------------------------------------
# heuristic search


def test_best_smoothing_includes_exact_baseline():
    state = catalog("implication3")
    cert = best_smoothing_candidate(state, 0.2, candidates=16, seed=5)
    exact = verify_approximate_merge(state, state, 0.0)
    assert cert.cost_bits <= exact.cost_bits + 1e-12
    assert cert.output_fidelity_sq >= 1.0 - 0.2**2


def test_best_smoothing_deterministic():
    state = catalog("implication3")
    a = best_smoothing_candidate(state, 0.2, candidates=16, seed=5)
    b = best_smoothing_candidate(state, 0.2, candidates=16, seed=5)
    assert a.cost_bits == b.cost_bits
    assert a.output_fidelity_sq == b.output_fidelity_sq
    assert np.array_equal(a.candidate.vector, b.candidate.vector)


def test_best_smoothing_epsilon_zero_is_exact():
    state = catalog("ghz", d=2)
    cert = best_smoothing_candidate(state, 0.0, candidates=8, seed=3)
    assert cert.input_fidelity_sq == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(cert.candidate.vector, state.vector)

"""Tests for approximate merging: smoothing chain and ensemble certificates."""

import math
import re

import numpy as np
import pytest

from qsm.approx import (
    EnsembleCertificate,
    best_smoothing_candidate,
    check_ensemble_certificate,
    verify_approximate_merge,
)
from qsm import approx, locc, merge
from qsm.errors import SolverError, ValidationError
from qsm.locc import apply_protocol, verify_protocol
from qsm.merge import build_merge_protocol, merge_target_vector
from qsm.statespace import CATALOG_NAMES, TripartiteState, catalog, random_state

from helpers import uniform_resource_majorization


def ensemble_from_merge_outcomes(outcomes, K: int, L: int, epsilon: float) -> EnsembleCertificate:
    """Package protocol branch outputs, as they stand, as an ensemble certificate."""
    return EnsembleCertificate(
        weights=tuple(outcome.probability for outcome in outcomes),
        members=tuple(outcome.state for outcome in outcomes),
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
    return TripartiteState(cand.reshape(state.dims))


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
        (math.cos(theta) * vec + math.sin(theta) * g).reshape(state.dims)
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
            (1.0,), (merge_target_vector(state, L),), K, L, 0.0
        )
        got = check_ensemble_certificate(state, singleton)
        eig_b = np.clip(np.linalg.eigvalsh(state.marginal("B"))[::-1], 0.0, None)
        eig_ab = np.clip(np.linalg.eigvalsh(state.marginal("AB"))[::-1], 0.0, None)
        assert got == uniform_resource_majorization(eig_b, eig_ab, K, L)


def test_certificate_from_exact_merge_run():
    state = catalog("implication3")
    build = build_merge_protocol(state, mode="noncatalytic")
    outcomes = apply_protocol(build.protocol, state.amplitudes, build.report.K)
    cert = ensemble_from_merge_outcomes(outcomes, build.report.K, build.report.L, 0.0)
    assert check_ensemble_certificate(state, cert)
    # decrementing K below the exact converse breaks the spectra prefix
    smaller = EnsembleCertificate(
        cert.weights, cert.members, cert.K - 1, cert.L, 0.0
    )
    assert not check_ensemble_certificate(state, smaller)


@pytest.mark.parametrize("mode", ["catalytic", "noncatalytic"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_merge_outputs_form_a_certificate_as_they_stand(name, mode):
    """The live outputs of a verified merge run, weighted by their
    probabilities, are an exact (epsilon = 0) certificate in the register
    order the protocol leaves them in."""
    state = catalog(name, d=3 if name == "ghz" else None)
    build = build_merge_protocol(state, mode=mode)
    K, L = build.report.K, build.report.L
    outcomes = apply_protocol(build.protocol, state.amplitudes, K)
    assert verify_protocol(build.protocol, outcomes, merge_target_vector(state, L)).passed
    cert = ensemble_from_merge_outcomes(outcomes, K, L, 0.0)
    assert check_ensemble_certificate(state, cert)


def test_certificate_validation():
    state = catalog("ghz", d=2)
    member = merge_target_vector(state, 1)
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
    member = merge_target_vector(state, 1) * member_scale
    cert = EnsembleCertificate((weight,), (member,), 1, 1, epsilon)
    with pytest.raises(ValidationError, match=field):
        check_ensemble_certificate(state, cert)


@pytest.mark.parametrize(
    "K, L, shown",
    [(2.5, 1, "K=2.5"), (True, 1, "K=True"), (1, 1.0, "L=1.0"), (np.float64(2), 1, "K=np.float64(2.0)")],
    ids=["K-fraction", "K-bool", "L-integral-float", "K-numpy-float"],
)
def test_certificate_rejects_non_integer_ranks(K, L, shown):
    state = catalog("ghz", d=2)
    cert = EnsembleCertificate((1.0,), (merge_target_vector(state, 1),), K, L, 0.0)
    with pytest.raises(ValidationError, match=re.escape(shown)):
        check_ensemble_certificate(state, cert)
    ok = EnsembleCertificate((1.0,), (merge_target_vector(state, 1),), np.int64(2), 1, 0.0)
    assert check_ensemble_certificate(state, ok)


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


def test_best_smoothing_skips_over_budget_candidates(monkeypatch):
    """A candidate whose protocol is over the byte budget is skipped like any
    solver failure; with every candidate over it, the search names the count."""
    monkeypatch.setattr(locc, "PROTOCOL_BYTE_BUDGET", 1024)
    with pytest.raises(SolverError, match=r"last failure: protocol of \d+ branches.* "
                       r"need \d+ bytes, over the budget of 1024 bytes"):
        best_smoothing_candidate(catalog("implication3"), 0.2, candidates=4, seed=5)


def _spy_builds_and_ki(monkeypatch) -> dict:
    """Count protocol builds and KI decompositions made through the search."""
    calls = {"build": 0, "ki": 0}

    def spy(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(approx, "build_merge_protocol", "build")
    spy(approx, "ki_decompose", "ki")
    spy(merge, "ki_decompose", "ki")  # reached only if a build gets no decomposition
    return calls


def test_best_smoothing_never_builds_a_dearer_candidate(monkeypatch):
    """implication2 costs 0 bits and both its K = 12 candidates log2(12):
    each is priced by one KI decomposition and none is built."""
    calls = _spy_builds_and_ki(monkeypatch)
    cert = best_smoothing_candidate(catalog("implication2"), 0.1, candidates=2, seed=0)
    assert calls == {"build": 1, "ki": 3}
    assert cert.cost_bits == 0.0
    assert cert.candidate.name == "implication2"


def test_best_smoothing_builds_every_cost_tie(monkeypatch):
    """Every candidate of a generic (2,3,2) state ties the state on cost, so
    each is built: the output-fidelity tie-break needs them all."""
    state = random_state(np.random.default_rng(7), (2, 3, 2))
    calls = _spy_builds_and_ki(monkeypatch)
    costs = []
    original = approx.verify_approximate_merge

    def record(*args, **kwargs):
        cert = original(*args, **kwargs)
        costs.append(cert.cost_bits)
        return cert

    monkeypatch.setattr(approx, "verify_approximate_merge", record)
    best_smoothing_candidate(state, 0.05, candidates=4, seed=0)
    assert calls == {"build": 5, "ki": 5}
    assert len(set(costs)) == 1


def test_best_smoothing_without_candidates_builds_the_state_once(monkeypatch):
    calls = _spy_builds_and_ki(monkeypatch)
    cert = best_smoothing_candidate(catalog("implication3"), 0.1, candidates=0)
    assert calls == {"build": 1, "ki": 1}
    assert cert.candidate.name == "implication3"


def test_best_smoothing_prunes_nothing_without_an_incumbent(monkeypatch):
    """While every build fails there is no incumbent to compare with, so every
    candidate is built, and the search ends in its ``SolverError``."""
    monkeypatch.setattr(locc, "PROTOCOL_BYTE_BUDGET", 1024)
    calls = _spy_builds_and_ki(monkeypatch)
    with pytest.raises(SolverError, match="no smoothing candidate produced"):
        best_smoothing_candidate(catalog("implication3"), 0.2, candidates=4, seed=5)
    assert calls == {"build": 5, "ki": 5}


def test_best_smoothing_redraws_a_perturbation_parallel_to_the_state(monkeypatch):
    """The state and the first perturbation come from the same seed, so that
    draw is the state's own direction; it is redrawn, and all 4 candidates
    are priced after the state."""
    state = random_state(np.random.default_rng(0), (2, 3, 2))
    calls = _spy_builds_and_ki(monkeypatch)
    best_smoothing_candidate(state, 0.05, candidates=4, seed=0)
    assert calls["ki"] == 5


def test_best_smoothing_of_a_single_amplitude_tries_the_state_alone(monkeypatch):
    """Every perturbation of a single amplitude is parallel to it, so there
    is nothing to redraw towards: the search returns with the state."""
    state = TripartiteState(np.ones((1, 1, 1), dtype=complex), name="one")
    calls = _spy_builds_and_ki(monkeypatch)
    cert = best_smoothing_candidate(state, 0.1, candidates=4, seed=0)
    assert calls == {"build": 1, "ki": 1}
    assert cert.candidate.name == "one"

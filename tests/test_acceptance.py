"""Acceptance suite: ten end-to-end criteria across the whole library.

Each criterion is one test, so ``pytest -v`` emits one pass/fail line per
criterion.  Tolerances are stated inline; seeds are fixed so reruns are
bit-identical.
"""

import math

import numpy as np
import pytest

from qsm.approx import (
    EnsembleCertificate,
    check_ensemble_certificate,
    verify_approximate_merge,
)
from qsm.bounds import (
    converse_search,
    converse_simple,
    h_max_conditional,
    qutrit_counterexample_report,
)
from qsm.errors import ValidationError
from qsm.ki import ki_decompose
from qsm.locc import (
    apply_protocol,
    flatten_to_uniform,
    verify_protocol,
)
from qsm.merge import (
    achievable_cost,
    build_merge_protocol,
    merge_input_vector,
    merge_target_vector,
    qubit_optimal_merge,
    verify_merge,
)
from qsm.split import rank_monotonicity_witness, split_cost, verify_split
from qsm.statespace import (
    Registers,
    TripartiteState,
    catalog,
    max_entangled_counterpart,
    random_state,
)

from helpers import (
    flatten_source_vector,
    flatten_target_vector,
    projector,
    sample_schmidt_span_member,
    uniform_resource_majorization,
)


def _in_ball_rotation(state, epsilon, rng, fraction=0.999):
    """State at purified distance just inside epsilon/2 of the input."""
    vec = state.vector
    g = rng.normal(size=vec.size) + 1j * rng.normal(size=vec.size)
    g = g - np.vdot(vec, g) * vec
    g = g / np.linalg.norm(g)
    theta = math.acos(math.sqrt(1.0 - (epsilon / 2.0) ** 2)) * fraction
    rotated = math.cos(theta) * vec + math.sin(theta) * g
    return TripartiteState(state.regs, rotated.reshape(state.dims))


def _singleton_member(state, L):
    amps = state.amplitudes
    out = np.zeros((*state.dims, L, L), dtype=complex)
    for l in range(L):
        out[:, :, :, l, l] = amps / math.sqrt(float(L))
    return out.reshape(-1)


def test_criterion_01_ghz_merge_is_free():
    for d in range(2, 6):
        state = catalog("ghz", d=d)
        decomp = ki_decompose(state)
        non = achievable_cost(decomp, "noncatalytic")
        assert non.K == 1
        assert non.cost_bits == 0.0
        cat = achievable_cost(decomp, "catalytic")
        assert cat.cost_bits <= 1e-6
        for mode in ("noncatalytic", "catalytic"):
            rep = verify_merge(state, decomp=decomp, mode=mode)
            assert rep.passed
            assert rep.min_branch_fidelity >= 1.0 - 1e-8


def test_criterion_02_dim12_sender_gains_one_bit():
    state = catalog("implication2")
    assert state.regs.dim_A == 12
    decomp = ki_decompose(state)
    cat = achievable_cost(decomp, "catalytic")
    assert cat.cost_bits == -1.0
    non = achievable_cost(decomp, "noncatalytic")
    assert non.cost_bits == 0.0
    for mode in ("catalytic", "noncatalytic"):
        assert verify_merge(state, decomp=decomp, mode=mode).passed


def test_criterion_03_achievable_exceeds_both_converses():
    state = catalog("implication3")
    decomp = ki_decompose(state)
    for mode in ("catalytic", "noncatalytic"):
        assert achievable_cost(decomp, mode).cost_bits == 1.0
        assert verify_merge(state, decomp=decomp, mode=mode).passed
    simple = converse_simple(state)
    assert simple["catalytic"] == pytest.approx(math.log2(1.5), abs=1e-9)
    h_max = h_max_conditional(state)
    assert 0.54 < h_max < 0.5432
    # strict ordering: spectral converse above the entropic one, both below 1
    assert simple["catalytic"] - h_max > 0.04
    assert h_max < simple["catalytic"] < 1.0


def test_criterion_04_qubit_pair_optimal_costs():
    psi = catalog("implication4_psi")
    rep = qubit_optimal_merge(psi)
    assert rep.cost_bits == 1.0
    assert rep.K == 2
    ver = verify_protocol(
        rep.protocol, merge_input_vector(psi, rep.K), merge_target_vector(psi, 1)
    )
    assert ver.passed
    # receiver marginal is away from uniform, so one shared bit is optimal
    assert np.max(np.abs(psi.marginal("B") - np.eye(2) / 2)) > 1e-3

    prime = catalog("implication4_psi_prime")
    rep = qubit_optimal_merge(prime)
    assert rep.cost_bits == 0.0
    assert rep.K == 1
    assert rep.mixed_unitary is not None
    ver = verify_protocol(
        rep.protocol, merge_input_vector(prime, 1), merge_target_vector(prime, 1)
    )
    assert ver.passed
    # sender's measurement leaves spectator and receiver maximally entangled
    target_coeffs = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for a_op in rep.protocol.a_ops:
        post = np.einsum("a,iab->ib", a_op[0], prime.amplitudes)
        post = post / np.linalg.norm(post)
        coeffs = np.linalg.svd(post, compute_uv=False)
        assert np.max(np.abs(coeffs - target_coeffs)) <= 1e-9


def test_criterion_05_block_decomposition_worked_example():
    state = catalog("appendixD")
    decomp = ki_decompose(state)
    assert decomp.J == 2
    assert (decomp.blocks[0].dim_L, decomp.blocks[0].dim_R) == (2, 2)
    assert (decomp.blocks[1].dim_L, decomp.blocks[1].dim_R) == (2, 1)
    p0 = np.diag([1.0, 1, 1, 1, 0, 0])
    p1 = np.diag([0.0, 0, 0, 0, 1, 1])
    assert np.linalg.norm(projector(decomp.blocks[0]) - p0) <= 1e-8
    assert np.linalg.norm(projector(decomp.blocks[1]) - p1) <= 1e-8
    assert decomp.r == 5
    assert decomp.trajectory[-1] == 5
    non = achievable_cost(decomp, "noncatalytic")
    assert non.cost_bits == 0.0
    assert verify_merge(state, decomp=decomp, mode="noncatalytic").passed


def test_criterion_06_split_costs_and_rank_monotonicity():
    for d in range(2, 6):
        state = catalog("ghz", d=d)
        rep = split_cost(state)
        assert rep.rank == d
        assert rep.cost_bits == pytest.approx(math.log2(d), abs=1e-12)
        assert verify_split(state).passed
        for record in rank_monotonicity_witness(state):
            assert record["rank_after"] <= record["rank_before"]

    # rank-2 third register inside a 4-dimensional space
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    amps = (math.sqrt(0.7) * np.outer(np.eye(2)[0], q[:, 0])
            + math.sqrt(0.3) * np.outer(np.eye(2)[1], q[:, 1]))
    state = TripartiteState(Registers(1, 2, 4), amps.reshape(1, 2, 4))
    rep = split_cost(state)
    assert rep.rank == 2
    assert rep.cost_bits == 1.0
    assert verify_split(state).passed
    for record in rank_monotonicity_witness(state):
        assert record["rank_after"] <= record["rank_before"]


def test_criterion_07_qutrit_channel_artifacts():
    state = catalog("qutrit_choi")
    assert np.max(np.abs(state.marginal("R") - np.eye(3) / 3)) <= 1e-9
    assert np.max(np.abs(state.marginal("B") - np.eye(3) / 3)) <= 1e-9
    simple = converse_simple(state)
    assert abs(simple["catalytic"]) <= 1e-9
    assert abs(simple["noncatalytic"]) <= 1e-9
    report = qutrit_counterexample_report()
    assert report.spectator_uniform and report.receiver_uniform
    assert report.state_matches_choi
    assert report.channel_unital
    assert report.channel_trace_preserving
    assert report.channel_completely_positive


def test_criterion_08_random_state_property_suite():
    rng = np.random.default_rng(20260823)
    span_rng = np.random.default_rng(77)
    h_max_checked = 0
    family_checked = 0
    for idx in range(200):
        dims = (
            int(rng.integers(2, 4)),
            int(rng.integers(2, 5)),
            int(rng.integers(2, 5)),
        )
        state = random_state(rng, dims, name=f"acc8_{idx}")
        decomp = ki_decompose(state)
        build = build_merge_protocol(state, decomp, mode="noncatalytic")
        K, L = build.report.K, build.report.L
        # (a) measurement completeness of the explicit protocol
        assert build.protocol.completeness_residual() <= 1e-8
        # (b) the searched converse never exceeds the achieved cost
        search = converse_search(state, K_max=max(K, 8), L_max=8)
        assert build.report.cost_bits >= search.noncatalytic_bits - 1e-9
        # (c) resource rank bounded by the sender marginal rank
        rank_a = int(np.sum(np.linalg.eigvalsh(state.marginal("A")) > 1e-9))
        assert build.report.cost_bits <= math.log2(rank_a) + 1e-9
        cat_bits = achievable_cost(decomp, "catalytic").cost_bits
        assert cat_bits <= math.log2(rank_a) + 1e-6 + 1e-9
        # (d) spectral converse dominates the entropic converse (small dims)
        if dims[0] * dims[1] * dims[2] <= 16:
            simple = converse_simple(state)
            assert simple["catalytic"] >= h_max_conditional(state) - 1e-6
            h_max_checked += 1
        # (e) one protocol serves the whole marginal family
        if idx % 10 == 0:
            mate = max_entangled_counterpart(state)
            ver = verify_protocol(
                build.protocol,
                merge_input_vector(mate, K),
                merge_target_vector(mate, L),
            )
            assert ver.passed
            for _ in range(5):
                member = sample_schmidt_span_member(state, span_rng)
                member_state = TripartiteState(
                    Registers(1, dims[1], dims[2]),
                    member.reshape(1, dims[1], dims[2]),
                )
                ver = verify_protocol(
                    build.protocol,
                    merge_input_vector(member_state, K),
                    merge_target_vector(member_state, L),
                )
                assert ver.passed
            family_checked += 1
    assert h_max_checked >= 40
    assert family_checked == 20


def test_criterion_09_smoothing_chain_and_certificates():
    bases = (catalog("ghz", d=3), catalog("implication3"), catalog("appendixD"))
    rng = np.random.default_rng(909)
    for eps in (0.05, 0.1, 0.2):
        for i in range(50):
            base = bases[i % len(bases)]
            perturbed = _in_ball_rotation(
                base, eps, rng, fraction=float(rng.uniform(0.2, 0.999))
            )
            cert = verify_approximate_merge(perturbed, base, eps)
            assert 1.0 - cert.output_fidelity_sq <= eps**2

    cert_rng = np.random.default_rng(13)
    for _ in range(50):
        state = random_state(cert_rng, (2, 2, 2))
        K = int(cert_rng.integers(1, 6))
        L = int(cert_rng.integers(1, 4))
        singleton = EnsembleCertificate(
            (1.0,), (_singleton_member(state, L),), K, L, 0.0
        )
        eig_b = np.clip(np.linalg.eigvalsh(state.marginal("B"))[::-1], 0.0, None)
        eig_ab = np.clip(np.linalg.eigvalsh(state.marginal("AB"))[::-1], 0.0, None)
        assert check_ensemble_certificate(state, singleton) == (
            uniform_resource_majorization(eig_b, eig_ab, K, L)
        )


def test_criterion_10_flattening_oracle():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = np.sort(rng.uniform(0.1, 1.0, size=n))[::-1]
        p = p / p.sum()
        l_cap = int(1.0 / p[0])
        L = int(rng.integers(1, l_cap + 1))
        protocol = flatten_to_uniform(p, L)
        assert len(protocol.branches) <= n
        target = flatten_target_vector(L, n)
        outcomes = apply_protocol(protocol, flatten_source_vector(p))
        assert outcomes
        for outcome in outcomes:
            fid = abs(np.vdot(target, outcome.state)) ** 2
            assert fid >= 1.0 - 1e-8

    for _ in range(100):
        n = int(rng.integers(2, 9))
        L = int(rng.integers(2, min(n, 4) + 1))
        top = (1.0 / L) * float(rng.uniform(1.05, 1.5))
        top = min(top, 0.97)
        rest = rng.uniform(0.1, 1.0, size=n - 1)
        rest = np.sort(rest / rest.sum() * (1.0 - top))[::-1]
        p = np.sort(np.concatenate([[top], rest]))[::-1]
        with pytest.raises(ValidationError, match="flattening impossible"):
            flatten_to_uniform(p, L)

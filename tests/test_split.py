"""Tests for exact splitting: cost, protocol construction, verification."""

import math

import numpy as np
import pytest

from qsm import locc
from qsm.errors import SolverError
from qsm.ki import ki_decompose
from qsm.merge import achievable_cost
from qsm.split import (
    build_split_protocol,
    rank_monotonicity_witness,
    split_cost,
    verify_split,
)
from qsm.statespace import (
    CATALOG_NAMES,
    TripartiteState,
    catalog,
    random_state,
)

from helpers import per_branch_split, random_unitary, split_input_vector, swap_ab


def _rank2_in_dim4():
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    amps = np.zeros((1, 2, 4), dtype=complex)
    amps[0, 0, :] = math.sqrt(0.7) * q[:, 0]
    amps[0, 1, :] = math.sqrt(0.3) * q[:, 1]
    return TripartiteState(amps)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_split_ghz(d):
    state = catalog("ghz", d=d)
    report = split_cost(state)
    assert report.rank == d
    assert report.cost_bits == pytest.approx(math.log2(d), abs=1e-12)
    assert report.asymptotic_rate == pytest.approx(math.log2(d), abs=1e-9)
    ver, _ = verify_split(state)
    assert ver.passed
    assert ver.branch_count == d * d
    assert ver.min_branch_fidelity >= 1.0 - 1e-8


def test_split_product_third_register():
    amps = np.zeros((1, 2, 3), dtype=complex)
    amps[0, 0, 0] = 0.8
    amps[0, 1, 0] = 0.6
    state = TripartiteState(amps)
    report = split_cost(state)
    assert report.rank == 1
    assert report.cost_bits == 0.0
    assert report.asymptotic_rate == pytest.approx(0.0, abs=1e-12)
    ver, _ = verify_split(state)
    assert ver.passed
    assert ver.branch_count == 1  # receiver prepares locally, no resource used


def test_split_rank2_embedded_in_dim4():
    state = _rank2_in_dim4()
    report = split_cost(state)
    assert report.rank == 2
    assert report.cost_bits == pytest.approx(1.0, abs=1e-12)  # beats log2 4 = 2
    assert report.asymptotic_rate == pytest.approx(
        -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3)), abs=1e-9
    )
    ver, _ = verify_split(state)
    assert ver.passed
    assert ver.branch_count == 4


def test_split_protocol_shapes_and_kernel_branches(monkeypatch):
    state = _rank2_in_dim4()
    # 8 branches, a_ops 2 x 16, b_ops 4 x 2: a budget of exactly the counted
    # bytes builds, one byte less refuses
    counted = 16 * (8 * (2 * 16 + 4 * 2) + 16**2 + 4 * 2)
    monkeypatch.setattr(locc, "PROTOCOL_BYTE_BUDGET", counted - 1)
    with pytest.raises(SolverError, match=f"need {counted} bytes"):
        build_split_protocol(state)
    monkeypatch.setattr(locc, "PROTOCOL_BYTE_BUDGET", counted)
    protocol = build_split_protocol(state)
    # 4 teleportation branches + (4-2)*2 kernel-completion branches
    assert len(protocol.branches) == 8
    kernels = [
        a_op
        for label, a_op in zip(protocol.branches, protocol.a_ops)
        if label[0] == "kernel"
    ]
    assert len(kernels) == 4
    vec = split_input_vector(state, 2)
    for a_op in kernels:
        amp = np.linalg.norm(a_op @ vec.reshape(-1, protocol.b_in_dim).reshape(
            state.dims[0], protocol.a_in_dim, protocol.b_in_dim
        ).transpose(1, 0, 2).reshape(protocol.a_in_dim, -1))
        assert amp <= 1e-9  # kernel branches never fire on the given state


def _split_reference_states():
    """Every catalog state, one random state per bench shape, and two states
    whose third register is rank-deficient, so that, like implication2, they
    have kernel branches."""
    rng = np.random.default_rng(28)
    states = [catalog(name, d=3 if name == "ghz" else None) for name in CATALOG_NAMES]
    shapes = ((2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 6, 4), (2, 2, 4), (2, 4, 2), (4, 2, 2))
    states += [random_state(rng, dims) for dims in shapes]
    u = random_unitary(rng, 5)[:, :2]  # rank 2 of 5, with a spectator of 2
    states.append(TripartiteState(random_state(rng, (2, 2, 2)).amplitudes @ u.T))
    return states + [_rank2_in_dim4()]


def test_split_protocol_matches_per_branch_reference():
    """The stacked construction gives the per-branch kron loop's labels and
    receivers bit for bit, and its sender operators up to the sign of zero."""
    kernels = 0
    for state in _split_reference_states():
        labels, a_ops, b_ops = per_branch_split(state)
        protocol = build_split_protocol(state)
        assert protocol.branches == tuple(labels)
        assert protocol.b_ops.tobytes() == b_ops.tobytes()
        assert np.array_equal(protocol.a_ops, a_ops)
        kernels += sum(label[0] == "kernel" for label in labels)
    assert kernels == 20 + 3 * 2 + 2 * 2  # implication2 and the two rank-deficient states


def test_split_entropy_never_exceeds_cost():
    rng = np.random.default_rng(21)
    for dims in ((2, 2, 2), (2, 3, 3), (3, 2, 4), (1, 4, 3)):
        state = random_state(rng, dims)
        report = split_cost(state)
        assert report.cost_bits >= report.asymptotic_rate - 1e-9
        lam = np.clip(np.linalg.eigvalsh(state.marginal("B")), 0.0, None)
        lam = lam[lam > 1e-15]
        assert report.asymptotic_rate == pytest.approx(
            float(-(lam * np.log2(lam)).sum()), abs=1e-9
        )


def test_split_random_states_verified():
    rng = np.random.default_rng(22)
    for dims in ((2, 2, 2), (2, 3, 3), (3, 2, 4)):
        assert verify_split(random_state(rng, dims))[0].passed


def test_split_borderline_rank_warning():
    c = 5e-9  # between the cutoff and 10x the cutoff
    amps = np.zeros((1, 2, 2), dtype=complex)
    amps[0, 0, 0] = math.sqrt(1.0 - c * c)
    amps[0, 1, 1] = c
    state = TripartiteState(amps)
    with pytest.warns(UserWarning, match="rank cutoff"):
        report = split_cost(state)
    assert report.rank == 2


def test_rank_monotonicity_witness():
    for state in (catalog("ghz", d=3), _rank2_in_dim4()):
        _, records = verify_split(state)
        protocol = build_split_protocol(state)
        assert records == verify_split(state, protocol)[1]
        K = protocol.b_in_dim
        outcomes = locc.apply_protocol(protocol, state.amplitudes, K)
        assert records == rank_monotonicity_witness(state, K, outcomes)
        # the receiver | rest rank of the materialised input psi (x) Phi_K
        before = np.linalg.matrix_rank(split_input_vector(state, K).reshape(-1, K))
        assert {r["rank_before"] for r in records} == {before}
        assert records
        assert sum(r["probability"] for r in records) == pytest.approx(1.0, abs=1e-9)
        for rec in records:
            assert rec["rank_after"] <= rec["rank_before"]


def test_split_cost_dominates_mirrored_merge_cost():
    cases = [("appendixD", None), ("implication2", None), ("implication3", None), ("ghz", 3)]
    for name, d in cases:
        state = catalog(name, d=d)
        split_bits = split_cost(state).cost_bits
        mirrored = swap_ab(state)
        merge_bits = achievable_cost(
            ki_decompose(mirrored), mode="noncatalytic"
        ).cost_bits
        assert split_bits >= merge_bits - 1e-9, (name, split_bits, merge_bits)

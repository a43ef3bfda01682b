"""Tests for exact splitting: cost, protocol construction, verification."""

import math

import numpy as np
import pytest

from qsm.ki import ki_decompose
from qsm.merge import achievable_cost
from qsm.split import (
    build_split_protocol,
    rank_monotonicity_witness,
    split_cost,
    split_input_vector,
    verify_split,
)
from qsm.statespace import (
    Registers,
    TripartiteState,
    catalog,
    random_state,
)

from helpers import swap_ab


def _rank2_in_dim4():
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    amps = np.zeros((1, 2, 4), dtype=complex)
    amps[0, 0, :] = math.sqrt(0.7) * q[:, 0]
    amps[0, 1, :] = math.sqrt(0.3) * q[:, 1]
    return TripartiteState(Registers(1, 2, 4), amps)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_split_ghz(d):
    state = catalog("ghz", d=d)
    report = split_cost(state)
    assert report.rank == d
    assert report.cost_bits == pytest.approx(math.log2(d), abs=1e-12)
    assert report.asymptotic_rate == pytest.approx(math.log2(d), abs=1e-9)
    ver = verify_split(state)
    assert ver.passed
    assert ver.branch_count == d * d
    assert ver.min_branch_fidelity >= 1.0 - 1e-8


def test_split_product_third_register():
    amps = np.zeros((1, 2, 3), dtype=complex)
    amps[0, 0, 0] = 0.8
    amps[0, 1, 0] = 0.6
    state = TripartiteState(Registers(1, 2, 3), amps)
    report = split_cost(state)
    assert report.rank == 1
    assert report.cost_bits == 0.0
    assert report.asymptotic_rate == pytest.approx(0.0, abs=1e-12)
    ver = verify_split(state)
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
    ver = verify_split(state)
    assert ver.passed
    assert ver.branch_count == 4


def test_split_protocol_shapes_and_kernel_branches():
    state = _rank2_in_dim4()
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
        assert verify_split(random_state(rng, dims)).passed


def test_split_borderline_rank_warning():
    c = 5e-9  # between the cutoff and 10x the cutoff
    amps = np.zeros((1, 2, 2), dtype=complex)
    amps[0, 0, 0] = math.sqrt(1.0 - c * c)
    amps[0, 1, 1] = c
    state = TripartiteState(Registers(1, 2, 2), amps)
    with pytest.warns(UserWarning, match="rank cutoff"):
        report = split_cost(state)
    assert report.rank == 2


def test_rank_monotonicity_witness():
    for state in (catalog("ghz", d=3), _rank2_in_dim4()):
        records = rank_monotonicity_witness(state)
        assert records == rank_monotonicity_witness(state, build_split_protocol(state))
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

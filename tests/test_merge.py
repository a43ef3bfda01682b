"""Tests for achievable merging costs and the exact protocol construction."""

from fractions import Fraction

import numpy as np
import pytest

from qsm.errors import SolverError, ValidationError
from qsm.ki import ki_decompose
from qsm.locc import verify_protocol
from qsm.merge import (
    achievable_cost,
    build_merge_protocol,
    merge_input_vector,
    merge_target_vector,
    mixed_unitary_decomposition_qubit,
    qubit_optimal_merge,
    rational_upper_approx,
    verify_merge,
)
from qsm.numerics import majorization_check, random_unitary, tolerance
from qsm.statespace import (
    Registers,
    TripartiteState,
    catalog,
    max_entangled_counterpart,
    random_state,
    sample_schmidt_span_member,
)

PHI2 = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def _decomp(name, d=None):
    state = catalog(name, d=d)
    return state, ki_decompose(state)


# --------------------------------------------------------------------------
# cost computation
# --------------------------------------------------------------------------


def test_cost_appendix_d():
    _, dec = _decomp("appendixD")
    cat = achievable_cost(dec, "catalytic")
    assert (cat.K, cat.L) == (2, 2)
    assert cat.cost_bits == pytest.approx(0.0, abs=1e-9)
    assert cat.lambda_tilde == Fraction(1, 2)
    non = achievable_cost(dec, "noncatalytic")
    assert (non.K, non.L) == (1, 1)
    assert non.cost_bits == pytest.approx(0.0, abs=1e-9)


def test_cost_implication2():
    _, dec = _decomp("implication2")
    cat = achievable_cost(dec, "catalytic")
    assert cat.lambda_tilde == Fraction(1, 4)
    assert (cat.K, cat.L) == (2, 4)
    assert cat.cost_bits == pytest.approx(-1.0, abs=1e-9)
    per = {bc.index: bc for bc in cat.blocks}
    assert (per[0].K_j, per[0].L_j, per[0].W_j) == (1, 4, 1)
    assert (per[1].K_j, per[1].L_j, per[1].W_j) == (1, 2, 2)
    non = achievable_cost(dec, "noncatalytic")
    assert (non.K, non.L) == (1, 1)
    assert non.cost_bits == pytest.approx(0.0, abs=1e-9)


def test_cost_implication3():
    _, dec = _decomp("implication3")
    cat = achievable_cost(dec, "catalytic")
    assert (cat.K, cat.L) == (2, 1)
    assert cat.cost_bits == pytest.approx(1.0, abs=1e-9)
    non = achievable_cost(dec, "noncatalytic")
    assert (non.K, non.L) == (2, 1)
    assert non.cost_bits == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cost_ghz(d):
    _, dec = _decomp("ghz", d=d)
    for mode in ("catalytic", "noncatalytic"):
        rep = achievable_cost(dec, mode)
        assert (rep.K, rep.L) == (1, 1)
        assert rep.cost_bits == pytest.approx(0.0, abs=1e-9)


def test_cost_qutrit_choi():
    _, dec = _decomp("qutrit_choi")
    for mode in ("catalytic", "noncatalytic"):
        rep = achievable_cost(dec, mode)
        assert rep.cost_bits == pytest.approx(np.log2(3.0), abs=1e-9)


def test_cost_within_delta_of_leading_product():
    _, dec = _decomp("implication2")
    for delta in (1e-8, 1e-6, 1e-3):
        rep = achievable_cost(dec, "catalytic", delta=delta)
        leading = max(bc.product for bc in rep.blocks if bc.eligible)
        assert np.log2(leading) - 1e-9 <= rep.cost_bits <= np.log2(leading) + delta + 1e-9


def test_cost_rejects_bad_mode_and_delta():
    _, dec = _decomp("appendixD")
    with pytest.raises(ValidationError):
        achievable_cost(dec, "sideways")
    for mode in ("catalytic", "noncatalytic"):
        for delta in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="delta"):
                achievable_cost(dec, mode, delta=delta)


def test_rational_upper_approx():
    assert rational_upper_approx(1.0 / 3.0, 1e-6) == Fraction(1, 3)
    assert rational_upper_approx(0.5, 1e-6) == Fraction(1, 2)
    # float noise just above a simple value still snaps to it
    assert rational_upper_approx(0.5 + 1e-13, 1e-6) == Fraction(1, 2)
    val = rational_upper_approx(0.2847, 1e-6)
    assert 0.2847 - 1e-11 <= float(val) <= 0.2847 * 2**1e-6
    assert val.denominator <= 10**6
    # a window wider than a float's exponent range still snaps to ceil(lo)
    assert rational_upper_approx(0.2847, 2000.0) == Fraction(1)
    # a value wedged between coarse rationals with a tiny window exceeds the
    # denominator cap
    with pytest.raises(SolverError):
        rational_upper_approx(5e-7, 1e-12)


# --------------------------------------------------------------------------
# protocol construction on the catalog
# --------------------------------------------------------------------------

CORPUS_CASES = [
    ("appendixD", None, "catalytic", 16),
    ("appendixD", None, "noncatalytic", 16),
    ("implication2", None, "catalytic", 24),
    ("implication3", None, "catalytic", 4),
    ("implication3", None, "noncatalytic", 4),
    ("ghz", 3, "catalytic", 3),
    ("qutrit_choi", None, "catalytic", 9),
]


@pytest.mark.parametrize("name,d,mode,branch_count", CORPUS_CASES)
def test_merge_protocol_exact_on_catalog(name, d, mode, branch_count):
    state, dec = _decomp(name, d=d)
    build = build_merge_protocol(state, dec, mode=mode)
    assert len(build.protocol.branches) == branch_count
    K = build.report.K
    L = build.report.L if mode == "catalytic" else 1
    rep = verify_protocol(
        build.protocol, merge_input_vector(state, K), merge_target_vector(state, L)
    )
    assert rep.passed
    assert rep.min_branch_fidelity >= 1.0 - 1e-10
    assert rep.completeness_residual <= 1e-10
    assert rep.probability_total == pytest.approx(1.0, abs=1e-9)


def test_merge_implication2_outcome_structure():
    state, dec = _decomp("implication2")
    build = build_merge_protocol(state, dec, mode="catalytic")
    labels = list(build.protocol.branches)
    assert len(set(labels)) == len(labels)
    # one live grid cell plus two dead outcomes -> three first-coordinate values
    assert sorted({l[0] for l in labels}) == [0, 1, 2]
    assert {(l[1], l[2]) for l in labels} == {(x, z) for x in range(2) for z in range(2)}
    assert {l[3] for l in labels} == {0, 1}
    assert "K=2" in build.protocol.name and "L=4" in build.protocol.name


def test_ghz_branch_labels():
    state, dec = _decomp("ghz", d=3)
    build = build_merge_protocol(state, dec, mode="catalytic")
    assert list(build.protocol.branches) == [(0, 0, 0, m) for m in range(3)]


def test_verify_merge_convenience():
    state = catalog("appendixD")
    rep = verify_merge(state, mode="catalytic")
    assert rep.passed


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,d", [("appendixD", None), ("implication2", None), ("ghz", 3)]
)
def test_same_protocol_merges_whole_family(name, d):
    """One protocol transfers the state, its maximally entangled counterpart,
    and random members of the Schmidt-span family, all exactly."""
    state, dec = _decomp(name, d=d)
    build = build_merge_protocol(state, dec, mode="catalytic")
    K, L = build.report.K, build.report.L
    me = max_entangled_counterpart(state)
    rep = verify_protocol(
        build.protocol, merge_input_vector(me, K), merge_target_vector(me, L)
    )
    assert rep.passed
    rng = np.random.default_rng(11)
    for _ in range(3):
        member = sample_schmidt_span_member(state, rng)
        member_state = TripartiteState(
            Registers(1, state.regs.dim_A, state.regs.dim_B),
            member.reshape(1, state.regs.dim_A, state.regs.dim_B),
        )
        rep = verify_protocol(
            build.protocol,
            merge_input_vector(member_state, K),
            merge_target_vector(member_state, L),
        )
        assert rep.passed


def test_noncatalytic_rank_bound():
    """The non-catalytic resource rank never exceeds the sender marginal rank."""
    rng = np.random.default_rng(5)
    cases = [catalog("appendixD"), catalog("implication2"), catalog("implication3")]
    cases += [random_state(rng, dims) for dims in [(2, 2, 2), (2, 3, 2), (2, 5, 2)]]
    for state in cases:
        dec = ki_decompose(state)
        rep = achievable_cost(dec, "noncatalytic")
        rank_a = int(np.sum(np.linalg.eigvalsh(state.marginal("A")) > 1e-9))
        assert rep.K <= rank_a


@pytest.mark.parametrize(
    "name,d,mode",
    [
        ("appendixD", None, "catalytic"),
        ("appendixD", None, "noncatalytic"),
        ("implication2", None, "catalytic"),
        ("implication3", None, "catalytic"),
        ("ghz", 3, "catalytic"),
    ],
)
def test_resource_spectra_majorization(name, d, mode):
    """Built (K, L) satisfy: spec(1_K/K x psi^B) is majorized by
    spec(1_L/L x psi^AB), the exact-merge resource condition."""
    state, dec = _decomp(name, d=d)
    rep = achievable_cost(dec, mode)
    L = rep.L if mode == "catalytic" else 1
    eig_b = np.linalg.eigvalsh(state.marginal("B"))
    eig_ab = np.linalg.eigvalsh(state.marginal("AB"))
    left = np.repeat(eig_b / rep.K, rep.K)
    right = np.repeat(eig_ab / L, L)
    assert majorization_check(left, right, tolerance())


def _pad_sender(state):
    """The same state with one unused level appended to register A."""
    r, a, b = state.dims
    amps = np.zeros((r, a + 1, b), dtype=complex)
    amps[:, :a, :] = state.amplitudes
    return TripartiteState(Registers(r, a + 1, b), amps)


def test_random_states_merge_exactly_both_modes():
    rng = np.random.default_rng(123)
    cases = [
        (random_state(rng, dims), False)
        for dims in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 4, 3), (2, 5, 2)]
    ]
    # psi^A with a kernel that no dim_R = 1 block absorbs: a p = 0 block
    cases += [
        (_pad_sender(random_state(rng, dims)), True)
        for dims in [(2, 2, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3)]
    ]
    for state, zero_block in cases:
        dec = ki_decompose(state)
        if zero_block:
            assert any(b.p == 0.0 for b in dec.blocks), state.dims
        for mode in ("catalytic", "noncatalytic"):
            build = build_merge_protocol(state, dec, mode=mode)
            rep = verify_protocol(
                build.protocol,
                merge_input_vector(state, build.report.K),
                merge_target_vector(state, build.report.L),
            )
            assert rep.passed, (state.dims, mode)


def test_input_and_target_vectors_normalized():
    state = catalog("appendixD")
    for K in (1, 2, 3):
        assert np.linalg.norm(merge_input_vector(state, K)) == pytest.approx(1.0)
        assert np.linalg.norm(merge_target_vector(state, K)) == pytest.approx(1.0)
    assert np.allclose(merge_input_vector(state, 1), state.vector)


# --------------------------------------------------------------------------
# qubit-optimal construction
# --------------------------------------------------------------------------


def _two_unitary_mix(rng):
    """Three-qubit state whose spectator and receiver marginals are both
    maximally mixed: a rank-2 mixture of unitaries applied to one Bell half."""
    p = rng.uniform(0.1, 0.9)
    amps = np.zeros((2, 2, 2), dtype=complex)
    for m, w in enumerate([p, 1.0 - p]):
        u = random_unitary(rng, 2)
        amps[:, m, :] = np.sqrt(w) * (np.kron(np.eye(2), u) @ PHI2).reshape(2, 2)
    return TripartiteState(Registers(2, 2, 2), amps)


def test_qubit_optimal_zero_cost_cases():
    rng = np.random.default_rng(7)
    cases = [catalog("ghz", d=2)] + [_two_unitary_mix(rng) for _ in range(5)]
    for state in cases:
        rep = qubit_optimal_merge(state)
        assert rep.cost_bits == 0.0
        assert rep.K == 1
        assert rep.mixed_unitary is not None
        assert len(rep.protocol.branches) <= 4
        ver = verify_protocol(
            rep.protocol, merge_input_vector(state, 1), merge_target_vector(state, 1)
        )
        assert ver.passed


def test_qubit_optimal_one_bit_case():
    state = catalog("implication3")
    rep = qubit_optimal_merge(state)
    assert rep.cost_bits == 1.0
    assert rep.K == 2
    assert rep.mixed_unitary is None
    assert len(rep.protocol.branches) == 4
    ver = verify_protocol(
        rep.protocol, merge_input_vector(state, 2), merge_target_vector(state, 1)
    )
    assert ver.passed


def test_qubit_optimal_validations():
    with pytest.raises(ValidationError):
        qubit_optimal_merge(catalog("ghz", d=3))
    rng = np.random.default_rng(3)
    skewed = random_state(rng, (2, 2, 2))  # generic spectator marginal is not I/2
    with pytest.raises(ValidationError):
        qubit_optimal_merge(skewed)


# --------------------------------------------------------------------------
# mixed-unitary decomposition
# --------------------------------------------------------------------------


def _choi_of_mixture(terms):
    choi = np.zeros((4, 4), dtype=complex)
    for p, u in terms:
        v = np.kron(np.eye(2), u) @ PHI2
        choi += p * np.outer(v, v.conj())
    return choi


def test_mixed_unitary_identity_channel():
    mu = mixed_unitary_decomposition_qubit(np.outer(PHI2, PHI2))
    assert len(mu.terms) == 1
    p, u = mu.terms[0]
    assert p == pytest.approx(1.0)
    # unitary equals identity up to global phase
    assert np.abs(np.abs(np.trace(u)) - 2.0) < 1e-9


def test_mixed_unitary_dephasing_channel():
    z = np.diag([1.0, -1.0]).astype(complex)
    choi = _choi_of_mixture([(0.5, np.eye(2, dtype=complex)), (0.5, z)])
    mu = mixed_unitary_decomposition_qubit(choi)
    assert len(mu.terms) == 2
    assert sorted(p for p, _ in mu.terms) == pytest.approx([0.5, 0.5])


def test_mixed_unitary_random_mixtures_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = rng.integers(1, 5)
        w = rng.dirichlet(np.ones(k))
        terms = [(w[i], random_unitary(rng, 2)) for i in range(k)]
        choi = _choi_of_mixture(terms)
        mu = mixed_unitary_decomposition_qubit(choi)
        assert 1 <= len(mu.terms) <= 4
        assert sum(p for p, _ in mu.terms) == pytest.approx(1.0)
        for _, u in mu.terms:
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-9)
        assert np.max(np.abs(_choi_of_mixture(mu.terms) - choi)) < 1e-8


def test_mixed_unitary_rejects_invalid_channels():
    # amplitude damping: not unital
    gamma = 0.4
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    choi = np.zeros((4, 4), dtype=complex)
    for kraus in (k0, k1):
        v = np.kron(np.eye(2), kraus) @ PHI2
        choi += np.outer(v, v.conj())
    with pytest.raises(ValidationError):
        mixed_unitary_decomposition_qubit(choi)
    with pytest.raises(ValidationError):
        mixed_unitary_decomposition_qubit(np.eye(4) / 2.0)  # not normalized
    with pytest.raises(ValidationError):
        mixed_unitary_decomposition_qubit(np.eye(3))

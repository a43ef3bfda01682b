"""Tests for achievable merging costs and the exact protocol construction."""

import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from qsm import locc, merge
from qsm.errors import SolverError, ValidationError, VerificationError
from qsm.ki import ki_decompose
from qsm.locc import apply_protocol, flatten_schedule, generalized_paulis, verify_protocol
from qsm.merge import (
    _merged_breakpoints,
    achievable_cost,
    build_merge_protocol,
    merge_target_vector,
    mixed_unitary_decomposition_qubit,
    qubit_optimal_merge,
    rational_upper_approx,
    verify_merge,
)
from qsm.numerics import majorization_check, orthonormal_complement, tolerance
from qsm.statespace import (
    TripartiteState,
    catalog,
    random_state,
)

from helpers import (
    max_entangled_counterpart,
    merge_input_vector,
    planted_ki_state,
    random_unitary,
    sample_schmidt_span_member,
    smoothed_candidate,
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
    outcomes = apply_protocol(build.protocol, state.amplitudes, K)
    rep = verify_protocol(build.protocol, outcomes, merge_target_vector(state, L))
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
    rep = verify_merge(state, build_merge_protocol(state, mode="catalytic"))
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
    me = max_entangled_counterpart(state)
    rep = verify_merge(me, build)
    assert rep.passed
    rng = np.random.default_rng(11)
    for _ in range(3):
        member = sample_schmidt_span_member(state, rng)
        member_state = TripartiteState(
            member.reshape(1, state.dims[1], state.dims[2]),
        )
        rep = verify_merge(member_state, build)
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
    assert majorization_check(eig_b, rep.K, eig_ab, L)


def _pad_sender(state):
    """The same state with one unused level appended to register A."""
    r, a, b = state.dims
    amps = np.zeros((r, a + 1, b), dtype=complex)
    amps[:, :a, :] = state.amplitudes
    return TripartiteState(amps)


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
            rep = verify_merge(state, build)
            assert rep.passed, (state.dims, mode)


# --------------------------------------------------------------------------
# bit-for-bit oracle: branch assembly as a per-pair loop
# --------------------------------------------------------------------------


def _per_pair_oracle(state, decomp, mode, delta):
    """Per-pair branch assembly: each (level, slot, B-factor) pair allocates
    full-length ``vin``/``vout`` vectors and adds ``np.outer(vout, vin*)`` to
    a dense receiver matrix.  Returns ``(labels, a_ops, b_ops, name)``."""
    report = achievable_cost(decomp, mode=mode, delta=delta)
    K, L, J = report.K, report.L, decomp.J
    dA, dB = state.dims[1], state.dims[2]
    catalytic = mode == "catalytic"
    data = []
    for block in decomp.blocks:
        bd = SimpleNamespace(
            index=block.index, iso=block.iso, dim_L=block.dim_L, dim_R=block.dim_R,
            live=block.p > 0.0, lam=block.lambdas, n_r=block.dim_bR, ws=block.ws,
            omega_vec=block.omega_vec,
        )
        if bd.live:
            bd.u_live = block.omega_vec / np.sqrt(bd.lam)[None, :]
        else:
            bd.u_live = np.zeros((bd.dim_L, 0), dtype=complex)
        bd.u_dead = orthonormal_complement(bd.u_live, bd.dim_L)
        cost = report.blocks[block.index]
        if catalytic and bd.live:
            d, w_cnt = bd.dim_R, cost.W_j
            bd.per, bd.target = cost.K_j, cost.L_j
            bd.slots = lambda pos, u, d=d, w_cnt=w_cnt: [
                (pos * w_cnt + w, (u * d + v) * w_cnt + w, v)
                for v in range(d)
                for w in range(w_cnt)
            ]
        else:
            bd.per, bd.target = K, bd.dim_R
            bd.slots = lambda pos, u: [(0, u, pos)]
        data.append(bd)
    P = 1
    for bd in data:
        if bd.live:
            P = math.lcm(P, bd.dim_R)
    schedules, cums = {}, []
    for bd in data:
        if bd.live:
            steps = flatten_schedule(np.repeat(bd.lam, bd.per) / bd.per, bd.target)
            probs = [bd.target * st.mass for st in steps]
            cum = list(np.cumsum(probs))
            schedules[bd.index] = (steps, probs, cum)
            cums.append(cum)
    grid = _merged_breakpoints(cums)
    nu = [grid[0]] + [b - a for a, b in zip(grid[:-1], grid[1:])]
    out_b_dim = dA * dB * L
    n = (len(nu) + sum(bd.u_dead.shape[1] * bd.per for bd in data)) * P * P * J
    labels = []
    a_ops = np.zeros((n, L, dA * K), dtype=complex)
    b_ops = np.zeros((n, out_b_dim, dB * K), dtype=complex)

    def a_phase(j, m3):
        return np.exp(-2j * np.pi * j * m3 / J) / np.sqrt(float(J))

    def b_phase(j, m3):
        return np.exp(2j * np.pi * j * m3 / J)

    def tele_rows(bd, x, z):
        sig = generalized_paulis(bd.dim_R)[x % bd.dim_R, z % bd.dim_R]
        return (np.sqrt(float(bd.dim_R)) / P) * sig.conj()

    def sender_rows(bd, vec, tb):
        return np.einsum("alr,l,rv->av", bd.iso.conj(), vec.conj(), tb)

    def receiver_isometry(cols_in, cols_out):
        if not cols_in:
            return np.eye(out_b_dim, dtype=complex)[:, : dB * K]
        mat = np.zeros((out_b_dim, dB * K), dtype=complex)
        for vin, vout in zip(cols_in, cols_out):
            mat += np.outer(vout, vin.conj())
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        assert np.all(np.minimum(np.abs(s - 1.0), np.abs(s)) <= 1e-6)
        return u @ vh

    for t, width in enumerate(nu):
        mid = grid[t] - 0.5 * width
        for x in range(P):
            for z in range(P):
                for m3 in range(J):
                    i = len(labels)
                    a_op = a_ops[i].reshape(L, dA, K)
                    cols_in, cols_out = [], []
                    for bd in data:
                        if not bd.live:
                            continue
                        steps, probs, cum = schedules[bd.index]
                        # the first step whose cumulative edge reaches mid
                        s = next((k for k, edge in enumerate(cum) if mid <= edge), len(cum) - 1)
                        scale = np.sqrt(width / probs[s])
                        mass = steps[s].mass
                        ph_a, ph_b = a_phase(bd.index, m3), b_phase(bd.index, m3)
                        tb = tele_rows(bd, x, z)
                        sig = generalized_paulis(bd.dim_R)[x % bd.dim_R, z % bd.dim_R]
                        a_part = np.einsum("alr,lm,rv->amv", bd.iso, bd.omega_vec, sig)
                        for pos, flat in enumerate(steps[s].indices):
                            m, u = divmod(flat, bd.per)
                            amp = scale * np.sqrt(mass / (bd.lam[m] / bd.per))
                            row_av = amp * sender_rows(bd, bd.u_live[:, m], tb)
                            for row, col, v in bd.slots(pos, u):
                                a_op[row, :, col] += ph_a * row_av[:, v]
                                for kr in range(bd.n_r):
                                    vin = np.zeros((dB, K), dtype=complex)
                                    vin[:, col] = bd.ws[:, m, kr]
                                    vout = np.zeros((dA, dB, L), dtype=complex)
                                    vout[:, :, row] = ph_b * np.einsum(
                                        "am,bm->ab", a_part[:, :, v], bd.ws[:, :, kr]
                                    )
                                    cols_in.append(vin.reshape(-1))
                                    cols_out.append(vout.reshape(-1))
                    labels.append((t, x, z, m3))
                    b_ops[i] = receiver_isometry(cols_in, cols_out)
    m1 = len(nu)
    default_b = np.eye(out_b_dim, dtype=complex)[:, : dB * K]
    for bd in data:
        for c in range(bd.u_dead.shape[1]):
            for u in range(bd.per):
                for x in range(P):
                    for z in range(P):
                        for m3 in range(J):
                            ph_a = a_phase(bd.index, m3)
                            tb = tele_rows(bd, x, z)
                            row_av = sender_rows(bd, bd.u_dead[:, c], tb)
                            i = len(labels)
                            a_op = a_ops[i].reshape(L, dA, K)
                            for row, col, v in bd.slots(0, u):
                                a_op[row, :, col] = ph_a * row_av[:, v]
                            labels.append((m1, x, z, m3))
                            b_ops[i] = default_b
                m1 += 1
    return labels, a_ops, b_ops, f"merge-{mode}[K={K},L={L}]"


# planted (dim_L, dim_R, dim_bR) blocks and the spectator dimension: several
# redundant levels and B-factors per block, so receiver entries sum many terms;
# in the last, three redundant levels share a resource offset in one
# noncatalytic flattening step, so a sender entry sums three terms
PLANTED_CASES = [
    ([(2, 1, 2), (1, 2, 1)], 2),
    ([(2, 2, 2), (2, 1, 1)], 2),
    ([(3, 1, 2), (1, 1, 1), (2, 1, 1)], 2),
    ([(2, 1, 3), (2, 2, 3)], 2),
    ([(2, 3, 1), (3, 1, 2)], 3),
    ([(3, 3, 2)], 2),
]


def _oracle_corpus():
    """(name, state, delta) of the catalog, seeded random, A-padded,
    smoothed-candidate and planted states."""
    cases = [(f"ghz{d}", catalog("ghz", d=d), 1e-6) for d in (2, 3, 4)]
    cases += [(n, catalog(n), 1e-6) for n in ("appendixD", "implication2")]
    rng = np.random.default_rng(404)
    for dims in [(2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 6, 4), (2, 5, 3), (3, 3, 3)]:
        cases.append((f"random{dims}", random_state(rng, dims), 1e-6))
    # R is trivial: the catalytic fit of a generic lambda0 needs a wide slack
    cases.append(("random(1, 4, 4)", random_state(rng, (1, 4, 4)), 0.5))
    for dims in [(2, 2, 2), (2, 3, 2)]:
        cases.append((f"padded{dims}", _pad_sender(random_state(rng, dims)), 1e-6))
    smoothed = smoothed_candidate(catalog("implication2"), 0.1, 1)
    cases.append(("implication2-smoothed", smoothed, 1e-6))
    for k, (blocks, dim_r) in enumerate(PLANTED_CASES):
        state, _ = planted_ki_state(np.random.default_rng([505, k]), blocks, dim_r)
        cases.append((f"planted{blocks}", state, 1e-6))
    return cases


@pytest.mark.parametrize("mode", ["catalytic", "noncatalytic"])
def test_branch_assembly_matches_per_pair_oracle(mode, monkeypatch):
    """The batched assembly gives every bit of the per-pair loop, at the
    default batch byte bound and at bounds small enough to cut grid
    intervals into batches of one to four branches.  Some sender and some
    receiver entry sum three or more terms, so the order of the scatter
    rounds shows in the bits (two additions commute exactly)."""
    padded = 0
    small_batches = set()
    original_svd = np.linalg.svd
    original_table = merge._BlockData.step_table
    rounds = {"send": 0, "recv": 0}

    def recording_svd(a, *args, **kwargs):
        small_batches.add(len(a))
        return original_svd(a, *args, **kwargs)

    def recording_table(bd, indices):
        table = original_table(bd, indices)
        # each slot round is taken once per B-factor by the receivers
        rounds["send"] = max(rounds["send"], len(table.rounds))
        rounds["recv"] = max(rounds["recv"], len(table.rounds) * bd.n_r)
        return table

    monkeypatch.setattr(merge._BlockData, "step_table", recording_table)

    for name, state, delta in _oracle_corpus():
        dec = ki_decompose(state)
        padded += name.startswith("padded") and any(b.p == 0.0 for b in dec.blocks)
        labels, a_ops, b_ops, pname = _per_pair_oracle(state, dec, mode, delta)
        for bound in (None, 1, 2048, 4096):
            with monkeypatch.context() as patch:
                if bound is not None:
                    patch.setattr(locc, "BATCH_BYTES", bound)
                    patch.setattr(np.linalg, "svd", recording_svd)
                protocol = build_merge_protocol(state, dec, mode=mode, delta=delta).protocol
            where = (name, bound)
            assert list(protocol.branches) == labels, where
            assert protocol.name == pname, where
            assert protocol.a_ops.shape == a_ops.shape, where
            assert protocol.b_ops.shape == b_ops.shape, where
            assert protocol.a_ops.tobytes() == a_ops.tobytes(), where
            assert protocol.b_ops.tobytes() == b_ops.tobytes(), where
    assert padded == 2
    assert small_batches == {1, 2, 3, 4}
    if mode == "noncatalytic":
        assert rounds["send"] >= 3, rounds
    assert rounds["recv"] >= 3, rounds


def test_candidate_build_keeps_no_large_temporaries():
    """Building the K = 12 implication2 candidate and running it on the true
    state holds its two stacks, its outcomes, a few MiB of tables and one
    batch: no store of every Pauli correction's receiver blocks, no scatter
    terms of a whole assembly batch, and neither the receiver check at
    construction nor the run holds temporaries for every branch at once."""
    true = catalog("implication2")
    state = smoothed_candidate(true, 0.1, 0)
    dec = ki_decompose(state)
    tracemalloc.start()
    try:
        protocol = build_merge_protocol(state, dec, mode="noncatalytic").protocol
        outcomes = apply_protocol(protocol, true.amplitudes, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = protocol.a_ops.nbytes + protocol.b_ops.nbytes + sum(o.state.nbytes for o in outcomes)
    assert protocol.name == "merge-noncatalytic[K=12,L=1]"
    assert len(outcomes) == 144
    assert peak - held < 8 * 2**20 + locc.BATCH_BYTES


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
    return TripartiteState(amps)


def test_qubit_optimal_zero_cost_cases():
    rng = np.random.default_rng(7)
    cases = [catalog("ghz", d=2)] + [_two_unitary_mix(rng) for _ in range(5)]
    for state in cases:
        rep = qubit_optimal_merge(state)
        assert rep.cost_bits == 0.0
        assert rep.K == 1
        assert rep.mixed_unitary is not None
        assert len(rep.protocol.branches) <= 4
        outcomes = apply_protocol(rep.protocol, state.amplitudes, 1)
        ver = verify_protocol(rep.protocol, outcomes, merge_target_vector(state, 1))
        assert ver.passed


def test_qubit_optimal_one_bit_case():
    state = catalog("implication3")
    rep = qubit_optimal_merge(state)
    assert rep.cost_bits == 1.0
    assert rep.K == 2
    assert rep.mixed_unitary is None
    assert len(rep.protocol.branches) == 4
    outcomes = apply_protocol(rep.protocol, state.amplitudes, 2)
    ver = verify_protocol(rep.protocol, outcomes, merge_target_vector(state, 1))
    assert ver.passed


def test_qubit_optimal_one_bit_sweep():
    """Uniform-spectator three-qubit states with a receiver marginal away from
    uniform: the one-bit protocol has K = 2 and four branches, and verifies."""
    rng = np.random.default_rng(28)
    for _ in range(50):
        state = max_entangled_counterpart(random_state(rng, (2, 2, 2)))
        assert np.max(np.abs(state.marginal("B") - np.eye(2) / 2)) > 1e-3
        rep = qubit_optimal_merge(state)
        assert (rep.cost_bits, rep.K, len(rep.protocol.branches)) == (1.0, 2, 4)
        assert rep.mixed_unitary is None
        outcomes = apply_protocol(rep.protocol, state.amplitudes, 2)
        assert verify_protocol(rep.protocol, outcomes, merge_target_vector(state, 1)).passed


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


def _term_vectors(terms):
    """The vectors (1 (x) U_m)|Phi+> of ``(p_m, U_m)`` terms, one per row."""
    return np.array([np.kron(np.eye(2), u) @ PHI2 for _, u in terms])


def test_mixed_unitary_identity_channel():
    mu = mixed_unitary_decomposition_qubit(np.outer(PHI2, PHI2))
    assert len(mu) == 1
    p, u = mu[0]
    assert p == pytest.approx(1.0)
    # unitary equals identity up to global phase
    assert np.abs(np.abs(np.trace(u)) - 2.0) < 1e-9


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize(
    "unitaries",
    [
        (np.eye(2, dtype=complex), _PAULI_Z),
        (_PAULI_X, _PAULI_Y, _PAULI_Z),
        (np.eye(2, dtype=complex), _PAULI_X, _PAULI_Y, _PAULI_Z),
    ],
    ids=["dephasing", "three-pauli", "depolarizing"],
)
def test_mixed_unitary_dephasing_channel(unitaries):
    """Equal Pauli mixtures: the Choi matrix has a k-fold eigenvalue 1/k."""
    k = len(unitaries)
    choi = _choi_of_mixture([(1.0 / k, u) for u in unitaries])
    mu = mixed_unitary_decomposition_qubit(choi)
    assert len(mu) == k
    assert sorted(p for p, _ in mu) == pytest.approx([1.0 / k] * k)
    vecs = _term_vectors(mu)
    assert np.allclose(vecs.conj() @ vecs.T, np.eye(k), atol=1e-9)


def test_mixed_unitary_random_mixtures_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = rng.integers(1, 5)
        w = rng.dirichlet(np.ones(k))
        terms = [(w[i], random_unitary(rng, 2)) for i in range(k)]
        choi = _choi_of_mixture(terms)
        mu = mixed_unitary_decomposition_qubit(choi)
        assert 1 <= len(mu) <= 4
        assert sum(p for p, _ in mu) == pytest.approx(1.0)
        for _, u in mu:
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-9)
        assert np.max(np.abs(_choi_of_mixture(mu) - choi)) < 1e-8
        # the terms (1 (x) U_m)|Phi+> are orthonormal eigenvectors of the Choi
        # matrix, weighted by its eigenvalues above tau in descending order
        vecs = _term_vectors(mu)
        assert np.allclose(vecs.conj() @ vecs.T, np.eye(len(mu)), atol=1e-9)
        evals = np.linalg.eigvalsh(choi)[::-1]
        assert [p for p, _ in mu] == pytest.approx(list(evals[evals > tolerance()]), abs=1e-12)


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
    for bad in (np.nan, np.inf):
        choi = np.outer(PHI2, PHI2).astype(complex)
        choi[0, 3] = choi[3, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            mixed_unitary_decomposition_qubit(choi)


def test_unaccumulated_outcome_grid_names_its_totals():
    """A flattening grid whose blocks do not reach probability 1 names the
    merged total and each block's last cumulative probability."""
    with pytest.raises(VerificationError, match=re.escape(
        "do not accumulate to 1: merged total 0.9, block totals [0.5, 0.9]"
    )):
        merge._merged_breakpoints([[0.25, 0.5], [0.4, 0.9]])

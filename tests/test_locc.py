import json
import re

import numpy as np
import pytest

import qsm.cli as cli
from qsm import locc
from qsm.approx import best_smoothing_candidate
from qsm.errors import ValidationError
from qsm.ki import ki_decompose
from qsm.merge import build_merge_protocol, qubit_optimal_merge
from qsm.numerics import dagger, tolerance
from qsm.split import build_split_protocol
from qsm.statespace import (
    TripartiteState,
    catalog,
    load_state,
    random_state,
    save_state,
)

from helpers import (
    flatten_source_vector,
    flatten_target_vector,
    flatten_to_uniform,
    max_entangled_vector,
    merge_input_vector,
    planted_ki_state,
    random_unitary,
    smoothed_candidate,
    split_input_vector,
    teleportation_protocol,
)


def test_max_entangled_vector():
    v = max_entangled_vector(2)
    assert np.allclose(v, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    assert np.isclose(np.linalg.norm(max_entangled_vector(5)), 1.0)


def test_generalized_paulis():
    paulis = locc.generalized_paulis(2)
    assert paulis.shape == (2, 2, 2, 2)
    assert np.allclose(paulis[1, 0], [[0, 1], [1, 0]])
    assert np.allclose(paulis[0, 1], [[1, 0], [0, -1]])
    d = 3
    paulis = locc.generalized_paulis(d)
    for xx in range(d):
        for zz in range(d):
            s = paulis[xx, zz]
            assert np.allclose(dagger(s) @ s, np.eye(d))
            # X^x Z^z
            x_pow = np.linalg.matrix_power(paulis[1, 0], xx)
            assert np.allclose(s, x_pow @ np.linalg.matrix_power(paulis[0, 1], zz))
    # X Z = e^{-2 pi i/d} Z X (Weyl commutation)
    xz = paulis[1, 0] @ paulis[0, 1]
    zx = paulis[0, 1] @ paulis[1, 0]
    assert np.allclose(xz * np.exp(2j * np.pi / 3), zx)
    with pytest.raises(ValidationError):
        locc.generalized_paulis(0)


def _single(a_op, b_op, label=(0,)):
    """One-branch protocol from a sender and a receiver matrix."""
    return locc.OneWayProtocol(
        branches=(label,), a_ops=np.asarray(a_op)[None], b_ops=np.asarray(b_op)[None]
    )


def test_receiver_check_names_the_worst_deviation_and_its_bound():
    """The first non-isometric receiver is named, with the worst deviation
    over all receivers and the 10 tau bound it exceeds."""
    half = np.eye(2) / np.sqrt(2)
    message = (
        "branch (0,): receiver operator is not an isometry "
        "(worst receiver deviation 3.00e+00 > 10 tau = 1.0e-08)"
    )
    with pytest.raises(ValidationError, match=re.escape(message)):
        locc.OneWayProtocol(
            branches=((0,), (1,)),
            a_ops=np.stack([half, half]),
            b_ops=np.stack([0.5 * np.eye(2), 2.0 * np.eye(2)]),  # deviations 0.75 and 3
        )


def test_protocol_validation():
    with pytest.raises(ValidationError):
        # empty protocol rejected at construction
        locc.OneWayProtocol(
            branches=(), a_ops=np.zeros((0, 2, 2)), b_ops=np.zeros((0, 2, 2))
        )
    with pytest.raises(ValidationError):
        # incomplete measurement: a single half-weight branch
        _single(np.eye(2) / 2, np.eye(2))
    with pytest.raises(ValidationError):
        # receiver operator not an isometry
        _single(np.eye(2), np.eye(2) * 0.5)
    with pytest.raises(ValidationError):
        # duplicate labels
        half = np.eye(2) / np.sqrt(2)
        locc.OneWayProtocol(
            branches=((0,), (0,)),
            a_ops=np.stack([half, half]),
            b_ops=np.stack([np.eye(2), np.eye(2)]),
        )
    with pytest.raises(ValidationError):
        # one label per stacked operator
        locc.OneWayProtocol(
            branches=((0,), (1,)), a_ops=np.eye(2)[None], b_ops=np.eye(2)[None]
        )
    with pytest.raises(ValidationError):
        # a stack is three-dimensional
        locc.OneWayProtocol(branches=((0,),), a_ops=np.eye(2), b_ops=np.eye(2)[None])
    with pytest.raises(ValidationError, match="a_ops"):
        # an empty input register
        _single(np.zeros((1, 0)), np.eye(2))
    # non-finite operators: NaN compares false against every threshold
    nan_a = np.eye(2, dtype=complex)
    nan_a[1, 1] = np.nan
    with pytest.raises(ValidationError, match="a_ops"):
        _single(nan_a, np.eye(2))
    inf_b = np.eye(2, dtype=complex)
    inf_b[0, 1] = np.inf
    with pytest.raises(ValidationError, match="b_ops"):
        _single(np.eye(2), inf_b)
    with pytest.raises(ValidationError, match="b_ops"):
        _single(np.eye(2), np.full((2, 2), np.nan))
    proto = _single(np.eye(2), np.eye(2))
    assert proto.a_in_dim == proto.b_in_dim == 2
    assert proto.branches == ((0,),)
    # stacks given as views are copied: writing the base leaves the protocol
    ops = np.eye(2, dtype=complex)[None].copy()
    proto = locc.OneWayProtocol(branches=((0,),), a_ops=ops[:], b_ops=ops[:])
    ops[0, 0, 0] = 5.0
    assert proto.a_ops[0, 0, 0] == proto.b_ops[0, 0, 0] == 1.0


def test_verify_protocol_rejects_non_finite_vectors():
    proto = teleportation_protocol(2)
    target = np.array([1, 0], dtype=complex)
    with pytest.raises(ValidationError, match="input vector"):
        locc.verify_protocol(proto, locc.apply_protocol(proto, np.full(2, np.nan), 2), target)
    with pytest.raises(ValidationError, match="input vector"):
        locc.apply_protocol(proto, np.full(2, np.inf), 2)
    with pytest.raises(ValidationError, match="input vector"):
        locc.apply_protocol(proto, np.array([np.nan, 1.0]), 2)
    outcomes = locc.apply_protocol(proto, target, 2)
    with pytest.raises(ValidationError, match="target vector"):
        locc.verify_protocol(proto, outcomes, np.array([np.nan, 0], dtype=complex))
    with pytest.raises(ValidationError, match="target vector"):
        locc.verify_protocol(proto, outcomes, np.array([np.inf, 0], dtype=complex))
    assert locc.verify_protocol(proto, outcomes, target).passed


def test_teleport_qubit_plus_state():
    proto = teleportation_protocol(2)
    assert len(proto.branches) == 4
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    outcomes = locc.apply_protocol(proto, plus, 2)
    assert len(outcomes) == 4
    for out in outcomes:
        assert out.probability == pytest.approx(0.25, abs=1e-9)
        assert abs(np.vdot(plus, out.state)) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_teleport_qutrit_random():
    rng = np.random.default_rng(5)
    proto = teleportation_protocol(3)
    assert len(proto.branches) == 9
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    report = locc.verify_protocol(proto, locc.apply_protocol(proto, psi, 3), psi)
    assert report.passed
    assert report.min_branch_fidelity > 1 - 1e-8
    assert report.branch_count == 9


def test_teleport_entanglement_swap():
    # teleporting half of a Bell pair moves the entanglement to (spectator, B)
    proto = teleportation_protocol(2)
    bell = max_entangled_vector(2)
    # input on (R, Q) with Q the teleported half; the pair adds (Abar, Bbar)
    outcomes = locc.apply_protocol(proto, bell, 2)
    report = locc.verify_protocol(proto, outcomes, bell)
    assert report.passed


def test_teleport_trivial_dimension():
    proto = teleportation_protocol(1)
    assert len(proto.branches) == 1
    outcomes = locc.apply_protocol(proto, np.array([1.0 + 0j]), 1)
    assert outcomes[0].probability == pytest.approx(1.0)


def test_flatten_schedule_examples():
    steps = locc.flatten_schedule([0.5, 0.25, 0.25], 2)
    assert len(steps) == 2
    assert steps[0].indices == (0, 1)
    assert steps[0].mass == pytest.approx(0.25)
    assert steps[1].indices == (0, 2)
    assert steps[1].mass == pytest.approx(0.25)
    # already uniform: single full-width step
    steps = locc.flatten_schedule([0.25] * 4, 4)
    assert len(steps) == 1
    assert steps[0].mass == pytest.approx(0.25)
    with pytest.raises(ValidationError):
        locc.flatten_schedule([0.6, 0.4], 2)
    with pytest.raises(ValidationError):
        locc.flatten_schedule([0.25, 0.5, 0.25], 2)  # not descending
    # feasible case where subtracting the full second-largest mass would
    # strand the remainder: the schedule must still consume everything
    steps = locc.flatten_schedule([0.35, 0.35, 0.30], 2)
    assert len(steps) <= 3
    consumed = np.zeros(3)
    for st in steps:
        for i in st.indices:
            consumed[i] += st.mass
    assert np.allclose(consumed, [0.35, 0.35, 0.30])


def test_flatten_protocol_example():
    p = (0.5, 0.25, 0.25)
    proto = flatten_to_uniform(p, 2)
    assert len(proto.branches) == 2
    src = flatten_source_vector(p)
    tgt = flatten_target_vector(2, 3)
    outcomes = locc.apply_protocol(proto, src, 1)
    report = locc.verify_protocol(proto, outcomes, tgt)
    assert report.passed
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


def test_flatten_uniform_identity_like():
    p = (0.25,) * 4
    proto = flatten_to_uniform(p, 4)
    assert len(proto.branches) == 1
    assert np.allclose(proto.a_ops[0], np.eye(4))
    report = locc.verify_protocol(
        proto, locc.apply_protocol(proto, flatten_source_vector(p), 1), flatten_target_vector(4, 4)
    )
    assert report.passed


def test_flatten_branch_count_bound_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        L = int(rng.integers(1, n + 1))
        raw = rng.random(n) + 0.05
        p = np.sort(raw / raw.sum())[::-1]
        # enforce the flattening precondition by clipping the top mass
        if p[0] > 1.0 / L:
            continue
        proto = flatten_to_uniform(tuple(p), L)
        assert len(proto.branches) <= n
        report = locc.verify_protocol(
            proto, locc.apply_protocol(proto, flatten_source_vector(p), 1), flatten_target_vector(L, n)
        )
        assert report.passed


def test_verify_protocol_detects_wrong_target():
    proto = teleportation_protocol(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    report = locc.verify_protocol(proto, locc.apply_protocol(proto, zero, 2), one)
    assert not report.passed
    assert report.min_branch_fidelity < 1e-9


def test_verify_protocol_detects_perturbed_branch():
    proto = teleportation_protocol(2)
    b_ops = proto.b_ops.copy()
    # replace one receiver correction by the identity (still an isometry)
    b_ops[1] = np.eye(2)
    tampered = locc.OneWayProtocol(
        branches=proto.branches, a_ops=proto.a_ops, b_ops=b_ops
    )
    # |+> input makes the dropped phase correction visible
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    report = locc.verify_protocol(tampered, locc.apply_protocol(tampered, plus, 2), plus)
    assert not report.passed


def test_apply_protocol_dimension_mismatch():
    proto = teleportation_protocol(2)
    with pytest.raises(ValidationError, match="rank 2"):
        locc.apply_protocol(proto, np.ones(3, dtype=complex) / np.sqrt(3), 2)
    assert len(locc.apply_protocol(proto, np.eye(2)[0], np.int64(2))) == 4  # numpy ints count


@pytest.mark.parametrize(
    "rank, size, pattern",
    [
        (True, 4, r"pair rank True .* registers 4x2"),
        (2.0, 2, r"pair rank 2\.0 .* registers 4x2"),
        ("2", 2, r"pair rank '2' .* registers 4x2"),
        (None, 2, r"pair rank None .* registers 4x2"),
        (0, 2, r"pair rank 0 .* registers 4x2"),
        (-2, 2, r"pair rank -2 .* registers 4x2"),
        (3, 2, r"pair rank 3 .* registers 4x2"),  # divides neither register
        (4, 1, r"pair rank 4 .* registers 4x2"),  # divides a_in only
        (2, 3, r"input dimension 3 .* registers 4x2 .* rank 2"),
        (1, 4, r"input dimension 4 .* registers 4x2 .* rank 1"),
    ],
)
def test_apply_protocol_rejects_bad_pair_rank(rank, size, pattern):
    """The pair rank is a positive int dividing both input registers, and the
    amplitudes fill whole spectator rows of what is left of them."""
    proto = teleportation_protocol(2)  # registers 4 x 2
    amps = np.ones(size, dtype=complex) / np.sqrt(size)
    with pytest.raises(ValidationError, match=pattern):
        locc.apply_protocol(proto, amps, rank)


def test_protocol_json_roundtrip_fields(tmp_path):
    path = tmp_path / "implication3.json"
    save_state(catalog("implication3"), path)
    code, report = cli.run(["merge", str(path), "--dump-protocol"])
    assert code == 0
    dump = json.loads(json.dumps(cli._jsonable(report)))["results"]["protocol"]
    build = build_merge_protocol(load_state(path))
    assert dump["name"] == build.protocol.name
    assert len(dump["branches"]) == len(build.protocol.branches)

    def decode(enc):
        return np.array(enc["real"]) + 1j * np.array(enc["imag"])

    protocol = build.protocol
    for enc, label, a_op, b_op in zip(
        dump["branches"], protocol.branches, protocol.a_ops, protocol.b_ops
    ):
        assert tuple(enc["label"]) == label
        assert np.array_equal(decode(enc["a_op"]), a_op)
        assert np.array_equal(decode(enc["b_op"]), b_op)


def test_random_protocol_completeness_property():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        u = random_unitary(rng, d * d)
        # rank-1 branches from the rows of a random unitary form a complete
        # measurement
        proto = locc.OneWayProtocol(
            branches=tuple((i,) for i in range(d * d)),
            a_ops=u[:, None, :],
            b_ops=np.broadcast_to(np.eye(2), (d * d, 2, 2)),
        )
        assert proto.completeness_residual() < 1e-9


def test_flatten_rejects_bad_level_count():
    with pytest.raises(ValidationError):
        locc.flatten_schedule([0.5, 0.5], 3)
    with pytest.raises(ValidationError):
        locc.flatten_schedule([0.5, 0.5], 0)


_GHZ2 = catalog("ghz", d=2)


@pytest.mark.parametrize(
    "call,named",
    [
        (lambda: locc.generalized_paulis(2.0), "dimension d"),
        (lambda: locc.generalized_paulis(True), "dimension d"),
        (lambda: locc.flatten_schedule([0.5, 0.5], 1.5), "level count L"),
        (lambda: locc.flatten_schedule([0.5, 0.5], True), "level count L"),
        (lambda: flatten_to_uniform([0.5, 0.5], 1.5), "level count L"),
        (lambda: flatten_to_uniform([0.5, 0.5], True), "level count L"),
        (lambda: locc.flatten_schedule([np.nan, 0.5], 1), "mass vector"),
        (lambda: locc.flatten_schedule([np.inf, 0.5], 1), "mass vector"),
        (lambda: best_smoothing_candidate(_GHZ2, 0.1, candidates=2.5), "candidate count"),
        (lambda: best_smoothing_candidate(_GHZ2, 0.1, candidates=True), "candidate count"),
        (lambda: best_smoothing_candidate(_GHZ2, 0.1, seed=1.5), "heuristic seed"),
        (lambda: best_smoothing_candidate(_GHZ2, 0.1, seed=True), "heuristic seed"),
    ],
    ids=[
        "paulis-float", "paulis-bool", "schedule-float", "schedule-bool",
        "uniform-float", "uniform-bool", "schedule-nan", "schedule-inf",
        "candidates-float", "candidates-bool", "seed-float", "seed-bool",
    ],
)
def test_constructors_reject_non_integer_and_non_finite_arguments(call, named):
    """Booleans and floats are not counts, and a NaN mass is not a mass: each
    fails with a ``ValidationError`` that names the argument."""
    with pytest.raises(ValidationError, match=named):
        call()


def _materialised_outcomes(protocol, vec, indices):
    """``(label, probability, state)`` of the live branches among ``indices``,
    computed as the runner did when it took psi (x) Phi_K as one dense
    vector: the full input registers contracted, with fresh copies of both
    operators."""
    tol = tolerance()
    tensor = np.asarray(vec, dtype=complex).reshape(-1, protocol.a_in_dim, protocol.b_in_dim)
    expected = []
    for i in indices:
        half = np.einsum("iab,yb->iay", tensor, np.array(protocol.b_ops[i]))
        out = np.einsum("xa,iay->ixy", np.array(protocol.a_ops[i]), half)
        prob = float(np.linalg.norm(out) ** 2)
        if prob > tol:
            expected.append((protocol.branches[i], prob, out.reshape(-1) / np.sqrt(prob)))
    return expected


def _assert_matches_materialised(protocol, amplitudes, K, vec, stride=1):
    """Running ``protocol`` on ``amplitudes`` with a rank-``K`` pair gives every
    byte of the dense loop on ``vec``, on the branches 0, stride, 2 stride, ..."""
    indices = range(0, len(protocol.branches), stride)
    expected = _materialised_outcomes(protocol, vec, indices)
    kept = {protocol.branches[i] for i in indices}
    outcomes = [o for o in locc.apply_protocol(protocol, amplitudes, K) if o.label in kept]
    assert [o.label for o in outcomes] == [e[0] for e in expected], protocol.name
    for outcome, (label, prob, state) in zip(outcomes, expected):
        assert outcome.probability == prob, (protocol.name, label)
        assert outcome.state.tobytes() == state.tobytes(), (protocol.name, label)
    return len(expected)


def _stacked_cases():
    """(protocol, amplitudes, pair rank, dense input vector) for merge in both
    modes, split and the qubit merge on catalog and seeded random states."""
    states = [catalog("ghz", d=3)] + [
        catalog(name)
        for name in (
            "implication2",
            "implication3",
            "implication4_psi",
            "implication4_psi_prime",
            "appendixD",
            "qutrit_choi",
        )
    ]
    rng = np.random.default_rng(606)
    states += [random_state(rng, dims) for dims in ((2, 2, 2), (2, 3, 2), (3, 4, 3))]
    # sender padded by one unused level: a p = 0 block
    small = random_state(rng, (2, 2, 2))
    amps = np.zeros((2, 3, 2), dtype=complex)
    amps[:, :2, :] = small.amplitudes
    padded = TripartiteState(amps)
    assert any(block.p == 0.0 for block in ki_decompose(padded).blocks)
    states.append(padded)
    for state in states:
        for mode in ("catalytic", "noncatalytic"):
            build = build_merge_protocol(state, mode=mode)
            K = build.report.K
            yield build.protocol, state.amplitudes, K, merge_input_vector(state, K)
        protocol = build_split_protocol(state)
        K = protocol.b_in_dim
        yield protocol, state.amplitudes, K, split_input_vector(state, K)
    prime = catalog("implication4_psi_prime")
    yield qubit_optimal_merge(prime).protocol, prime.amplitudes, 1, merge_input_vector(prime, 1)


def test_stacked_application_matches_per_branch_oracle():
    count = 0
    for protocol, amplitudes, K, vec in _stacked_cases():
        count += 1
        for stack in (protocol.a_ops, protocol.b_ops):
            assert stack.ndim == 3
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        assert len(protocol.branches) == protocol.a_ops.shape[0]
        assert len(protocol.branches) == protocol.b_ops.shape[0]
        _assert_matches_materialised(protocol, amplitudes, K, vec)
    assert count == 34


CATALOG_STATES = [("ghz", 2), ("ghz", 3), ("ghz", 4)] + [
    (name, None)
    for name in (
        "appendixD",
        "implication2",
        "implication3",
        "implication4_psi",
        "implication4_psi_prime",
        "qutrit_choi",
    )
]


def _merge_cases(states):
    for state in states:
        for mode in ("catalytic", "noncatalytic"):
            build = build_merge_protocol(state, mode=mode)
            K = build.report.K
            yield build.protocol, state.amplitudes, K, merge_input_vector(state, K)


def _pair_cases(group):
    """(protocol, amplitudes, pair rank, dense input vector) of one group."""
    if group == "catalog-merge":
        yield from _merge_cases(catalog(name, d=d) for name, d in CATALOG_STATES)
    elif group == "random-merge":
        rng = np.random.default_rng(707)
        states = [random_state(rng, dims) for dims in ((2, 2, 2), (2, 3, 2), (3, 4, 3), (4, 6, 4))]
        for k, blocks in enumerate(([(2, 2, 2), (2, 1, 1)], [(2, 1, 3), (2, 2, 3)])):
            states.append(planted_ki_state(np.random.default_rng([707, k]), blocks, 2)[0])
        yield from _merge_cases(states)
    elif group == "catalog-split":
        for name, d in CATALOG_STATES:
            state = catalog(name, d=d)
            protocol = build_split_protocol(state)
            K = protocol.b_in_dim
            yield protocol, state.amplitudes, K, split_input_vector(state, K)
    else:
        rng = np.random.default_rng(808)
        for d in (2, 3, 4):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            yield teleportation_protocol(d), psi, d, np.kron(psi, max_entangled_vector(d))


@pytest.mark.parametrize(
    "group, count",
    [("catalog-merge", 18), ("random-merge", 12), ("catalog-split", 9), ("teleport", 3)],
)
def test_pair_aware_apply_matches_materialised_input(group, count):
    """The runner never stores psi (x) Phi_K, yet gives every byte of the
    dense-input loop: labels, probabilities and output states."""
    cases = list(_pair_cases(group))
    assert len(cases) == count
    assert max(K for _, _, K, _ in cases) > 1
    for protocol, amplitudes, K, vec in cases:
        assert _assert_matches_materialised(protocol, amplitudes, K, vec) > 0


@pytest.mark.parametrize("group", ["catalog-merge", "random-merge", "catalog-split", "teleport"])
def test_apply_outcomes_do_not_depend_on_batch_bytes(group, monkeypatch):
    """One branch per batch, the default batch bytes and the whole stack in
    one batch give the same labels, probabilities and state bytes (the
    default is checked against the dense loop above)."""
    original = locc.batch_slices
    sizes = []

    def recording(n, branch_bytes):
        slices = original(n, branch_bytes)
        sizes.append([s.stop - s.start for s in slices])
        return slices

    for protocol, amplitudes, K, _ in _pair_cases(group):
        n = len(protocol.branches)
        runs = []
        for bound in (1, None, 2**62):
            with monkeypatch.context() as patch:
                if bound is not None:
                    patch.setattr(locc, "BATCH_BYTES", bound)
                patch.setattr(locc, "batch_slices", recording)
                runs.append(locc.apply_protocol(protocol, amplitudes, K))
        assert sizes[-3] == [1] * n and sizes[-1] == [n], protocol.name
        expected = runs[1]
        for outcomes in (runs[0], runs[2]):
            assert [o.label for o in outcomes] == [o.label for o in expected], protocol.name
            for got, want in zip(outcomes, expected):
                assert got.probability == want.probability, (protocol.name, got.label)
                assert got.state.tobytes() == want.state.tobytes(), (protocol.name, got.label)


def test_receiver_check_names_first_failing_branch_across_batches(monkeypatch):
    """With the receiver stack cut into batches of two, the check still names
    the first non-isometric receiver in label order, also in a later batch,
    and rejects a NaN receiver; the completeness residual does not move."""
    good = teleportation_protocol(3)
    n, b_out, b_in = good.b_ops.shape
    monkeypatch.setattr(locc, "BATCH_BYTES", 2 * 16 * (b_out * b_in + b_in * b_in))
    assert len(locc.batch_slices(n, 16 * (b_out * b_in + b_in * b_in))) >= 3

    def rebuilt(b_ops):
        return locc.OneWayProtocol(branches=good.branches, a_ops=good.a_ops, b_ops=b_ops)

    assert rebuilt(good.b_ops).completeness_residual() == good.completeness_residual()
    for bad in ([5, 7], [8], [2, 3]):
        b_ops = good.b_ops.copy()
        for k, i in enumerate(bad):
            b_ops[i] *= 1.5 + k
        label = re.escape(str(good.branches[bad[0]]))
        with pytest.raises(ValidationError, match=f"branch {label}: receiver"):
            rebuilt(b_ops)
    b_ops = good.b_ops.copy()
    b_ops[6, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="b_ops"):
        rebuilt(b_ops)


def test_pair_aware_apply_matches_materialised_input_on_approx_candidate():
    """A rank-12 candidate of ``approx --epsilon 0.1`` on implication2, run on
    the true state.  Stride 13 through the 12 x 12 Pauli labels (x, z) keeps
    12 branches, one for every value of x and of z."""
    state = catalog("implication2")
    build = build_merge_protocol(smoothed_candidate(state, 0.1, 0), mode="noncatalytic")
    K = build.report.K
    assert K == 12 and len(build.protocol.branches) == K * K
    stride = K + 1
    kept = build.protocol.branches[::stride]
    assert {label[1] for label in kept} == {label[2] for label in kept} == set(range(K))
    vec = merge_input_vector(state, K)
    assert _assert_matches_materialised(build.protocol, state.amplitudes, K, vec, stride) > 0

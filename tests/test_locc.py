import json

import numpy as np
import pytest

import qsm.cli as cli
from qsm import locc
from qsm.errors import ValidationError
from qsm.ki import ki_decompose
from qsm.merge import (
    build_merge_protocol,
    merge_input_vector,
    qubit_optimal_merge,
)
from qsm.numerics import dagger, tolerance
from qsm.split import build_split_protocol, split_input_vector
from qsm.statespace import (
    Registers,
    TripartiteState,
    catalog,
    load_state,
    random_state,
    save_state,
)

from helpers import flatten_source_vector, flatten_target_vector, random_unitary


def test_max_entangled_vector():
    v = locc.max_entangled_vector(2)
    assert np.allclose(v, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])
    assert np.isclose(np.linalg.norm(locc.max_entangled_vector(5)), 1.0)


def test_generalized_pauli():
    x = locc.generalized_pauli(2, 1, 0)
    z = locc.generalized_pauli(2, 0, 1)
    assert np.allclose(x, [[0, 1], [1, 0]])
    assert np.allclose(z, [[1, 0], [0, -1]])
    d = 3
    for xx in range(d):
        for zz in range(d):
            s = locc.generalized_pauli(d, xx, zz)
            assert np.allclose(dagger(s) @ s, np.eye(d))
    # X Z = e^{-2 pi i/d} Z X (Weyl commutation)
    xz = locc.generalized_pauli(3, 1, 0) @ locc.generalized_pauli(3, 0, 1)
    zx = locc.generalized_pauli(3, 0, 1) @ locc.generalized_pauli(3, 1, 0)
    assert np.allclose(xz * np.exp(2j * np.pi / 3), zx)


def _single(a_op, b_op, label=(0,)):
    """One-branch protocol from a sender and a receiver matrix."""
    return locc.OneWayProtocol(
        branches=(label,), a_ops=np.asarray(a_op)[None], b_ops=np.asarray(b_op)[None]
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
    proto = locc.teleportation_protocol(2)
    target = np.array([1, 0], dtype=complex)
    vec = np.kron(target, locc.max_entangled_vector(2))
    with pytest.raises(ValidationError, match="input vector"):
        locc.verify_protocol(proto, locc.apply_protocol(proto, np.full(8, np.nan)), target)
    with pytest.raises(ValidationError, match="input vector"):
        locc.apply_protocol(proto, np.full(8, np.inf))
    outcomes = locc.apply_protocol(proto, vec)
    with pytest.raises(ValidationError, match="target vector"):
        locc.verify_protocol(proto, outcomes, np.array([np.nan, 0], dtype=complex))
    with pytest.raises(ValidationError, match="target vector"):
        locc.verify_protocol(proto, outcomes, np.array([np.inf, 0], dtype=complex))
    assert locc.verify_protocol(proto, outcomes, target).passed


def test_teleport_qubit_plus_state():
    proto = locc.teleportation_protocol(2)
    assert len(proto.branches) == 4
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vec = np.kron(plus, locc.max_entangled_vector(2))
    outcomes = locc.apply_protocol(proto, vec)
    assert len(outcomes) == 4
    for out in outcomes:
        assert out.probability == pytest.approx(0.25, abs=1e-9)
        assert abs(np.vdot(plus, out.state)) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_teleport_qutrit_random():
    rng = np.random.default_rng(5)
    proto = locc.teleportation_protocol(3)
    assert len(proto.branches) == 9
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    vec = np.kron(psi, locc.max_entangled_vector(3))
    report = locc.verify_protocol(proto, locc.apply_protocol(proto, vec), psi)
    assert report.passed
    assert report.min_branch_fidelity > 1 - 1e-8
    assert report.branch_count == 9


def test_teleport_entanglement_swap():
    # teleporting half of a Bell pair moves the entanglement to (spectator, B)
    proto = locc.teleportation_protocol(2)
    bell = locc.max_entangled_vector(2).reshape(2, 2)
    # input on (R, Q, Abar, Bbar) with Q the teleported half
    vec = np.einsum("rq,ab->rqab", bell, locc.max_entangled_vector(2).reshape(2, 2))
    outcomes = locc.apply_protocol(proto, vec.reshape(-1))
    report = locc.verify_protocol(proto, outcomes, locc.max_entangled_vector(2))
    assert report.passed


def test_teleport_trivial_dimension():
    proto = locc.teleportation_protocol(1)
    assert len(proto.branches) == 1
    outcomes = locc.apply_protocol(proto, np.array([1.0 + 0j]))
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
    proto = locc.flatten_to_uniform(p, 2)
    assert len(proto.branches) == 2
    src = flatten_source_vector(p)
    tgt = flatten_target_vector(2, 3)
    outcomes = locc.apply_protocol(proto, src)
    report = locc.verify_protocol(proto, outcomes, tgt)
    assert report.passed
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


def test_flatten_uniform_identity_like():
    p = (0.25,) * 4
    proto = locc.flatten_to_uniform(p, 4)
    assert len(proto.branches) == 1
    assert np.allclose(proto.a_ops[0], np.eye(4))
    report = locc.verify_protocol(
        proto, locc.apply_protocol(proto, flatten_source_vector(p)), flatten_target_vector(4, 4)
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
        proto = locc.flatten_to_uniform(tuple(p), L)
        assert len(proto.branches) <= n
        report = locc.verify_protocol(
            proto, locc.apply_protocol(proto, flatten_source_vector(p)), flatten_target_vector(L, n)
        )
        assert report.passed


def test_verify_protocol_detects_wrong_target():
    proto = locc.teleportation_protocol(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    vec = np.kron(zero, locc.max_entangled_vector(2))
    report = locc.verify_protocol(proto, locc.apply_protocol(proto, vec), one)
    assert not report.passed
    assert report.min_branch_fidelity < 1e-9


def test_verify_protocol_detects_perturbed_branch():
    proto = locc.teleportation_protocol(2)
    b_ops = proto.b_ops.copy()
    # replace one receiver correction by the identity (still an isometry)
    b_ops[1] = np.eye(2)
    tampered = locc.OneWayProtocol(
        branches=proto.branches, a_ops=proto.a_ops, b_ops=b_ops
    )
    # |+> input makes the dropped phase correction visible
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vec = np.kron(plus, locc.max_entangled_vector(2))
    report = locc.verify_protocol(tampered, locc.apply_protocol(tampered, vec), plus)
    assert not report.passed


def test_apply_protocol_dimension_mismatch():
    proto = locc.teleportation_protocol(2)
    with pytest.raises(ValidationError):
        locc.apply_protocol(proto, np.ones(3, dtype=complex) / np.sqrt(3))


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


def _apply_branch_oracle(a_op, b_op, vec, a_in, b_in):
    """Per-branch application as it was before the stacks: fresh copies of
    both operators, the spectator dimension inferred from the vector."""
    tensor = np.asarray(vec, dtype=complex).reshape(-1, a_in, b_in)
    half = np.einsum("iab,yb->iay", tensor, np.array(b_op))
    return np.einsum("xa,iay->ixy", np.array(a_op), half)


def _stacked_cases():
    """(protocol, input vector) for merge in both modes, split and the
    qubit merge on catalog and seeded random states."""
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
    padded = TripartiteState(Registers(2, 3, 2), amps)
    assert any(block.p == 0.0 for block in ki_decompose(padded).blocks)
    states.append(padded)
    for state in states:
        for mode in ("catalytic", "noncatalytic"):
            build = build_merge_protocol(state, mode=mode)
            yield build.protocol, merge_input_vector(state, build.report.K)
        protocol = build_split_protocol(state)
        yield protocol, split_input_vector(state, protocol.b_in_dim)
    prime = catalog("implication4_psi_prime")
    yield qubit_optimal_merge(prime).protocol, merge_input_vector(prime, 1)


def test_stacked_application_matches_per_branch_oracle():
    tol = tolerance()
    count = 0
    for protocol, vec in _stacked_cases():
        count += 1
        for stack in (protocol.a_ops, protocol.b_ops):
            assert stack.ndim == 3
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0
        assert len(protocol.branches) == protocol.a_ops.shape[0]
        assert len(protocol.branches) == protocol.b_ops.shape[0]
        expected = []
        for label, a_op, b_op in zip(protocol.branches, protocol.a_ops, protocol.b_ops):
            out = _apply_branch_oracle(
                a_op, b_op, vec, protocol.a_in_dim, protocol.b_in_dim
            )
            prob = float(np.linalg.norm(out) ** 2)
            if prob > tol:
                expected.append((label, prob, out.reshape(-1) / np.sqrt(prob)))
        outcomes = locc.apply_protocol(protocol, vec)
        assert [o.label for o in outcomes] == [e[0] for e in expected], protocol.name
        for outcome, (_, prob, state) in zip(outcomes, expected):
            assert outcome.probability == prob
            assert np.array_equal(outcome.state, state)
    assert count == 34

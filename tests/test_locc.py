import json

import numpy as np
import pytest

import qsm.cli as cli
from qsm import locc
from qsm.errors import ValidationError
from qsm.merge import build_merge_protocol
from qsm.statespace import catalog, load_state, save_state
from qsm.numerics import dagger, random_unitary


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


def test_protocol_validation():
    b_good = locc.Branch(label=(0,), a_op=np.eye(2), b_op=np.eye(2))
    with pytest.raises(ValidationError):
        locc.OneWayProtocol(branches=())  # empty protocol rejected at construction
    with pytest.raises(ValidationError):
        # incomplete measurement: a single half-weight branch
        locc.OneWayProtocol(
            branches=(locc.Branch(label=(0,), a_op=np.eye(2) / 2, b_op=np.eye(2)),)
        )
    with pytest.raises(ValidationError):
        # receiver operator not an isometry
        locc.OneWayProtocol(
            branches=(locc.Branch(label=(0,), a_op=np.eye(2), b_op=np.eye(2) * 0.5),)
        )
    with pytest.raises(ValidationError):
        # duplicate labels
        half = np.eye(2) / np.sqrt(2)
        locc.OneWayProtocol(
            branches=(
                locc.Branch(label=(0,), a_op=half, b_op=np.eye(2)),
                locc.Branch(label=(0,), a_op=half, b_op=np.eye(2)),
            )
        )
    proto = locc.OneWayProtocol(branches=(b_good,))
    assert proto.a_in_dim == proto.b_in_dim == 2


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
    report = locc.verify_protocol(proto, vec, psi)
    assert report.passed
    assert report.min_branch_fidelity > 1 - 1e-8
    assert report.branch_count == 9


def test_teleport_entanglement_swap():
    # teleporting half of a Bell pair moves the entanglement to (spectator, B)
    proto = locc.teleportation_protocol(2)
    bell = locc.max_entangled_vector(2).reshape(2, 2)
    # input on (R, Q, Abar, Bbar) with Q the teleported half
    vec = np.einsum("rq,ab->rqab", bell, locc.max_entangled_vector(2).reshape(2, 2))
    report = locc.verify_protocol(proto, vec.reshape(-1), locc.max_entangled_vector(2))
    assert report.passed


def test_teleport_trivial_dimension():
    proto = locc.teleportation_protocol(1)
    assert len(proto.branches) == 1
    outcomes = locc.apply_protocol(proto, np.array([1.0 + 0j]))
    assert outcomes[0].probability == pytest.approx(1.0)


def test_teleport_channel_is_identity():
    d = 2
    proto = locc.teleportation_protocol(d)
    resource = locc.max_entangled_vector(d)
    choi = locc.protocol_choi(proto, d, lambda e: np.kron(e, resource))
    ident = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            ident[j * d + j, k * d + k] = 1.0
    assert np.max(np.abs(choi - ident)) < 1e-8


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
    src = locc.flatten_source_vector(p)
    tgt = locc.flatten_target_vector(2, 3)
    report = locc.verify_protocol(proto, src, tgt)
    assert report.passed
    outcomes = locc.apply_protocol(proto, src)
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


def test_flatten_uniform_identity_like():
    p = (0.25,) * 4
    proto = locc.flatten_to_uniform(p, 4)
    assert len(proto.branches) == 1
    assert np.allclose(proto.branches[0].a_op, np.eye(4))
    report = locc.verify_protocol(
        proto, locc.flatten_source_vector(p), locc.flatten_target_vector(4, 4)
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
            proto, locc.flatten_source_vector(p), locc.flatten_target_vector(L, n)
        )
        assert report.passed


def test_verify_protocol_detects_wrong_target():
    proto = locc.teleportation_protocol(2)
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    vec = np.kron(zero, locc.max_entangled_vector(2))
    report = locc.verify_protocol(proto, vec, one)
    assert not report.passed
    assert report.min_branch_fidelity < 1e-9


def test_verify_protocol_detects_perturbed_branch():
    proto = locc.teleportation_protocol(2)
    broken = list(proto.branches)
    # replace one receiver correction by the identity (still an isometry)
    broken[1] = locc.Branch(label=broken[1].label, a_op=broken[1].a_op, b_op=np.eye(2))
    tampered = locc.OneWayProtocol(branches=tuple(broken))
    # |+> input makes the dropped phase correction visible
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vec = np.kron(plus, locc.max_entangled_vector(2))
    report = locc.verify_protocol(tampered, vec, plus)
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

    for enc, br in zip(dump["branches"], build.protocol.branches):
        assert tuple(enc["label"]) == br.label
        assert np.array_equal(decode(enc["a_op"]), br.a_op)
        assert np.array_equal(decode(enc["b_op"]), br.b_op)


def test_random_protocol_completeness_property():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        u = random_unitary(rng, d * d)
        # rank-1 branches from the rows of a random unitary form a complete
        # measurement
        proto = locc.OneWayProtocol(
            branches=tuple(
                locc.Branch(label=(i,), a_op=u[i : i + 1, :], b_op=np.eye(2))
                for i in range(d * d)
            )
        )
        assert proto.completeness_residual() < 1e-9


def test_flatten_rejects_bad_level_count():
    with pytest.raises(ValidationError):
        locc.flatten_schedule([0.5, 0.5], 3)
    with pytest.raises(ValidationError):
        locc.flatten_schedule([0.5, 0.5], 0)
